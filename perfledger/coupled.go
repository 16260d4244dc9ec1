package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/sim"
	"repro/internal/transport"
)

// spec is one workload: program F (2 ranks, column bands) exports region f
// to program U (2 ranks, row bands) over the in-memory transport, with a
// REGL connection. A cycle is one collective Import answered and unpacked on
// both U ranks; F exports exportsPerCycle versions per cycle and U requests
// the last of them, an exact hit, so every answer has a known MatchTS.
type spec struct {
	name            string
	n               int     // the region is n x n float64 cells
	exportsPerCycle int     // F exports per U import
	tol             float64 // REGL tolerance
	// window closes the loop: F may start cycle c only once U has completed
	// cycle c-window. The runtime has no exporter-to-importer backpressure,
	// so an open loop buffers without bound.
	window int
	// fastSleep and slowSleep stand in for the per-export computation of F
	// rank 0 and F rank 1 (p_s, the slow exporter).
	fastSleep, slowSleep time.Duration
	// solverSteps heat-equation steps run on U per cycle (0: no solver).
	solverSteps int
	// cycles is a session's length; the first warmCycles of them fill the
	// pipeline and pools and are not measured.
	cycles, warmCycles int
}

// slowRank is the F rank playing the paper's slow exporter p_s; its export
// statistics feed the buffer rows of the ledger.
const slowRank = 1

// procs is the rank count of each program: the box has two CPUs.
const procs = 2

// The workloads; README.md gives the layer each one exposes and the
// metrics a change to that layer should and should not move.
var workloads = []spec{
	// Control messages dominate: a 4 KiB piece per cycle, one request per
	// export, so gob encoding and goroutine hand-offs set the pace.
	{name: "control", n: 32, exportsPerCycle: 1, tol: 0.5, window: 4, cycles: 1000, warmCycles: 20},
	// The paper's 1024x1024 array (8 MiB, 4 MiB per F block: above L2,
	// within L3): copies, pack/unpack and data sends dominate, with the same
	// control traffic per cycle as control.
	{name: "bulk", n: 1024, exportsPerCycle: 4, tol: 2.5, window: 2, cycles: 50, warmCycles: 4},
	// The paper's mechanism: p_s is five times slower than rank 0 and U is
	// fast, so buddy-help answers reach p_s before its exports and it skips
	// most memcpys. The sleeps pin cycles_per_s.
	{name: "buddy", n: 512, exportsPerCycle: 20, tol: 2.5, window: 2, cycles: 40, warmCycles: 4,
		fastSleep: 200 * time.Microsecond, slowSleep: time.Millisecond},
	// The only workload on collective and sim: halo Send/Recv and an
	// AllReduceScalar per heat step, sized so the collectives stay a
	// visible share of U's time next to the kernel.
	{name: "solver", n: 128, exportsPerCycle: 1, tol: 0.5, window: 2, solverSteps: 8, cycles: 250, warmCycles: 10},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (s spec) coupling() *config.Config {
	return &config.Config{
		Programs: []config.Program{
			{Name: "F", Cluster: "local", Binary: "builtin", Procs: procs},
			{Name: "U", Cluster: "local", Binary: "builtin", Procs: procs},
		},
		Connections: []config.Connection{{
			Export:    config.Endpoint{Program: "F", Region: "f"},
			Import:    config.Endpoint{Program: "U", Region: "f"},
			Policy:    match.REGL,
			Tolerance: s.tol,
		}},
	}
}

func (s spec) layouts() (decomp.ColBlock, decomp.RowBlock, error) {
	exp, err := decomp.NewColBlock(s.n, s.n, procs)
	if err != nil {
		return decomp.ColBlock{}, decomp.RowBlock{}, err
	}
	imp, err := decomp.NewRowBlock(s.n, s.n, procs)
	return exp, imp, err
}

// setUp builds and starts one framework for the workload: New, both
// DefineRegion calls and Start. It returns how long Start took.
func setUp(s spec, net transport.Network) (*core.Framework, time.Duration, error) {
	exp, imp, err := s.layouts()
	if err != nil {
		return nil, 0, err
	}
	fw, err := core.New(s.coupling(), core.Options{Network: net, BuddyHelp: true, Timeout: 30 * time.Second})
	if err != nil {
		return nil, 0, err
	}
	if err := fw.MustProgram("F").DefineRegion("f", exp); err != nil {
		fw.Close()
		return nil, 0, err
	}
	if err := fw.MustProgram("U").DefineRegion("f", imp); err != nil {
		fw.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := fw.Start(); err != nil {
		fw.Close()
		return nil, 0, err
	}
	return fw, time.Since(start), nil
}

// setupTimes repeats fresh set-ups (New through Start, then Close) and
// returns each one's total and Start durations.
func setupTimes(s spec, reps int) (total, start []time.Duration, err error) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fw, st, err := setUp(s, transport.NewMemNetwork())
		if err != nil {
			return nil, nil, err
		}
		total = append(total, time.Since(t0))
		start = append(start, st)
		if err := fw.Close(); err != nil {
			return nil, nil, err
		}
	}
	return total, start, nil
}

// Exported cell values encode (seed salt, export timestamp, global cell) as
// one exactly representable integer: salt<<42 | ts<<20 | cell. Cells need
// n <= 1024 and timestamps below 2^22.
const (
	tsShift   = 20
	saltShift = 42
)

// saltOf derives the 10-bit value salt from the seed (splitmix64 finalizer).
func saltOf(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & 1023
}

// fill writes the encoded values of version ts into a block of an n-wide
// region.
func fill(dst []float64, block decomp.Rect, n int, salt uint64, ts int) {
	base := float64(salt<<saltShift | uint64(ts)<<tsShift)
	i := 0
	for r := block.R0; r < block.R1; r++ {
		row := base + float64(r*n)
		for c := block.C0; c < block.C1; c++ {
			dst[i] = row + float64(c)
			i++
		}
	}
}

// cellsOK reports whether got holds exactly version ts of the block.
func cellsOK(got []float64, block decomp.Rect, n int, salt uint64, ts int) bool {
	base := float64(salt<<saltShift | uint64(ts)<<tsShift)
	i := 0
	for r := block.R0; r < block.R1; r++ {
		row := base + float64(r*n)
		for c := block.C0; c < block.C1; c++ {
			if got[i] != row+float64(c) {
				return false
			}
			i++
		}
	}
	return true
}

// forcingScale maps encoded values (< 2^52) into [0, 1) exactly, so the
// solver's forcing stays small and the reference sees identical inputs.
const forcingScale = -52

// gate is the closed loop between F and U within one session.
type gate struct {
	mu        sync.Mutex
	cond      *sync.Cond
	window    int
	done      []int // cycles completed per U rank
	completed int   // cycles completed on every U rank
	aborted   bool
}

func newGate(window, ranks int) *gate {
	g := &gate{window: window, done: make([]int, ranks)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// admitExport blocks until F may start cycle c; false means the session
// was aborted.
func (g *gate) admitExport(c int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.completed < c-g.window && !g.aborted {
		g.cond.Wait()
	}
	return !g.aborted
}

// complete records that a U rank finished cycle c. It returns the cycle
// every U rank has now completed when this call advanced it, else 0; since
// the slowest rank advances it one cycle at a time, exactly one caller sees
// each value.
func (g *gate) complete(rank, c int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done[rank] = c
	low := c
	for _, d := range g.done {
		low = min(low, d)
	}
	if low <= g.completed {
		return 0
	}
	g.completed = low
	g.cond.Broadcast()
	return low
}

func (g *gate) abort() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.aborted = true
	g.cond.Broadcast()
}

func (g *gate) isAborted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.aborted
}

// exporterRec is what one F rank records, indexed by export (exportNs) or
// cycle (gateNs). Only its own goroutine writes it during the session.
type exporterRec struct {
	exportNs     []int64
	gateNs       []int64
	peakBuffered int64 // traced only
}

// importerRec is what one U rank records, indexed by cycle.
type importerRec struct {
	importNs          []int64
	attempted, failed int
	firstFailure      string
	norm              float64 // solver: L2 norm after the last step
	stepNs, normNs    int64   // traced solver: time in Step and in L2Norm
}

// snap is the process state at one edge of a session's measured cycles.
type snap struct {
	at                  time.Time
	cpu                 time.Duration
	mallocs, allocBytes uint64
	// traced only
	net     netCounts
	slow    core.ConnStats
	ctlMsgs uint64
}

// session is one fresh coupling run for exactly spec.cycles cycles. Its
// measured part spans the completion of cycle spec.warmCycles to that of
// the last cycle. Sessions have a fixed length because the runtime's
// per-export cost grows with the requests a connection has seen, so a
// time-bounded run would price a history whose length depends on the
// machine's speed.
type session struct {
	spec         spec
	salt         uint64
	traced       bool
	net          *countingNet // traced only
	progF, progU *core.Program
	exp          [procs]exporterRec
	imp          [procs]importerRec
	from, to     snap
}

// runSession sets up the workload, runs its cycles with both programs and
// tears the coupling down.
func runSession(s spec, salt uint64, traced bool) (*session, error) {
	var net transport.Network = transport.NewMemNetwork()
	var cnet *countingNet
	if traced {
		cnet = newCountingNet(net)
		net = cnet
	}
	fw, _, err := setUp(s, net)
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	_, impLayout, err := s.layouts()
	if err != nil {
		return nil, err
	}
	sess := &session{spec: s, salt: salt, traced: traced, net: cnet,
		progF: fw.MustProgram("F"), progU: fw.MustProgram("U")}
	g := newGate(s.window, procs)
	errs := make(chan error, 2*procs)
	fail := func(err error) {
		errs <- err
		g.abort()
		fw.Close() // unblocks Export/Import calls on the other ranks
	}
	var wg sync.WaitGroup
	for r := 0; r < procs; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			if err := sess.exporter(sess.progF.Process(r), r, g); err != nil {
				fail(fmt.Errorf("%s: F rank %d: %w", s.name, r, err))
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			if err := sess.importer(sess.progU.Process(r), r, g, impLayout); err != nil {
				fail(fmt.Errorf("%s: U rank %d: %w", s.name, r, err))
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	if err := fw.Err(); err != nil {
		return nil, err
	}
	// Drop the framework so a kept session does not pin its buffers.
	sess.progF, sess.progU = nil, nil
	return sess, fw.Close()
}

func (sess *session) snapshot() snap {
	var ms runtime.MemStats
	sn := snap{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&ms)
	sn.mallocs, sn.allocBytes = ms.Mallocs, ms.TotalAlloc
	if !sess.traced {
		return sn
	}
	sn.net = sess.net.counts()
	if st, err := sess.progF.Process(slowRank).ExportStats("f"); err == nil {
		sn.slow = st["U.f"]
	}
	for _, p := range []*core.Program{sess.progF, sess.progU} {
		ps := p.ProtocolStats()
		sn.ctlMsgs += ps.ImportCalls + ps.RequestsForwarded + ps.Responses +
			ps.AnswersSent + ps.AnswersDelivered + ps.BuddyMessages
	}
	return sn
}

func (sess *session) exporter(p *core.Process, r int, g *gate) error {
	s := sess.spec
	block, err := p.Block("f")
	if err != nil {
		return err
	}
	data := make([]float64, block.Area())
	pause := s.fastSleep
	if r == slowRank {
		pause = s.slowSleep
	}
	rec := &sess.exp[r]
	for c := 1; c <= s.cycles; c++ {
		t0 := time.Now()
		admitted := g.admitExport(c)
		rec.gateNs = append(rec.gateNs, int64(time.Since(t0)))
		if !admitted {
			return nil
		}
		for e := 0; e < s.exportsPerCycle; e++ {
			ts := (c-1)*s.exportsPerCycle + e + 1
			if pause > 0 {
				time.Sleep(pause)
			}
			fill(data, block, s.n, sess.salt, ts)
			t := time.Now()
			if err := p.Export("f", float64(ts), data); err != nil {
				return err
			}
			rec.exportNs = append(rec.exportNs, int64(time.Since(t)))
			if sess.traced {
				if b, err := p.BufferedBytes("f"); err == nil && b > rec.peakBuffered {
					rec.peakBuffered = b
				}
			}
		}
	}
	return p.FinishRegion("f")
}

func (sess *session) importer(p *core.Process, r int, g *gate, layout decomp.RowBlock) error {
	s := sess.spec
	block, err := p.Block("f")
	if err != nil {
		return err
	}
	dst := make([]float64, block.Area())
	var solver *sim.HeatSolver
	var forcing []float64
	if s.solverSteps > 0 {
		if solver, err = sim.NewHeatSolver(p.Comm(), layout, r, 0); err != nil {
			return err
		}
		forcing = make([]float64, block.Area())
	}
	rec := &sess.imp[r]
	for c := 1; c <= s.cycles && !g.isAborted(); c++ {
		want := c * s.exportsPerCycle
		t := time.Now()
		res, err := p.Import("f", float64(want), dst)
		rec.importNs = append(rec.importNs, int64(time.Since(t)))
		rec.attempted++
		if err != nil {
			rec.failed++
			return fmt.Errorf("import %d: %w", c, err)
		}
		if !res.Matched || res.MatchTS != float64(want) || !cellsOK(dst, block, s.n, sess.salt, want) {
			rec.failed++
			if rec.firstFailure == "" {
				rec.firstFailure = fmt.Sprintf("U rank %d cycle %d: matched=%v MatchTS=%g, want D@%d with its cells",
					r, c, res.Matched, res.MatchTS, want)
			}
		}
		if solver != nil {
			for i, v := range dst {
				forcing[i] = math.Ldexp(v, forcingScale)
			}
			if err := solver.SetForcing(forcing); err != nil {
				return err
			}
			for k := 0; k < s.solverSteps; k++ {
				t0 := time.Now()
				if err := solver.Step(); err != nil {
					return err
				}
				t1 := time.Now()
				if rec.norm, err = solver.L2Norm(); err != nil {
					return err
				}
				if sess.traced {
					rec.stepNs += int64(t1.Sub(t0))
					rec.normNs += int64(time.Since(t1))
				}
			}
		}
		switch g.complete(r, c) {
		case s.warmCycles:
			sess.from = sess.snapshot()
		case s.cycles:
			sess.to = sess.snapshot()
		}
	}
	return nil
}

// referenceNorm replays a session's forcing sequence on a single-rank
// solver and returns its final L2 norm, which every coupled session of the
// same seed must reproduce.
func referenceNorm(s spec, salt uint64) (float64, error) {
	layout, err := decomp.NewRowBlock(s.n, s.n, 1)
	if err != nil {
		return 0, err
	}
	ref, err := sim.NewHeatSolver(nil, layout, 0, 0)
	if err != nil {
		return 0, err
	}
	full := decomp.NewRect(0, 0, s.n, s.n)
	forcing := make([]float64, s.n*s.n)
	for c := 1; c <= s.cycles; c++ {
		fill(forcing, full, s.n, salt, c*s.exportsPerCycle)
		for i, v := range forcing {
			forcing[i] = math.Ldexp(v, forcingScale)
		}
		if err := ref.SetForcing(forcing); err != nil {
			return 0, err
		}
		for k := 0; k < s.solverSteps; k++ {
			if err := ref.Step(); err != nil {
				return 0, err
			}
		}
	}
	return ref.L2Norm()
}
