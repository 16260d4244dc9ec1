package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/collective"
	"repro/internal/decomp"
	"repro/internal/match"
	"repro/internal/rep"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A replay row prices one layer from outside: it calls the layer's public
// functions on inputs shaped by the workload, in batches, and reports the
// median per-op time over batches, allocations per op and the batches'
// spread. Rows run only in the traced pass.
type replayRow struct {
	name  string  // metric name of the per-op time, e.g. "match.evaluate_ns"
	base  string  // prefix of the row's allocs and spread metrics
	scale float64 // nanoseconds per reported unit (1 for ns, 1e3 for us)
	unit  string
	// prepare builds the row's inputs and returns the op; ops must be
	// repeatable without end. cleanup, when non-nil, runs after the row.
	prepare func(s spec) (op func() error, cleanup func(), err error)
}

// replayBatches is the number of timed batches per row; replayBatchTarget
// the wall time each batch aims at.
const (
	replayBatches     = 15
	replayBatchTarget = 10 * time.Millisecond
)

var replayRows = []replayRow{
	{name: "wire.ctl_roundtrip_ns", base: "wire.ctl_roundtrip", scale: 1, unit: "ns", prepare: prepCtlRoundTrip},
	{name: "wire.floats_encode_us", base: "wire.floats_encode", scale: 1e3, unit: "us", prepare: prepFloatsEncode},
	{name: "wire.floats_decode_us", base: "wire.floats_decode", scale: 1e3, unit: "us", prepare: prepFloatsDecode},
	{name: "buffer.offer_copy_us", base: "buffer.offer_copy", scale: 1e3, unit: "us", prepare: prepOfferCopy},
	{name: "buffer.offer_skip_ns", base: "buffer.offer_skip", scale: 1, unit: "ns", prepare: prepOfferSkip},
	{name: "match.evaluate_ns", base: "match.evaluate", scale: 1, unit: "ns", prepare: prepEvaluate},
	{name: "rep.aggregate_ns", base: "rep.aggregate", scale: 1, unit: "ns", prepare: prepAggregate},
	{name: "decomp.pack_us", base: "decomp.pack", scale: 1e3, unit: "us", prepare: prepPack},
	{name: "decomp.unpack_us", base: "decomp.unpack", scale: 1e3, unit: "us", prepare: prepUnpack},
	{name: "collective.allreduce_scalar_us_p50", base: "collective.allreduce_scalar", scale: 1e3, unit: "us", prepare: prepAllReduce},
	{name: "collective.halo_us_p50", base: "collective.halo", scale: 1e3, unit: "us", prepare: prepHalo},
	{name: "sim.step_us", base: "sim.step", scale: 1e3, unit: "us", prepare: prepStep},
}

// replayResult is one row's measurement.
type replayResult struct {
	row         replayRow
	perOp       float64 // in row.unit
	allocsPerOp float64
	spread      float64
}

// runReplay measures one row: it calibrates the batch size to
// replayBatchTarget, then times replayBatches batches.
func runReplay(row replayRow, s spec) (replayResult, error) {
	op, cleanup, err := row.prepare(s)
	if err != nil {
		return replayResult{}, fmt.Errorf("%s: %w", row.name, err)
	}
	if cleanup != nil {
		defer cleanup()
	}
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return replayResult{}, fmt.Errorf("%s: %w", row.name, err)
			}
		}
		if d := time.Since(t0); d >= replayBatchTarget/4 || batch >= 1<<20 {
			if d > 0 {
				batch = max(1, int(float64(batch)*float64(replayBatchTarget)/float64(d)))
			}
			break
		}
		batch *= 4
	}
	perOp := make([]float64, 0, replayBatches)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for b := 0; b < replayBatches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return replayResult{}, fmt.Errorf("%s: %w", row.name, err)
			}
		}
		perOp = append(perOp, float64(time.Since(t0))/float64(batch))
	}
	runtime.ReadMemStats(&ms1)
	ops := float64(batch * replayBatches)
	return replayResult{
		row:         row,
		perOp:       median(perOp) / row.scale,
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / ops,
		spread:      spread(perOp),
	}, nil
}

// ctlProxy has the shape of the runtime's (unexported) response message, so
// its gob round trip stands in for one control message's codec cost.
type ctlProxy struct {
	Conn    string
	ReqID   int
	ReqTS   float64
	Rank    int
	Result  match.Result
	MatchTS float64
	Latest  float64
}

func prepCtlRoundTrip(s spec) (func() error, func(), error) {
	msg := ctlProxy{Conn: "F.f>U.f", ReqID: 41, ReqTS: float64(41 * s.exportsPerCycle),
		Rank: slowRank, Result: match.Match, MatchTS: float64(41 * s.exportsPerCycle), Latest: float64(42 * s.exportsPerCycle)}
	return func() error {
		b, err := wire.Marshal(msg)
		if err != nil {
			return err
		}
		var out ctlProxy
		if err := wire.Unmarshal(b, &out); err != nil {
			return err
		}
		if out != msg {
			return fmt.Errorf("round trip changed the message")
		}
		return nil
	}, nil, nil
}

// piece returns the values of the workload's largest transfer: one data
// piece of the F-to-U schedule.
func piece(s spec) ([]float64, decomp.Rect, error) {
	plan, err := plan(s)
	if err != nil {
		return nil, decomp.Rect{}, err
	}
	big := plan[0].Sub
	for _, t := range plan {
		if t.Sub.Area() > big.Area() {
			big = t.Sub
		}
	}
	vals := make([]float64, big.Area())
	fill(vals, big, s.n, saltOf(1), 1)
	return vals, big, nil
}

func plan(s spec) ([]decomp.Transfer, error) {
	exp, imp, err := s.layouts()
	if err != nil {
		return nil, err
	}
	return decomp.FullSchedule(exp, imp)
}

func prepFloatsEncode(s spec) (func() error, func(), error) {
	vals, _, err := piece(s)
	if err != nil {
		return nil, nil, err
	}
	return func() error {
		if b := wire.EncodeFloat64s(vals); len(b) != wire.Float64sSize(len(vals)) {
			return fmt.Errorf("encoded %d bytes", len(b))
		}
		return nil
	}, nil, nil
}

func prepFloatsDecode(s spec) (func() error, func(), error) {
	vals, _, err := piece(s)
	if err != nil {
		return nil, nil, err
	}
	b := wire.EncodeFloat64s(vals)
	out := make([]float64, len(vals))
	return func() error { return wire.DecodeFloat64sInto(b, out) }, nil, nil
}

// offerReplay holds a buffer manager replaying Offer on p_s's block. The
// manager is renewed every offerBatch requests so its request history, and
// with it the cost of each Offer, stays at a fixed size.
type offerReplay struct {
	s    spec
	data []float64
	pool *buffer.Pool
	mgr  *buffer.Manager
	ts   int
	n    int
}

const offerBatch = 64

func newOfferReplay(s spec) (*offerReplay, error) {
	exp, _, err := s.layouts()
	if err != nil {
		return nil, err
	}
	block := exp.Block(slowRank)
	o := &offerReplay{s: s, data: make([]float64, block.Area()), pool: buffer.NewPool(0)}
	fill(o.data, block, s.n, saltOf(1), 1)
	return o, nil
}

func (o *offerReplay) renew() error {
	mgr, err := buffer.NewManager(buffer.Config{Policy: match.REGL, Tol: o.s.tol, Pool: o.pool})
	if err != nil {
		return err
	}
	o.mgr, o.ts, o.n = mgr, 0, 0
	return nil
}

// prepOfferCopy replays the copy path: an exact-hit request arrives before
// its export, so Offer buffers (copies) the version and hands it out; the
// transfer then completes.
func prepOfferCopy(s spec) (func() error, func(), error) {
	o, err := newOfferReplay(s)
	if err != nil {
		return nil, nil, err
	}
	return func() error {
		if o.mgr == nil || o.n == offerBatch {
			if err := o.renew(); err != nil {
				return err
			}
		}
		o.n++
		o.ts += s.exportsPerCycle
		x := float64(o.ts)
		if _, err := o.mgr.OnRequest(x); err != nil {
			return err
		}
		res, err := o.mgr.Offer(x, o.data)
		if err != nil {
			return err
		}
		if !res.Buffered || len(res.Sends) != 1 {
			return fmt.Errorf("copy path not taken at D@%g", x)
		}
		o.mgr.TransferDone(x)
		return nil
	}, nil, nil
}

// prepOfferSkip replays the skip path: a request far ahead is known, so
// versions below its acceptable region are not needed and Offer skips them.
func prepOfferSkip(s spec) (func() error, func(), error) {
	o, err := newOfferReplay(s)
	if err != nil {
		return nil, nil, err
	}
	const ahead = 1 << 30
	return func() error {
		if o.mgr == nil || o.n == 1<<16 {
			if err := o.renew(); err != nil {
				return err
			}
			if _, err := o.mgr.OnRequest(ahead); err != nil {
				return err
			}
		}
		o.n++
		o.ts++
		res, err := o.mgr.Offer(float64(o.ts), o.data)
		if err != nil {
			return err
		}
		if res.Buffered {
			return fmt.Errorf("skip path not taken at D@%d", o.ts)
		}
		return nil
	}, nil, nil
}

// prepEvaluate evaluates the workload's request timestamps against a
// matcher holding a run's worth of exports.
func prepEvaluate(s spec) (func() error, func(), error) {
	m, err := match.New(match.REGL, s.tol)
	if err != nil {
		return nil, nil, err
	}
	const cycles = 1024
	for ts := 1; ts <= cycles*s.exportsPerCycle; ts++ {
		if err := m.AddExport(float64(ts)); err != nil {
			return nil, nil, err
		}
	}
	c := 0
	return func() error {
		c = c%cycles + 1
		x := float64(c * s.exportsPerCycle)
		if d := m.Evaluate(x); d.Result != match.Match || d.MatchTS != x {
			return fmt.Errorf("evaluate D@%g gave %v", x, d)
		}
		return nil
	}, nil, nil
}

// prepAggregate forms one request's collective answer from both F ranks'
// responses. On buddy, p_s answers PENDING first, as it does in the run.
func prepAggregate(s spec) (func() error, func(), error) {
	x := 0
	return func() error {
		x += s.exportsPerCycle
		ts := float64(x)
		req := rep.NewRequest(ts, procs)
		if s.slowSleep > s.fastSleep {
			if _, err := req.Add(rep.Response{Rank: slowRank, Result: match.Pending, Latest: ts - 1}); err != nil {
				return err
			}
		}
		for r := 0; r < procs; r++ {
			if _, err := req.Add(rep.Response{Rank: r, Result: match.Match, MatchTS: ts, Latest: ts}); err != nil {
				return err
			}
		}
		if !req.Decided() || req.Final().MatchTS != ts {
			return fmt.Errorf("request D@%g not decided", ts)
		}
		return nil
	}, nil, nil
}

// prepPack packs every transfer of the workload's schedule out of the F
// blocks: one cycle's worth of M-by-N repacking on the sending side.
func prepPack(s spec) (func() error, func(), error) {
	exp, _, err := s.layouts()
	if err != nil {
		return nil, nil, err
	}
	transfers, err := plan(s)
	if err != nil {
		return nil, nil, err
	}
	grids := make([]*decomp.Grid, procs)
	for r := range grids {
		grids[r] = decomp.NewGridFor(exp, r)
		fill(grids[r].Data, grids[r].Block, s.n, saltOf(1), 1)
	}
	bufs := make([][]float64, len(transfers))
	for i, t := range transfers {
		bufs[i] = make([]float64, t.Sub.Area())
	}
	return func() error {
		for i, t := range transfers {
			grids[t.From].PackInto(t.Sub, bufs[i])
		}
		return nil
	}, nil, nil
}

// prepUnpack unpacks every transfer of the schedule into the U blocks.
func prepUnpack(s spec) (func() error, func(), error) {
	_, imp, err := s.layouts()
	if err != nil {
		return nil, nil, err
	}
	transfers, err := plan(s)
	if err != nil {
		return nil, nil, err
	}
	grids := make([]*decomp.Grid, procs)
	for r := range grids {
		grids[r] = decomp.NewGridFor(imp, r)
	}
	bufs := make([][]float64, len(transfers))
	for i, t := range transfers {
		bufs[i] = make([]float64, t.Sub.Area())
		fill(bufs[i], t.Sub, s.n, saltOf(1), 1)
	}
	return func() error {
		for i, t := range transfers {
			if err := grids[t.To].Unpack(t.Sub, bufs[i]); err != nil {
				return err
			}
		}
		return nil
	}, nil, nil
}

// pair is a two-rank collective group on its own in-memory network. Rank 1
// runs in a goroutine that mirrors every op rank 0 starts.
type pair struct {
	net   *transport.MemNetwork
	comms [procs]*collective.Comm
	ops   chan func(*collective.Comm) error
	errs  chan error
	done  chan struct{}
}

func newPair() (*pair, error) {
	p := &pair{
		net:  transport.NewMemNetwork(),
		ops:  make(chan func(*collective.Comm) error),
		errs: make(chan error, 1),
		done: make(chan struct{}),
	}
	for r := 0; r < procs; r++ {
		ep, err := p.net.Register(transport.Proc("R", r))
		if err != nil {
			p.net.Close()
			return nil, err
		}
		if p.comms[r], err = collective.New(transport.NewDispatcher(ep), "R", r, procs); err != nil {
			p.net.Close()
			return nil, err
		}
	}
	go func() {
		defer close(p.done)
		for op := range p.ops {
			p.errs <- op(p.comms[1])
		}
	}()
	return p, nil
}

// run executes op on both ranks and waits for both.
func (p *pair) run(op func(*collective.Comm) error) error {
	p.ops <- op
	err0 := op(p.comms[0])
	err1 := <-p.errs
	if err0 != nil {
		return err0
	}
	return err1
}

func (p *pair) close() {
	close(p.ops)
	<-p.done
	p.net.Close()
}

func prepAllReduce(s spec) (func() error, func(), error) {
	p, err := newPair()
	if err != nil {
		return nil, nil, err
	}
	op := func(c *collective.Comm) error {
		v, err := c.AllReduceScalar(float64(c.Rank()+1), collective.Sum)
		if err == nil && v != 3 {
			err = fmt.Errorf("allreduce gave %g", v)
		}
		return err
	}
	return func() error { return p.run(op) }, p.close, nil
}

// prepHalo swaps one row of the workload's width between the two ranks, as
// the heat solver's halo exchange does.
func prepHalo(s spec) (func() error, func(), error) {
	p, err := newPair()
	if err != nil {
		return nil, nil, err
	}
	rows := [procs][]float64{make([]float64, s.n), make([]float64, s.n)}
	op := func(c *collective.Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		if err := c.Send(peer, "halo", wire.EncodeFloat64s(rows[me])); err != nil {
			return err
		}
		b, err := c.Recv(peer, "halo")
		if err != nil {
			return err
		}
		return wire.DecodeFloat64sInto(b, rows[me])
	}
	return func() error { return p.run(op) }, p.close, nil
}

// prepStep is the plain serial baseline: one single-rank heat step on the
// workload's whole grid.
func prepStep(s spec) (func() error, func(), error) {
	layout, err := decomp.NewRowBlock(s.n, s.n, 1)
	if err != nil {
		return nil, nil, err
	}
	solver, err := sim.NewHeatSolver(nil, layout, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	return solver.Step, nil, nil
}
