// Command perfledger is the repository's coupling benchmark. It drives a
// closed-loop F-to-U coupling through core's public API (New, DefineRegion,
// Start, Export, Import, FinishRegion) over the in-memory transport, checks
// every import, and prints the end-to-end metrics of one workload; with
// --trace 1 it prints instead the per-layer ledger of a traced run. See
// README.md for the workloads and what each metric should move.
//
// Usage, from the repository root:
//
//	bash perfledger/run.sh --workload control --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 when every check passed, 1 when a check failed and 2
// when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// setupsPerSession is how many fresh set-ups are timed before each
// session. Spreading them over the run, rather than timing them in one
// burst, lets their median ride out the machine's slower phases the way
// the session medians do. The process's first set-up is cold and reported
// on its own.
const setupsPerSession = 5

// result is one workload's measurement.
type result struct {
	workload          string
	salt              uint64
	refNorm           float64 // solver: the single-rank reference's final norm
	setups, starts    []time.Duration
	metrics           []metric
	attempted, failed int
	problems          []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// minSessions is the fewest measured sessions a run reports medians over.
const minSessions = 3

// measure runs one workload: fresh sessions back to back, the first one
// to warm up and the rest measured for the given time. Untraced, it
// returns the end-to-end metrics. Traced, it alternates untraced and traced
// sessions, so the tracing overhead is not confounded with the machine's
// drift, adds the replay rows, and returns the per-layer ledger.
func measure(s spec, seed int64, seconds time.Duration, traced bool) (*result, error) {
	res := &result{workload: s.name, salt: saltOf(seed)}
	var err error
	if s.solverSteps > 0 {
		if res.refNorm, err = referenceNorm(s, res.salt); err != nil {
			return nil, err
		}
	}
	if !traced {
		sessions, err := res.sessions(s, seconds, false)
		if err != nil {
			return nil, err
		}
		res.metrics = endToEnd(sessions[0], res.setups, res.attempted, res.failed)
		return res, nil
	}
	sessions, err := res.sessions(s, seconds, false, true)
	if err != nil {
		return nil, err
	}
	var replays []replayResult
	for _, row := range replayRows {
		rr, err := runReplay(row, s)
		if err != nil {
			return nil, err
		}
		replays = append(replays, rr)
	}
	res.metrics = perLayer(sessions[0], sessions[1], res.setups, res.starts, replays)
	return res, nil
}

// sessions runs one untraced warm-up session, then measured sessions that
// cycle through the given tracing modes until the given time has passed
// and every mode has at least minSessions. It times fresh set-ups before
// each session and checks every session's imports. The result holds the
// measured sessions of each mode, in the order of modes.
func (res *result) sessions(s spec, seconds time.Duration, modes ...bool) ([][]*session, error) {
	out := make([][]*session, len(modes))
	start := time.Now()
	for k := -1; k < 0 || len(out[len(modes)-1]) < minSessions || time.Since(start) < seconds; k++ {
		totals, starts, err := setupTimes(s, setupsPerSession)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		res.setups = append(res.setups, totals...)
		res.starts = append(res.starts, starts...)
		// Start every session from a collected heap, so one session's
		// garbage neither slows the next nor inflates its peak memory.
		runtime.GC()
		traced := k >= 0 && modes[k%len(modes)]
		sess, err := runSession(s, res.salt, traced)
		if err != nil {
			return nil, err
		}
		res.check(sess)
		if k < 0 {
			start = time.Now()
		} else {
			out[k%len(modes)] = append(out[k%len(modes)], sess)
		}
	}
	return out, nil
}

// check adds a session's import outcomes to the result and, for the
// solver, compares the coupled solution's final norm with the single-rank
// reference fed the same forcing sequence; a mismatch counts as a failure.
func (res *result) check(sess *session) {
	for r, rec := range sess.imp {
		res.attempted += rec.attempted
		res.failed += rec.failed
		if rec.firstFailure != "" {
			res.problems = append(res.problems, rec.firstFailure)
		}
		if sess.spec.solverSteps == 0 {
			continue
		}
		if got, want := rec.norm, res.refNorm; math.Abs(got-want) > 1e-12*math.Abs(want) {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf(
				"solver: U rank %d final norm %.17g, single-rank reference %.17g", r, got, want))
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric with its unit and sample count, then the JSON
// result line. With several results, metric names get the workload prefix.
func report(out io.Writer, results []*result) (bool, error) {
	jr := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		for _, m := range res.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return false, fmt.Errorf("%s: metric %s is %g", res.workload, m.name, m.value)
			}
			fmt.Fprintf(out, "%-8s %-38s %16.6f %-5s n=%d\n", res.workload, m.name, m.value, m.unit, m.n)
			name := m.name
			if len(results) > 1 {
				name = res.workload + "." + name
			}
			jr.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		for _, p := range res.problems {
			fmt.Fprintf(out, "%-8s FAILED %s\n", res.workload, p)
		}
		jr.Attempted += res.attempted
		jr.Failed += res.failed
		jr.Correct = jr.Correct && res.correct()
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return jr.Correct, nil
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	name := fs.String("workload", "", "control, bulk, buddy, solver or all")
	seed := fs.Int64("seed", 1, "seed of the exported field values")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var specs []spec
	if *name == "all" {
		specs = workloads
	} else if s, ok := workloadByName(*name); ok {
		specs = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "perfledger: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfledger: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	// A hung coupling must not outlive the harness's deadline.
	limit := time.Duration(len(specs)) * (time.Duration(*seconds*float64(time.Second)) + 150*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "perfledger: run exceeded", limit)
		os.Exit(2)
	})
	defer watchdog.Stop()

	var results []*result
	for _, s := range specs {
		res, err := measure(s, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfledger:", err)
			return 2
		}
		results = append(results, res)
	}
	ok, err := report(out, results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
