package main

import (
	"math"
	"time"
)

// metric is one named figure of the ledger.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// measured returns the number of measured cycles and their duration.
func (sess *session) measured() (int, time.Duration) {
	return sess.spec.cycles - sess.spec.warmCycles, sess.to.at.Sub(sess.from.at)
}

// perCycle divides a session total by its measured cycles.
func (sess *session) perCycle(x float64) float64 {
	n, _ := sess.measured()
	return x / float64(n)
}

// importLatencies returns the U ranks' Import times (ns) of the measured
// cycles.
func (sess *session) importLatencies() []float64 {
	var out []float64
	for _, rec := range sess.imp {
		for _, ns := range rec.importNs[sess.spec.warmCycles:] {
			out = append(out, float64(ns))
		}
	}
	return out
}

// exportTimes returns, per F rank, the Export times (ns) of the measured
// cycles.
func (sess *session) exportTimes() [procs][]float64 {
	var out [procs][]float64
	for r, rec := range sess.exp {
		for _, ns := range rec.exportNs[sess.spec.warmCycles*sess.spec.exportsPerCycle:] {
			out[r] = append(out[r], float64(ns))
		}
	}
	return out
}

// sendTimes returns the transport Send times (ns) of the measured cycles
// of a traced session.
func (sess *session) sendTimes() []float64 {
	return sess.net.sendTimes(sess.from.net.marks, sess.to.net.marks)
}

// rate returns the session's measured cycles per second.
func (sess *session) rate() float64 {
	n, d := sess.measured()
	return float64(n) / d.Seconds()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// across returns the median over sessions of f.
func across(sessions []*session, f func(*session) float64) float64 {
	xs := make([]float64, 0, len(sessions))
	for _, sess := range sessions {
		xs = append(xs, f(sess))
	}
	return median(xs)
}

// counts returns the measured cycles and import-latency samples of a set
// of sessions.
func counts(sessions []*session) (cycles, imports int) {
	for _, sess := range sessions {
		n, _ := sess.measured()
		cycles += n
		imports += procs * n
	}
	return cycles, imports
}

// endToEnd computes the metrics a user of the coupling sees: medians over
// the measured untraced sessions, the set-up time, and the share of all
// imports that passed their checks.
func endToEnd(sessions []*session, setups []time.Duration, attempted, failed int) []metric {
	cycles, imports := counts(sessions)
	warm := make([]float64, 0, len(setups))
	for _, d := range setups[1:] {
		warm = append(warm, d.Seconds())
	}
	return []metric{
		{"cycles_per_s", across(sessions, (*session).rate), "1/s", cycles},
		{"import_us_p50", across(sessions, func(s *session) float64 {
			return usec(quantile(s.importLatencies(), 0.50))
		}), "us", imports},
		{"import_us_p95", across(sessions, func(s *session) float64 {
			return usec(quantile(s.importLatencies(), 0.95))
		}), "us", imports},
		{"export_us_per_cycle", across(sessions, func(s *session) float64 {
			slowest := 0.0
			for _, xs := range s.exportTimes() {
				slowest = math.Max(slowest, sum(xs))
			}
			return usec(s.perCycle(slowest))
		}), "us", cycles},
		{"cpu_ms_per_cycle", across(sessions, func(s *session) float64 {
			return s.perCycle(float64(s.to.cpu-s.from.cpu)) / 1e6
		}), "ms", cycles},
		{"allocs_per_cycle", across(sessions, func(s *session) float64 {
			return s.perCycle(float64(s.to.mallocs - s.from.mallocs))
		}), "count", cycles},
		{"alloc_kib_per_cycle", across(sessions, func(s *session) float64 {
			return s.perCycle(float64(s.to.allocBytes-s.from.allocBytes)) / 1024
		}), "KiB", cycles},
		{"peak_rss_mib", peakRSSMiB(), "MiB", 1},
		{"setup_s", median(warm), "s", len(warm)},
		{"import_ok_frac", float64(attempted-failed) / float64(attempted), "frac", attempted},
	}
}

// perLayer computes the ledger rows of the traced pass: medians over the
// traced sessions of their counters and spans, the cold and warm set-up
// costs, the replay rows, and the tracing overhead against the untraced
// sessions.
func perLayer(plain, traced []*session, setups, starts []time.Duration, replays []replayResult) []metric {
	s := traced[0].spec
	cycles, imports := counts(traced)
	warmStarts := make([]float64, 0, len(starts))
	for _, d := range starts[1:] {
		warmStarts = append(warmStarts, float64(d))
	}
	delta := func(f func(sn snap) float64) func(*session) float64 {
		return func(sess *session) float64 { return sess.perCycle(f(sess.to) - f(sess.from)) }
	}
	// wallShare is the share of the ranks' measured wall time spent in the
	// given per-rank totals.
	wallShare := func(sess *session, total float64) float64 {
		_, d := sess.measured()
		return total / (procs * float64(d))
	}
	cells := float64(s.solverSteps * s.n * s.n)
	sends := 0
	for _, sess := range traced {
		sends += len(sess.sendTimes())
	}

	out := []metric{
		{"core.export_us_p50", across(traced, func(sess *session) float64 {
			var xs []float64
			for _, e := range sess.exportTimes() {
				xs = append(xs, e...)
			}
			return usec(quantile(xs, 0.5))
		}), "us", cycles * s.exportsPerCycle * procs},
		{"core.export_stall_us_per_cycle", across(traced, delta(func(sn snap) float64 {
			return usec(float64(sn.slow.Pipeline.ExportStallNanos))
		})), "us", cycles},
		{"core.ctl_msgs_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.ctlMsgs) })), "count", cycles},
		{"core.setup_cold_ms", float64(setups[0]) / 1e6, "ms", 1},
		{"core.start_ms", median(warmStarts) / 1e6, "ms", len(warmStarts)},
		{"transport.msgs_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.net.msgs) })), "count", cycles},
		{"transport.ctl_bytes_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.net.ctlBytes) })), "B", cycles},
		{"transport.data_bytes_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.net.dataBytes) })), "B", cycles},
		{"transport.send_us_p50", across(traced, func(sess *session) float64 {
			return usec(quantile(sess.sendTimes(), 0.5))
		}), "us", sends},
		{"buffer.copies_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.slow.Copies) })), "count", cycles},
		{"buffer.skips_per_cycle", across(traced, delta(func(sn snap) float64 { return float64(sn.slow.Skips) })), "count", cycles},
		{"buffer.tub_us_per_cycle", across(traced, delta(func(sn snap) float64 {
			return usec(float64(sn.slow.UnnecessaryTime))
		})), "us", cycles},
		{"buffer.peak_buffered_mib", across(traced, func(sess *session) float64 {
			var peak int64
			for _, rec := range sess.exp {
				peak = max(peak, rec.peakBuffered)
			}
			return float64(peak) / (1 << 20)
		}), "MiB", len(traced)},
		{"sim.cell_updates_per_cycle", cells, "count", cycles},
		// Computed, not measured: each update streams the current value,
		// the forcing and the new value (neighbours come from cache).
		{"sim.bytes_per_cycle", cells * 3 * 8, "B", cycles},
		{"collective.solver_share", across(traced, func(sess *session) float64 {
			var step, norm int64
			for _, rec := range sess.imp {
				step += rec.stepNs
				norm += rec.normNs
			}
			if step+norm == 0 {
				return 0
			}
			return float64(norm) / float64(step+norm)
		}), "frac", cycles},
		{"app.import_wait_frac", across(traced, func(sess *session) float64 {
			return wallShare(sess, sum(sess.importLatencies()))
		}), "frac", imports},
		{"app.gate_wait_frac", across(traced, func(sess *session) float64 {
			total := 0.0
			for _, rec := range sess.exp {
				for _, ns := range rec.gateNs[s.warmCycles:] {
					total += float64(ns)
				}
			}
			return wallShare(sess, total)
		}), "frac", cycles},
		{"trace.overhead_frac", 1 - across(traced, (*session).rate)/across(plain, (*session).rate), "frac", len(plain) + len(traced)},
	}
	for _, r := range replays {
		allocsName := r.row.base + ".allocs_per_op"
		if r.row.base == "wire.ctl_roundtrip" {
			allocsName = "wire.ctl_allocs_per_msg"
		}
		out = append(out,
			metric{r.row.name, r.perOp, r.row.unit, replayBatches},
			metric{allocsName, r.allocsPerOp, "count", replayBatches},
			metric{r.row.base + ".spread", r.spread, "frac", replayBatches},
		)
	}
	return out
}
