package main

import (
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run noise measure the ledger reports beside every replay row.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// usec converts nanoseconds to microseconds.
func usec(ns float64) float64 { return ns / 1e3 }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
