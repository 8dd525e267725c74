package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") and numpy's default use. xs need
// not be sorted; it is not modified. 0 for an empty slice: a layer the
// workload never called.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// iqrPct is the distance between the first and third quartiles as a
// percentage of the median: the spread measure the benchmark's bounds use.
func iqrPct(xs []float64) float64 {
	med := percentile(xs, 50)
	if med == 0 {
		return 0
	}
	return 100 * (percentile(xs, 75) - percentile(xs, 25)) / med
}

// beyond counts the samples strictly above v, so a report can state how many
// ops lie past its p90.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// refRatio converts an op's host time into reference units: the op's time
// divided by the mean of the reference-kernel runs just before and just
// after it.
func refRatio(opNs, refBeforeNs, refAfterNs float64) float64 {
	return opNs / ((refBeforeNs + refAfterNs) / 2)
}

// perMillion scales a total to "per million events"; 0 when no events ran.
func perMillion(total float64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return total / (float64(events) / 1e6)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
