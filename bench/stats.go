package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile. With fewer, the "percentile" is one or two samples and
// moves with every run.
const minBeyond = 10

// tailLadder lists the tail percentiles tried, highest first.
var tailLadder = []float64{99.9, 99, 90}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs. A
// percentile above the median is refused (ok false) unless at least
// minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	// The epsilon keeps 99.9·n/100 from rounding up past an exact rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if p > 50 && n-rank < minBeyond {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

// tail returns the highest percentile of tailLadder that percentile
// accepts for xs.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// dist is a timing summary as the report file records it: the median,
// the sample count, and the highest percentile the sample supports.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_pct,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), Median: median(xs)}
	if p, v, ok := tail(xs); ok {
		d.TailP, d.Tail = p, v
	}
	return d
}
