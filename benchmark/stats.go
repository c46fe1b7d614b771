package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks (the "inclusive" method: p=0 is the
// minimum, p=100 the maximum). It returns 0 for an empty slice and does not
// modify values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

// tailCandidates are the percentiles a report may quote, lowest first.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile is the reporting rule of the choosing-metrics guide: the
// highest candidate percentile that still has at least ten samples beyond
// it. It returns 0 when even the median has fewer (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		// Samples strictly beyond the p-th percentile: n × (1 − p/100). The
		// small epsilon keeps 200 × 0.05 from rounding to 9.999….
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the default "exclusive" method:
// position i·(n+1)/4, clamped to the data range). The benchmark contract
// judges run-to-run spread with exactly this definition.
func quartiles(values []float64) (q1, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run steadiness measure the benchmark's bounds are compared with.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return math.Abs(q3-q1) / math.Abs(m)
}

// interval is a span's [start, end) in seconds on any common clock.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap one another (concurrent work) and may stick out of
// the parent (clock skew, late End); only their union clipped to the parent
// is subtracted.
func selfTime(parent interval, children []interval) float64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = math.Max(c.start, parent.start)
		c.end = math.Min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	covered, edge := 0.0, parent.start
	for _, c := range clipped {
		if c.end <= edge {
			continue
		}
		covered += c.end - math.Max(c.start, edge)
		edge = c.end
	}
	return total - covered
}
