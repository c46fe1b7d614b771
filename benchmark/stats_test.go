package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40},
		{50, 25},   // rank 1.5
		{25, 17.5}, // rank 0.75
		{95, 38.5}, // rank 2.85
		{-5, 10}, {120, 40},
	}
	for _, c := range cases {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0},
		{20, 50}, {39, 50},
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates past both ends, as Python does
		{[]float64{2, 2, 2, 2}, 2, 2},
		{[]float64{9}, 9, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	// 1..10: IQR 5.5 over median 5.5.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{10, 20}
	cases := []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 10},
		{"one child", []interval{{12, 15}}, 7},
		{"disjoint children", []interval{{16, 18}, {11, 12}}, 7},
		{"overlapping children count once", []interval{{11, 15}, {13, 17}}, 4},
		{"nested child", []interval{{11, 19}, {12, 13}}, 2},
		{"child sticks out both ends", []interval{{5, 25}}, 0},
		{"child partly outside", []interval{{8, 12}, {19, 30}}, 7},
		{"child entirely outside", []interval{{0, 5}, {21, 22}}, 10},
		{"empty child", []interval{{14, 14}}, 10},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); !near(got, c.want) {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
	if got := selfTime(interval{5, 5}, []interval{{4, 6}}); got != 0 {
		t.Errorf("zero-length parent: selfTime = %v, want 0", got)
	}
}
