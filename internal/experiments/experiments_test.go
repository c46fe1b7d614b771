package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hoyan/internal/dsim"
	"hoyan/internal/gen"
)

func TestTable1ShapeHolds(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatal("two rows")
	}
	if rows[1].Routers <= rows[0].Routers || rows[1].Prefixes <= rows[0].Prefixes {
		t.Errorf("2024 must exceed 2017: %+v", rows)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "2024") {
		t.Error("print")
	}
}

func TestFig1ShapeHolds(t *testing.T) {
	// Time grows with prefix fraction on WAN; WAN+DCN hits the emulated
	// memory cliff above 30%. The points are single wall-clock measurements
	// of a now-fast engine, so a background spike (packages test in
	// parallel) can invert the shape — retry a couple of times before
	// calling it a failure.
	var wan []Fig1Point
	for attempt := 0; attempt < 3; attempt++ {
		pts := Fig1(QuickScale())
		wan = wan[:0]
		oomSeen := false
		for _, p := range pts {
			if p.Profile == "WAN" {
				wan = append(wan, p)
			} else if p.OOM {
				oomSeen = true
			}
		}
		if len(wan) != 4 {
			t.Fatalf("wan points = %d", len(wan))
		}
		if !oomSeen {
			t.Fatal("WAN+DCN must hit the emulated OOM cliff")
		}
		if wan[3].Elapsed >= wan[0].Elapsed {
			return
		}
		t.Logf("attempt %d: shape inverted (%v vs %v), retrying", attempt, wan[0].Elapsed, wan[3].Elapsed)
	}
	t.Errorf("time must grow with fraction: %v vs %v", wan[0].Elapsed, wan[3].Elapsed)
}

func TestFig5aSpeedupShape(t *testing.T) {
	s := QuickScale()
	s.WANK = 2
	r := Fig5a(s)
	var wan []Fig5Point
	for _, p := range r.Points {
		if p.Profile == "WAN" {
			wan = append(wan, p)
		}
	}
	if len(wan) != len(s.Workers) {
		t.Fatalf("points = %d", len(wan))
	}
	// The modelled makespan is non-increasing in the worker count, and the
	// max-worker point must show real speedup over one worker.
	for i := 1; i < len(wan); i++ {
		if wan[i].Elapsed > wan[i-1].Elapsed {
			t.Errorf("makespan increased: w=%d %v -> w=%d %v",
				wan[i-1].Workers, wan[i-1].Elapsed, wan[i].Workers, wan[i].Elapsed)
		}
	}
	if wan[len(wan)-1].Elapsed >= wan[0].Elapsed {
		t.Errorf("no speedup: 1w=%v maxw=%v", wan[0].Elapsed, wan[len(wan)-1].Elapsed)
	}
	if len(r.Durations) == 0 {
		t.Error("no subtask durations for fig5c")
	}
	var buf bytes.Buffer
	PrintFig5a(&buf, r)
	PrintFig5c(&buf, r.Durations)
	if !strings.Contains(buf.String(), "workers") {
		t.Error("print")
	}
}

func TestFig5bOrderingBeatsBaseline(t *testing.T) {
	s := QuickScale()
	s.WANK = 2
	r := Fig5b(s)
	// At max workers, the ordering heuristic must load fewer files than the
	// baseline (which loads all).
	ord := r.LoadedFiles[dsim.StrategyOrdered]
	base := r.LoadedFiles[dsim.StrategyBaseline]
	if len(ord) == 0 || len(base) == 0 {
		t.Fatalf("missing loaded-file data: %v", r.LoadedFiles)
	}
	sum := func(xs []int) int {
		total := 0
		for _, x := range xs {
			total += x
		}
		return total
	}
	if sum(ord) >= sum(base) {
		t.Errorf("ordering %d >= baseline %d files", sum(ord), sum(base))
	}
	// The baseline's extra I/O shows up as slower subtasks: at the max
	// worker count the baseline makespan must not beat the heuristic.
	var ordT, baseT time.Duration
	maxW := s.Workers[len(s.Workers)-1]
	for _, p := range r.Points {
		if p.Workers != maxW {
			continue
		}
		if p.Strategy == dsim.StrategyOrdered {
			ordT = p.Elapsed
		}
		if p.Strategy == dsim.StrategyBaseline {
			baseT = p.Elapsed
		}
	}
	if baseT < ordT {
		t.Errorf("baseline %v beat ordering %v", baseT, ordT)
	}
	var buf bytes.Buffer
	PrintFig5b(&buf, r)
	PrintFig5d(&buf, r)
	if !strings.Contains(buf.String(), "ordered") {
		t.Error("print")
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	r := Fig8(QuickScale())
	if len(r.Sizes) != 50 || len(r.Times) != 50 {
		t.Fatalf("corpus = %d/%d", len(r.Sizes), len(r.Times))
	}
	small := 0
	for _, s := range r.Sizes {
		if s < 15 {
			small++
		}
	}
	if float64(small)/50 < 0.9 {
		t.Errorf("only %d/50 specs below size 15", small)
	}
	for _, d := range r.Times {
		if d > time.Minute {
			t.Errorf("verification too slow: %v", d)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, r)
}

func TestECStatsReduction(t *testing.T) {
	r := ECStats(QuickScale())
	if r.RouteClasses >= r.RouteInputs {
		t.Errorf("route ECs must reduce: %d -> %d", r.RouteInputs, r.RouteClasses)
	}
	if r.FlowClasses >= r.FlowInputs {
		t.Errorf("flow ECs must reduce: %d -> %d", r.FlowInputs, r.FlowClasses)
	}
	var buf bytes.Buffer
	PrintECStats(&buf, r)
}

func TestTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table campaigns are slow")
	}
	t2 := Table2()
	for _, r := range t2 {
		if !r.Verified {
			t.Errorf("change type %s failed to verify", r.Type)
		}
	}
	t4 := Table4(QuickScale())
	for _, r := range t4 {
		if r.Detected != r.Injected {
			t.Errorf("table4 %s: %d/%d detected", r.Class, r.Detected, r.Injected)
		}
	}
	t5 := Table5()
	for _, r := range t5 {
		if !r.Detected {
			t.Errorf("table5 %s undetected", r.VSB)
		}
	}
	t6 := Table6()
	for _, r := range t6 {
		if r.Detected != r.Total {
			t.Errorf("table6 %s: %d/%d", r.Cause, r.Detected, r.Total)
		}
	}
	summary, err := Fig9()
	if err != nil || !strings.Contains(summary, "diverges at H2") {
		t.Errorf("fig9: %v %q", err, summary)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, t2)
	PrintTable3(&buf)
	PrintTable4(&buf, t4)
	PrintTable5(&buf, t5)
	PrintTable6(&buf, t6)
}

// TestMakespan pins the FIFO schedule model behind the Figure 5 sweeps: each
// duration, in order, goes to the earliest-free worker (the lowest index on a
// tie), and the makespan is the latest finish.
func TestMakespan(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		durs    []time.Duration
		workers int
		want    int
	}{
		{nil, 3, 0},
		{ms(5), 1, 5},
		{ms(1, 2, 3), 1, 6},
		{ms(1, 2, 3), 0, 6},    // fewer than one worker is one worker
		{ms(1, 2, 3), 3, 3},    // one task each
		{ms(1, 2, 3), 8, 3},    // idle workers change nothing
		{ms(3, 1, 1, 1), 2, 3}, // 3 | 1+1+1
		{ms(1, 1, 1, 3), 2, 4}, // 1+1 | 1+3: FIFO, not longest-first
		{ms(2, 2, 2, 2, 2), 2, 6},
	} {
		if got := Makespan(tc.durs, tc.workers); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("Makespan(%v, %d) = %v, want %dms", tc.durs, tc.workers, got, tc.want)
		}
	}
}

// TestIncrShape: the incremental experiment sweeps the first 30 links of the
// quick-scale WAN, one failure each, both ways, and its warm forks report
// avoided work. Wall-clock ratios are the repo benchmark's business, so none
// is asserted.
func TestIncrShape(t *testing.T) {
	s := QuickScale()
	r := Incr(s)
	if want := min(30, len(gen.Generate(gen.WAN(s.WANK)).Net.Topo.Links())); r.Scenarios != want {
		t.Errorf("scenarios = %d, want %d", r.Scenarios, want)
	}
	if r.SPFReused == 0 || r.BGPTablesDirty == 0 || r.WarmRounds == 0 || r.FlowsReused == 0 {
		t.Errorf("work-avoided counters must all be non-zero: %+v", r)
	}
	var buf bytes.Buffer
	PrintIncr(&buf, r)
	if !strings.Contains(buf.String(), fmt.Sprintf("%d scenarios", r.Scenarios)) {
		t.Errorf("PrintIncr output lacks the scenario count:\n%s", buf.String())
	}
}
