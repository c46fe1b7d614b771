package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hoyan/internal/telemetry"
)

// goldenSeed is the seed golden.json was recorded on; other seeds check
// outputs by cross-checks alone.
const goldenSeed = 42

// setupReps is how often a run repeats set-up to report a median setup_s.
const setupReps = 3

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	// tr is non-nil on the traced run only. Every telemetry.Tracer method is
	// nil-safe, so workloads record spans unconditionally.
	tr *telemetry.Tracer
}

// rng returns a generator for one named purpose, so that adding a draw to one
// stream (which links fail) never shifts another (which inputs churn).
func (e *env) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// instance is one set-up workload.
type instance interface {
	// op runs timed operation i and checks its output; a non-nil error counts
	// the operation as failed. With more than one client it is called
	// concurrently.
	op(i int) error
	// tracedOp does the same work as op with a span around each public call
	// into a layer, and must reproduce op's outputs.
	tracedOp(i int) error
	// crossCheck compares outputs against a path that shares as little as
	// possible with the measured one. It is benchmark work, not system work,
	// and is excluded from setup_s.
	crossCheck() error
	// layers runs the remaining probes and returns the workload's per-layer
	// metrics from the recorded spans and counters.
	layers() map[string]float64
	// facts are the deterministic outputs golden.json pins for goldenSeed.
	facts() map[string]string
	// info describes the fixture (sizes), for the result file.
	info() map[string]any
	close()
}

// outcome is everything one process measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	samples   int
	metrics   map[string]float64
	info      map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "FAIL:", msg)
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
}

// runWorkload is the measured run of one workload in this process: untraced
// (end-to-end metrics) when e.tr is nil, traced (per-layer metrics) otherwise.
func runWorkload(w *workload, e *env, golden goldenFile, updateGolden bool) (*outcome, goldenFile, error) {
	out := &outcome{metrics: map[string]float64{}}

	// Set-up, repeated: the last instance is the one measured. The traced run
	// sets up once — its set-up spans feed per-layer metrics, not setup_s.
	reps := setupReps
	if e.tr != nil {
		reps = 1
	}
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	out.attempted++
	if err := inst.crossCheck(); err != nil {
		out.fail("%s: cross-check: %v", w.name, err)
	}

	if e.tr == nil {
		measureUntraced(w, e, inst, out)
		out.metrics["setup_s"] = median(setups)
	} else {
		measureTraced(w, e, inst, out)
	}

	out.info = inst.info()
	if facts := inst.facts(); e.seed == goldenSeed {
		if updateGolden {
			if golden == nil {
				golden = goldenFile{}
			}
			golden[w.name] = facts
		} else {
			out.attempted++
			if diff := golden.diff(w.name, facts); diff != "" {
				out.fail("%s: GOLDEN MISMATCH on seed %d (rerun with -update-golden if the change is intended): %s", w.name, goldenSeed, diff)
			}
		}
	}
	return out, golden, nil
}

// timedLoop drives clients closed-loop goroutines over fn until the deadline
// has passed and at least minOps operations ran. It returns each operation's
// wall time in completion order and the time the loop spent in operations: the
// loop's wall time with several clients, the sum of the operations with one
// (which leaves out the untimed collections between them).
func timedLoop(clients, minOps int, d time.Duration, out *outcome, fn func(i int) error) (durs []float64, busy float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= minOps && time.Since(start) >= d {
					return
				}
				if clients == 1 {
					// Every operation starts from a collected heap, whatever the
					// previous one left behind; the collection is not timed.
					runtime.GC()
				}
				t0 := time.Now()
				err := fn(i)
				dt := time.Since(t0).Seconds()
				mu.Lock()
				durs = append(durs, dt)
				out.attempted++
				if err != nil {
					out.fail("op %d: %v", i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if clients == 1 {
		return durs, sum(durs)
	}
	return durs, time.Since(start).Seconds()
}

func measureUntraced(w *workload, e *env, inst instance, out *outcome) {
	clients := min(w.clients, runtime.NumCPU())
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	durs, _ := timedLoop(clients, w.minOps, e.seconds, out, inst.op)
	runtime.ReadMemStats(&after)

	out.samples = len(durs)
	out.metrics["op_s_p50"] = median(durs)
	out.metrics["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(durs))
}

// measureTraced alternates untraced and traced operations in one process, so
// the tracing overhead compares like with like, then asks the instance for
// its per-layer numbers. It spends about half of -seconds in the loop; the
// instance's probes take the rest.
func measureTraced(w *workload, e *env, inst instance, out *outcome) {
	clients := min(w.clients, runtime.NumCPU())
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var plain, traced []float64
	var plainBusy float64
	budget := e.seconds / 2
	// Phases, not strict alternation, when there are several clients: a traced
	// and an untraced query in flight together would share the server.
	phase := budget / 4
	minOps := max(1, w.minOps/4)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		p, busy := timedLoop(clients, minOps, phase, out, inst.op)
		t, _ := timedLoop(clients, minOps, phase, out, inst.tracedOp)
		plain, traced = append(plain, p...), append(traced, t...)
		plainBusy += busy
	}
	runtime.ReadMemStats(&after)

	ops := float64(len(plain) + len(traced))
	out.samples = len(traced)
	for k, v := range inst.layers() {
		out.metrics[k] = v
	}
	if m := median(plain); m > 0 {
		out.metrics["trace.overhead_share"] = (median(traced) - m) / m
	}
	out.metrics["run.ops_per_s"] = share(float64(len(plain)), plainBusy)
	out.metrics["runtime.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	out.metrics["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	out.metrics["runtime.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc; 0 where /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
