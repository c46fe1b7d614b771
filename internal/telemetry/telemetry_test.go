package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines — parallel
// increments, observes, re-registrations, and snapshot reads — and checks the
// final counts. Run under -race, this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-registration must return the same child every time.
			c := reg.Counter("test_ops_total", "ops", L("kind", "route"))
			ga := reg.Gauge("test_depth", "depth")
			h := reg.Histogram("test_latency_seconds", "latency", []float64{0.1, 1})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(0.05)
				if i%100 == 0 {
					_ = reg.Gather() // concurrent snapshot reads
				}
			}
		}()
	}
	wg.Wait()

	snap := reg.Gather()
	if s, ok := snap.Find("test_ops_total", L("kind", "route")); !ok || s.Value != goroutines*perG {
		t.Fatalf("counter = %v, want %d", s.Value, goroutines*perG)
	}
	if s, ok := snap.Find("test_depth"); !ok || s.Value != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", s.Value, goroutines*perG)
	}
	if s, ok := snap.Find("test_latency_seconds"); !ok || s.Count != goroutines*perG {
		t.Fatalf("histogram count = %v, want %d", s.Count, goroutines*perG)
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: a sample equal to an
// upper bound lands in that bucket (inclusive), just above it in the next,
// and anything beyond the last bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0, 1, 1.0001, 5, 5.5, 10, 11, 1e9} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // (-inf,1], (1,5], (5,10], (10,+inf)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-(0+1+1.0001+5+5.5+10+11+1e9)) > 1e-6 {
		t.Errorf("sum = %v", h.Sum())
	}

	// Unsorted registration bounds are sorted.
	h2 := NewHistogram([]float64{10, 1, 5})
	h2.Observe(2)
	if h2.counts[0].Load() != 0 || h2.counts[1].Load() != 1 {
		t.Error("bounds not sorted at construction")
	}

	// No explicit bounds: everything lands in +Inf.
	h3 := NewHistogram(nil)
	h3.Observe(42)
	if h3.counts[0].Load() != 1 || h3.Count() != 1 {
		t.Error("bound-less histogram broken")
	}
}

func TestNilRegistryAndSpansAreSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "").Inc()
	reg.Gauge("y", "").Set(3)
	reg.Histogram("z", "", DurationBuckets).Observe(1)
	if snap := reg.Gather(); snap != nil {
		t.Errorf("nil registry gathered %v", snap)
	}

	var tr *Tracer
	sp := tr.StartRoot("noop")
	sp.SetTag("k", "v")
	sp.End()
	ctx, sp2 := StartSpan(context.Background(), "noop2")
	sp2.End()
	if sp2 != nil || TracerFrom(ctx) != nil {
		t.Error("span without tracer must be nil")
	}

	var ev *EventLogger
	ev.Log("nothing", F("a", 1))
}

func TestSnapshotMergeAndPrometheus(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("hoyan_subtasks_total", "subtasks", L("kind", "route")).Add(3)
	r2.Counter("hoyan_subtasks_total", "subtasks", L("kind", "route")).Add(4)
	r2.Counter("hoyan_subtasks_total", "subtasks", L("kind", "traffic")).Add(5)
	r1.Histogram("hoyan_stage_seconds", "stages", []float64{1}, L("stage", "engine")).Observe(0.5)
	r2.Histogram("hoyan_stage_seconds", "stages", []float64{1}, L("stage", "engine")).Observe(2)

	merged := r1.Gather().Merge(r2.Gather())
	if s, ok := merged.Find("hoyan_subtasks_total", L("kind", "route")); !ok || s.Value != 7 {
		t.Fatalf("merged route counter = %v, want 7", s.Value)
	}
	if s, ok := merged.Find("hoyan_subtasks_total", L("kind", "traffic")); !ok || s.Value != 5 {
		t.Fatalf("merged traffic counter = %v, want 5", s.Value)
	}
	h, ok := merged.Find("hoyan_stage_seconds", L("stage", "engine"))
	if !ok || h.Count != 2 || math.Abs(h.Sum-2.5) > 1e-9 {
		t.Fatalf("merged histogram = %+v", h)
	}

	var buf bytes.Buffer
	if err := merged.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`# TYPE hoyan_subtasks_total counter`,
		`hoyan_subtasks_total{kind="route"} 7`,
		`hoyan_stage_seconds_bucket{stage="engine",le="1"} 1`,
		`hoyan_stage_seconds_bucket{stage="engine",le="+Inf"} 2`,
		`hoyan_stage_seconds_count{stage="engine"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSpanHierarchyAndChromeExport(t *testing.T) {
	tr := NewTracer("master")
	root := tr.StartRoot("run")
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRemoteParent(ctx, root.Context())
	ctx, child := StartSpan(ctx, "enqueue")
	_, grand := StartSpan(ctx, "push")
	grand.SetTag("sub", "0")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	tid := byName["run"].TraceID
	for _, s := range spans {
		if s.TraceID != tid {
			t.Errorf("span %s trace %s != root trace %s", s.Name, s.TraceID, tid)
		}
	}
	if byName["enqueue"].ParentID != byName["run"].SpanID {
		t.Error("enqueue not parented to run")
	}
	if byName["push"].ParentID != byName["enqueue"].SpanID {
		t.Error("push not parented to enqueue")
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 3 complete events + 1 thread_name metadata event.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(doc.TraceEvents))
	}
}

func TestEventLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLogger(&buf, F("worker", "w1"))
	log.now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	log.Log("subtask.failed", F("task", "t/route/3"), F("attempt", 2), F("error", io.ErrUnexpectedEOF.Error()))
	log.Log("cache.evict", F("kind", "traffic"), F("key", "k1"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first["event"] != "subtask.failed" || first["worker"] != "w1" || first["attempt"] != float64(2) {
		t.Errorf("line 1 fields wrong: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if second["kind"] != "traffic" || second["worker"] != "w1" {
		t.Errorf("line 2 fields wrong: %v", second)
	}
}

func TestOpsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hoyan_up", "up").Inc()
	healthy := true
	h := NewOpsHandler(reg, func() error {
		if !healthy {
			return io.ErrClosedPipe
		}
		return nil
	}, nil)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "hoyan_up 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz unhealthy = %d, want 503", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// BenchmarkCounterInc pins the hot-path cost of an enabled counter (one
// atomic add; the <5%-overhead acceptance budget rides on this).
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DurationBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}
