// Verification-as-a-service benchmarks: a warm what-if query against a
// running hoyand instance (base state converged once, queries are
// incremental forks) versus the cold CLI path (re-parse the configuration,
// rebuild the engine, simulate from scratch) for the same scenario. `make
// bench-serve` runs these and writes the measured latencies to
// BENCH_serve.json; TestServeWarmSpeedup pins the work the warm query's fork
// avoids. Client-visible latency is the repo benchmark's job (`bash
// benchmark/run.sh --workload serve_mix`).
package hoyan

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
)

// serveFixture is one warm hoyand over gen.WAN(1) plus everything the cold
// path needs to re-run the same scenario the way `hoyan` does: the raw
// config texts (the CLI starts from files) and the input routes and flows.
type serveFixture struct {
	g     *gen.Output
	texts map[string]string
	ts    *httptest.Server
	fail  *netmodel.Link
}

func serveFixtures(tb testing.TB) *serveFixture {
	g := gen.Generate(gen.WAN(1))
	srv, err := serve.NewServer(serve.Config{
		Tenants: []serve.TenantConfig{{Name: "bench", APIKey: "key-bench"}},
		Workers: 1,
		Sim:     core.Options{Parallelism: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.LoadNetwork("bench", g.Net, g.Inputs, g.Flows, true); err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return &serveFixture{
		g:     g,
		texts: g.ConfigTexts(),
		ts:    ts,
		fail:  g.Net.Topo.Links()[0],
	}
}

// warmQuery runs one what-if query synchronously (?wait=1): a single HTTP
// round trip whose response is the terminal status with the result — the
// full client-visible latency of the service.
func (f *serveFixture) warmQuery(tb testing.TB) {
	body, _ := json.Marshal(serve.QueryRequest{
		Kind:      "whatif",
		FailLinks: []serve.LinkRef{{A: f.fail.A, B: f.fail.B}},
	})
	req, _ := http.NewRequest("POST", f.ts.URL+"/v1/queries?wait=1", bytes.NewReader(body))
	req.Header.Set("X-API-Key", "key-bench")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	var st struct {
		State  string `json:"state"`
		Result *struct {
			RIBDigest string `json:"rib_digest"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.State != "done" || st.Result == nil || st.Result.RIBDigest == "" {
		tb.Fatalf("synchronous query ended %q without a RIB digest", st.State)
	}
}

// coldQuery runs the same scenario the way a one-shot CLI invocation does:
// parse every device configuration, build the model, converge routing and
// forwarding from nothing.
func (f *serveFixture) coldQuery(tb testing.TB) {
	net, err := config.BuildNetworkOpts(f.texts, nil, config.BuildOptions{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	// The CLI pairs parsed configs with the monitored topology (§2.2).
	net.Topo = f.g.Net.Topo.Clone()
	if dl := net.Topo.FindLink(f.fail.A, f.fail.B); dl != nil {
		net.Topo.SetLinkUp(dl.ID(), false)
	}
	eng := core.NewEngine(net, core.Options{Parallelism: 1})
	res := eng.Run(f.g.Inputs, f.g.Flows)
	if res.Routes.GlobalRIB().Len() == 0 {
		tb.Fatal("cold run produced an empty RIB")
	}
}

// checkForkWork runs the warm query's scenario as the engine fork the daemon
// executes for it and compares its work with the cold run's.
func (f *serveFixture) checkForkWork(t *testing.T) {
	opts := core.Options{Parallelism: 1}
	eng := core.NewEngine(f.g.Net, opts)
	eng.BaseRun(f.g.Inputs, f.g.Flows)
	scratch := f.g.Net.Clone()
	id := f.fail.ID()
	scratch.Topo.SetLinkUp(id, false)
	_, st := eng.Fork(scratch, core.Delta{LinksDown: []netmodel.LinkID{id}})
	cold := core.NewEngine(scratch, opts).Run(f.g.Inputs, f.g.Flows)
	t.Logf("fork work: %d/%d SPF sources reused, %d/%d tables dirty, %d rounds (cold %d), %d/%d flows reused",
		st.SPFReused, st.SPFSources, st.BGPTablesDirty, st.BGPTablesTotal,
		st.BGPRounds, cold.Routes.BGP.Rounds, st.FlowsReused, st.FlowsTotal)
	switch {
	case st.Full:
		t.Error("link-down fork fell back to from-scratch simulation")
	case st.SPFReused == 0:
		t.Error("fork reused no SPF source")
	case 2*st.BGPTablesDirty > st.BGPTablesTotal:
		t.Errorf("fork seeded %d of %d tables dirty, want at most half", st.BGPTablesDirty, st.BGPTablesTotal)
	case st.BGPRounds >= cold.Routes.BGP.Rounds:
		t.Errorf("fork ran %d fixpoint rounds, the cold run %d", st.BGPRounds, cold.Routes.BGP.Rounds)
	case 4*st.FlowsReused < st.FlowsTotal:
		t.Errorf("fork reused %d of %d flows, want at least a quarter", st.FlowsReused, st.FlowsTotal)
	}
}

type serveBenchReport struct {
	Devices     int     `json:"devices"`
	InputRoutes int     `json:"input_routes"`
	Flows       int     `json:"flows"`
	WarmNs      int64   `json:"warm_query_ns"`
	ColdNs      int64   `json:"cold_query_ns"`
	Speedup     float64 `json:"warm_speedup"`
}

// TestServeWarmSpeedup pins the service's reason to exist — a what-if query
// against the warm daemon does a fraction of the work of a cold CLI
// invocation of the same scenario — on the counts of the engine fork the
// query runs (the daemon's own tests pin that the query returns that fork's
// RIB): no fallback, SPF sources reused, most tables left clean, fewer
// fixpoint rounds than from scratch, flows reused. The counts
// repeat exactly on every host. The latency ratio — HTTP, admission, queueing
// and SSE delivery included — is still measured and reported, but no floor is
// asserted on it: its reference is the cold path, so every cold-path
// optimization lowered it with the warm path unchanged. With SERVE_BENCH_JSON
// set the numbers are also written to that path (`make bench-serve` produces
// BENCH_serve.json).
func TestServeWarmSpeedup(t *testing.T) {
	f := serveFixtures(t)
	f.checkForkWork(t)
	const trials, iters = 4, 4
	warmNs, coldNs := measurePair(trials, iters,
		func() { f.warmQuery(t) },
		func() { f.coldQuery(t) })

	rep := serveBenchReport{
		Devices:     len(f.g.Net.Devices),
		InputRoutes: len(f.g.Inputs),
		Flows:       len(f.g.Flows),
		WarmNs:      warmNs,
		ColdNs:      coldNs,
		Speedup:     float64(coldNs) / float64(warmNs),
	}
	t.Logf("warm query %s vs cold CLI %s: %.1fx",
		time.Duration(warmNs), time.Duration(coldNs), rep.Speedup)
	if path := os.Getenv("SERVE_BENCH_JSON"); path != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

// BenchmarkServeWarmQuery times one warm query end to end (HTTP submit +
// SSE wait) against the running daemon.
func BenchmarkServeWarmQuery(b *testing.B) {
	f := serveFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.warmQuery(b)
	}
}

// BenchmarkServeColdCLI times the from-scratch reference path for the same
// scenario.
func BenchmarkServeColdCLI(b *testing.B) {
	f := serveFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.coldQuery(b)
	}
}
