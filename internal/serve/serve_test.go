package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/scenario"
	"hoyan/internal/telemetry"
)

// testHarness spins up a server over gen.WAN(1) with two tenants: alice is
// unthrottled, bob is tightly rate-limited so backpressure is observable.
type testHarness struct {
	t    *testing.T
	out  *gen.Output
	srv  *Server
	ts   *httptest.Server
	reg  *telemetry.Registry
	keys map[string]string
}

func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	out := gen.Generate(gen.WAN(1))
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{
			{Name: "alice", APIKey: "key-alice", Weight: 2, MaxInFlight: 64},
			{Name: "bob", APIKey: "key-bob", RatePerSec: 25, Burst: 5, MaxInFlight: 64},
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := srv.LoadNetwork("wan1", out.Net, out.Inputs, out.Flows, true); err != nil {
		t.Fatalf("LoadNetwork: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	h := &testHarness{
		t: t, out: out, srv: srv, ts: ts, reg: cfg.Registry,
		keys: map[string]string{"alice": "key-alice", "bob": "key-bob"},
	}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return h
}

func (h *testHarness) do(tenant, method, path string, body any) (*http.Response, []byte) {
	h.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatalf("request: %v", err)
	}
	req.Header.Set("X-API-Key", h.keys[tenant])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// submitRetrying retries 429s until the query is accepted; returns the query
// ID and how many 429s were seen on the way in.
func (h *testHarness) submitRetrying(tenant string, req QueryRequest) (string, int) {
	h.t.Helper()
	rejected := 0
	for {
		resp, body := h.do(tenant, "POST", "/v1/queries", req)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				h.t.Fatalf("decode submit response: %v", err)
			}
			return st.ID, rejected
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				h.t.Fatalf("429 without Retry-After")
			}
			time.Sleep(20 * time.Millisecond)
		default:
			h.t.Fatalf("submit: unexpected status %d: %s", resp.StatusCode, body)
		}
	}
}

// await polls a query until it reaches a terminal state.
func (h *testHarness) await(tenant, id string) Status {
	h.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := h.do(tenant, "GET", "/v1/queries/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			h.t.Fatalf("get query %s: status %d: %s", id, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			h.t.Fatalf("decode status: %v", err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("query %s never finished", id)
	return Status{}
}

// coldDigest runs the scenario the way the batch CLI does: clone, toggle,
// fresh engine, full run — the reference the warm service must match
// byte-for-byte.
func coldDigest(out *gen.Output, fail netmodel.LinkID) string {
	scratch := out.Net.Clone()
	scratch.Topo.SetLinkUp(fail, false)
	eng := core.NewEngine(scratch, core.Options{})
	res := eng.Run(out.Inputs, out.Flows)
	return ribDigest(res.Routes.GlobalRIB())
}

// TestServeE2E is the acceptance test: one snapshot loaded once, >=100
// concurrent what-if queries from two tenants, rate-limit 429s observed,
// every result byte-identical to the batch CLI path, and a clean drain.
func TestServeE2E(t *testing.T) {
	h := newHarness(t, Config{Workers: 4, QueueDepth: 512})

	links := h.out.Net.Topo.Links()
	step := len(links)/10 + 1
	var scenarios []netmodel.LinkID
	for i := 0; i < len(links); i += step {
		scenarios = append(scenarios, links[i].ID())
	}
	want := make(map[netmodel.LinkID]string, len(scenarios))
	for _, id := range scenarios {
		want[id] = coldDigest(h.out, id)
	}

	const total = 120
	type outcome struct {
		link     netmodel.LinkID
		st       Status
		rejected int
	}
	results := make([]outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := "alice"
			if i%2 == 1 {
				tenant = "bob"
			}
			linkID := scenarios[i%len(scenarios)]
			l := h.out.Net.Topo.Link(linkID)
			id, rejected := h.submitRetrying(tenant, QueryRequest{
				Kind:      "whatif",
				FailLinks: []LinkRef{{A: l.A, B: l.B}},
			})
			results[i] = outcome{link: linkID, st: h.await(tenant, id), rejected: rejected}
		}(i)
	}
	wg.Wait()

	totalRejected := 0
	for i, r := range results {
		totalRejected += r.rejected
		if r.st.State != StateDone {
			t.Fatalf("query %d: state %s error %q", i, r.st.State, r.st.Error)
		}
		if r.st.Result == nil || r.st.Result.RIBDigest != want[r.link] {
			got := "<nil>"
			if r.st.Result != nil {
				got = r.st.Result.RIBDigest
			}
			t.Fatalf("query %d (link %s): warm digest %s != cold %s", i, r.link, got, want[r.link])
		}
	}
	if totalRejected == 0 {
		t.Fatalf("no 429s observed: bob's rate limit never engaged")
	}
	t.Logf("completed %d queries across 2 tenants, %d rate-limit rejections retried", total, totalRejected)

	// Telemetry recorded both tenants' admissions.
	snap := h.reg.Gather()
	for _, tenant := range []string{"alice", "bob"} {
		se, ok := snap.Find("serve_queries_total", telemetry.L("tenant", tenant))
		if !ok || se.Value < 1 {
			t.Fatalf("serve_queries_total{tenant=%s} missing or zero", tenant)
		}
	}
	if se, ok := snap.Find("serve_rejected_total", telemetry.L("reason", "rate"), telemetry.L("tenant", "bob")); !ok || se.Value < 1 {
		t.Fatalf("serve_rejected_total{tenant=bob,reason=rate} missing or zero")
	}

	// Clean drain: shutdown completes, then new submissions are refused.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, _ := h.do("alice", "POST", "/v1/queries", QueryRequest{Kind: "whatif"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestServeSSEStream covers the streaming path: subscribe to a query and see
// its lifecycle events end in a result frame.
func TestServeSSEStream(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	l := h.out.Net.Topo.Links()[0]
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})

	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/queries/"+id, nil)
	req.Header.Set("X-API-Key", "key-alice")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("SSE GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var types []string
	var resultData string
	sc := bufio.NewScanner(resp.Body)
	cur := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			cur = strings.TrimPrefix(line, "event: ")
			types = append(types, cur)
		}
		if strings.HasPrefix(line, "data: ") && cur == "result" {
			resultData = strings.TrimPrefix(line, "data: ")
		}
	}
	if len(types) < 3 {
		t.Fatalf("saw %d events (%v), want at least pending/running/done states", len(types), types)
	}
	if types[len(types)-1] != "result" {
		t.Fatalf("last event %q, want result (events: %v)", types[len(types)-1], types)
	}
	var res QueryResult
	if err := json.Unmarshal([]byte(resultData), &res); err != nil {
		t.Fatalf("decode result frame: %v", err)
	}
	if res.RIBDigest == "" {
		t.Fatalf("result frame carries no rib_digest")
	}
}

// TestServeVerifyAndRIB covers the verify kind and the RIB endpoint.
func TestServeVerifyAndRIB(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})

	// A tautological spec over the base state must hold.
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:  "verify",
		Specs: []string{"prefix = 255.255.255.255/32 => PRE = POST"},
	})
	st := h.await("alice", id)
	if st.State != StateDone {
		t.Fatalf("verify query: state %s error %q", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.SpecsOK {
		t.Fatalf("tautological spec did not hold: %+v", st.Result)
	}

	dev := h.out.Net.Topo.Nodes()[0].Name
	resp, body := h.do("alice", "GET", "/v1/networks/wan1/rib?device="+dev+"&limit=10", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rib: status %d: %s", resp.StatusCode, body)
	}
	var rib struct {
		Rows  []RIBRow `json:"rows"`
		Count int      `json:"count"`
	}
	if err := json.Unmarshal(body, &rib); err != nil {
		t.Fatalf("decode rib: %v", err)
	}
	if rib.Count == 0 {
		t.Fatalf("rib query for %s returned no rows", dev)
	}
	for _, row := range rib.Rows {
		if row.Device != dev {
			t.Fatalf("rib row for device %q, filtered for %q", row.Device, dev)
		}
	}
}

// TestServeSyncSubmit exercises ?wait=1: one round trip returns the
// terminal status with the result attached.
func TestServeSyncSubmit(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	l := h.out.Net.Topo.Links()[0]
	resp, body := h.do("alice", "POST", "/v1/queries?wait=1", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync submit: status %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("sync submit returned non-terminal state %s (error %q)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.RIBDigest == "" {
		t.Fatalf("sync submit returned no result: %+v", st)
	}
}

// TestServeKfailProgress runs a small sweep and checks progress frames and
// the summary.
func TestServeKfailProgress(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:         "kfail",
		K:            1,
		MaxScenarios: 24,
		Specs:        []string{"prefix = 255.255.255.255/32 => PRE = POST"},
	})
	st := h.await("alice", id)
	if st.State != StateDone {
		t.Fatalf("kfail query: state %s error %q", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Kfail == nil {
		t.Fatalf("kfail query returned no summary")
	}
	if st.Result.Kfail.Scenarios == 0 || st.Result.Kfail.Scenarios > 24 {
		t.Fatalf("kfail scenarios = %d, want 1..24", st.Result.Kfail.Scenarios)
	}
	if !st.Result.SpecsOK {
		t.Fatalf("tautological spec violated under failures: %+v", st.Result.Kfail)
	}
}

// TestServeDeadlineAndCancel covers per-query deadlines and client
// cancellation.
func TestServeDeadlineAndCancel(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})

	// An absurdly short deadline on a kfail sweep must fail, not hang.
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:       "kfail",
		K:          2,
		DeadlineMS: 1,
		Specs:      []string{"prefix = 255.255.255.255/32 => PRE = POST"},
	})
	st := h.await("alice", id)
	if st.State != StateFailed && st.State != StateCanceled {
		t.Fatalf("deadline query: state %s, want failed/canceled", st.State)
	}

	// Cancel a pending query (single worker busy behind a sweep). The sweep
	// is a K=2 one of 512 scenarios, a second or more of work, so that it
	// still holds the worker when the DELETE below arrives — at GOMAXPROCS=1
	// the two HTTP round trips wait for time slices the sweep is using — and
	// it is cancelled itself once the victim has been checked.
	busy, _ := h.submitRetrying("alice", QueryRequest{
		Kind: "kfail", K: 2, MaxScenarios: 512,
		Specs: []string{"prefix = 255.255.255.255/32 => PRE = POST"},
	})
	l := h.out.Net.Topo.Links()[0]
	victim, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	resp, _ := h.do("alice", "DELETE", "/v1/queries/"+victim, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if st := h.await("alice", victim); st.State != StateCanceled {
		t.Fatalf("cancelled query state %s", st.State)
	}
	h.do("alice", "DELETE", "/v1/queries/"+busy, nil)
	h.await("alice", busy)
}

// TestServeTenantIsolation: one tenant cannot see another's queries.
func TestServeTenantIsolation(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	l := h.out.Net.Topo.Links()[0]
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	h.await("alice", id)
	resp, _ := h.do("bob", "GET", "/v1/queries/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant query read: status %d, want 404", resp.StatusCode)
	}
	// And no key at all is a 401.
	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/queries/"+id, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("unauthenticated GET: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated read: status %d, want 401", resp2.StatusCode)
	}
}

// TestServeHistoryPersists: finished queries land in the WAL-backed history
// and survive a server restart on the same directory.
func TestServeHistoryPersists(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, Config{Workers: 2, HistoryDir: dir, HistorySize: 64})
	l := h.out.Net.Topo.Links()[0]
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	done := h.await("alice", id)

	resp, body := h.do("alice", "GET", "/v1/history", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history: status %d", resp.StatusCode)
	}
	var entries []HistoryEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatalf("decode history: %v", err)
	}
	if len(entries) == 0 || entries[0].ID != id {
		t.Fatalf("history entries = %+v, want newest-first starting with %s", entries, id)
	}
	resp, body = h.do("alice", "GET", "/v1/history/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history result: status %d: %s", resp.StatusCode, body)
	}
	var res QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode history result: %v", err)
	}
	if res.RIBDigest != done.Result.RIBDigest {
		t.Fatalf("stored result digest %s != live %s", res.RIBDigest, done.Result.RIBDigest)
	}

	// Restart: a fresh server on the same directory replays the entry.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	h2, err := openHistory(dir, 64, h.srv.cfg.Durable, nil)
	if err != nil {
		t.Fatalf("reopen history: %v", err)
	}
	defer h2.Close()
	if got := h2.List("alice", 0); len(got) == 0 || got[0].ID != id {
		t.Fatalf("replayed history = %+v, want entry %s", got, id)
	}
	if res2, err := h2.Result(id); err != nil || res2.RIBDigest != done.Result.RIBDigest {
		t.Fatalf("replayed result: %+v err=%v", res2, err)
	}
}

// TestServeHistoryBeforeTerminalState pins persist-before-publish: while the
// history write of a finished query is held up the query must not read as
// terminal, and once it does /v1/history lists it. The write is held up by
// holding the history mutex, and the test waits on events (the result blob
// appearing, Done closing), never on time, so it decides the same way at
// every GOMAXPROCS.
func TestServeHistoryBeforeTerminalState(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := newHarness(t, Config{Workers: 2, HistoryDir: t.TempDir(), HistorySize: 64})
			hist := h.srv.hist
			hist.mu.Lock()
			defer func() {
				if hist != nil {
					hist.mu.Unlock()
				}
			}()
			l := h.out.Net.Topo.Links()[0]
			id, _ := h.submitRetrying("alice", QueryRequest{
				Kind:      "whatif",
				FailLinks: []LinkRef{{A: l.A, B: l.B}},
			})
			h.srv.mu.Lock()
			qu := h.srv.queries[id]
			h.srv.mu.Unlock()

			awaitHistoryWrite(t, hist, qu)
			select {
			case <-qu.Done():
				t.Fatal("query reached a terminal state while its history write was held up")
			default:
			}
			if st := qu.Snapshot(); st.State != StateRunning || st.Result != nil {
				t.Fatalf("status during the history write = %s (result %v), want running without result", st.State, st.Result != nil)
			}
			hist.mu.Unlock()
			hist = nil

			<-qu.Done()
			resp, body := h.do("alice", "GET", "/v1/history", nil)
			var entries []HistoryEntry
			if err := json.Unmarshal(body, &entries); err != nil {
				t.Fatalf("history: status %d: %v", resp.StatusCode, err)
			}
			if len(entries) != 1 || entries[0].ID != id || entries[0].State != StateDone {
				t.Fatalf("history after done = %+v, want the one done entry %s", entries, id)
			}
		})
	}
}

// awaitHistoryWrite returns once the history write of qu is under way:
// record stores the result blob and then blocks on hist.mu, which the caller
// holds, so the blob appearing marks it. Event-driven, no sleeps.
func awaitHistoryWrite(t *testing.T, hist *history, qu *Query) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; runtime.Gosched() {
		if _, err := hist.store.Get("result/" + qu.ID); err == nil {
			return
		}
		select {
		case <-qu.Done():
			t.Fatal("query reached a terminal state before its history write began")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("history write never began")
		}
	}
}

// TestServeCancelDuringHistoryWrite pins that a Cancel racing the worker's
// finish still returns a terminal query: the worker owns the transition and
// is held up in its history write, so Cancel must wait for it to publish
// rather than return while the query still reads as running.
func TestServeCancelDuringHistoryWrite(t *testing.T) {
	h := newHarness(t, Config{Workers: 2, HistoryDir: t.TempDir(), HistorySize: 64})
	hist := h.srv.hist
	hist.mu.Lock()
	held := true
	defer func() {
		if held {
			hist.mu.Unlock()
		}
	}()
	l := h.out.Net.Topo.Links()[0]
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	h.srv.mu.Lock()
	qu := h.srv.queries[id]
	h.srv.mu.Unlock()
	awaitHistoryWrite(t, hist, qu)

	// The run is over, so the context cancel func is free to mark the moment
	// Cancel is past its first step and about to call finish.
	inCancel := make(chan struct{})
	qu.setCancel(func() { close(inCancel) })
	after := make(chan Status, 1)
	go func() {
		qu.Cancel()
		after <- qu.Snapshot()
	}()
	<-inCancel
	for i := 0; i < 1000; i++ {
		runtime.Gosched() // let a Cancel that does not wait return and snapshot
	}
	hist.mu.Unlock()
	held = false

	if st := <-after; st.State != StateDone || st.Result == nil {
		t.Fatalf("status after Cancel returned = %s (result %v), want the worker's done result", st.State, st.Result != nil)
	}
	select {
	case <-qu.Done():
	default:
		t.Fatal("Cancel returned before Done closed")
	}
}

// TestServeModelUpload uploads WAN(1)'s whole model as one JSON body,
// configurations, input routes and flows: it converges to the base digest of
// the harness's in-process LoadNetwork of the same model, stays inactive,
// and takes queries addressed to it.
func TestServeModelUpload(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	no := false
	doc, err := json.Marshal(loadNetworkRequest{ID: "uploaded", Configs: h.out.ConfigTexts(), Inputs: h.out.Inputs, Flows: h.out.Flows, Activate: &no})
	if err != nil {
		t.Fatal(err)
	}
	code, info, body := h.upload("/v1/networks", "application/json", doc)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	if info.ID != "uploaded" || info.Active {
		t.Fatalf("upload info = %+v, want id=uploaded inactive", info)
	}
	orig, _ := h.srv.network("wan1")
	if info.BaseDigest != orig.baseDig || info.BaseRoutes != orig.base.Routes.GlobalRIB().Len() {
		t.Fatalf("uploaded base: %d routes, digest %s; in-process load: %d, %s",
			info.BaseRoutes, info.BaseDigest, orig.base.Routes.GlobalRIB().Len(), orig.baseDig)
	}
	if h.srv.Active() != "wan1" {
		t.Fatalf("active network = %s after inactive upload", h.srv.Active())
	}
	l := h.out.Net.Topo.Links()[0]
	id, _ := h.submitRetrying("alice", QueryRequest{
		Kind:      "whatif",
		NetworkID: "uploaded",
		FailLinks: []LinkRef{{A: l.A, B: l.B}},
	})
	if st := h.await("alice", id); st.State != StateDone {
		t.Fatalf("query on uploaded network: state %s error %q", st.State, st.Error)
	}
}

// upload posts a network and returns the status, the network info and the
// raw body.
func (h *testHarness) upload(path, contentType string, body []byte) (int, networkInfo, string) {
	h.t.Helper()
	req, _ := http.NewRequest("POST", h.ts.URL+path, bytes.NewReader(body))
	req.Header.Set("X-API-Key", "key-alice")
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var info networkInfo
	json.Unmarshal(raw, &info)
	return resp.StatusCode, info, string(raw)
}

// TestServeJSONUpload: configurations uploaded as JSON derive the network an
// in-process LoadNetwork of the generated one holds — links, base routes and
// base digest alike, with no inputs on either side — configurations that
// derive no link are refused with config.ErrNoLinks, and a body of the
// retired wire-bundle content type is a JSON decode error.
func TestServeJSONUpload(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	plain, err := h.srv.LoadNetwork("plain", h.out.Net.Clone(), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	no := false
	texts := h.out.ConfigTexts()
	doc, _ := json.Marshal(loadNetworkRequest{ID: "json", Configs: texts, Activate: &no})
	code, fromJSON, body := h.upload("/v1/networks", "application/json", doc)
	if code != http.StatusCreated {
		t.Fatalf("JSON upload: status %d: %s", code, body)
	}
	if want := len(h.out.Net.Topo.Links()); fromJSON.Links != want {
		t.Fatalf("links: JSON upload %d, generated network %d", fromJSON.Links, want)
	}
	if want := plain.base.Routes.GlobalRIB().Len(); fromJSON.BaseRoutes != want || fromJSON.BaseDigest != plain.baseDig {
		t.Fatalf("JSON upload: %d base routes, digest %s; in-process load: %d, %s",
			fromJSON.BaseRoutes, fromJSON.BaseDigest, want, plain.baseDig)
	}
	if len(fromJSON.Findings) != 0 {
		t.Fatalf("clean JSON upload: findings %q, want none", fromJSON.Findings)
	}

	// rr-0-0 and isp-1-0 share no subnet: two devices, no link.
	doc, _ = json.Marshal(loadNetworkRequest{ID: "apart", Configs: map[string]string{"rr-0-0": texts["rr-0-0"], "isp-1-0": texts["isp-1-0"]}})
	if code, _, body := h.upload("/v1/networks", "application/json", doc); code != http.StatusBadRequest || !strings.Contains(body, config.ErrNoLinks.Error()) {
		t.Fatalf("configurations with no link: status %d: %s, want 400 with %q", code, body, config.ErrNoLinks)
	}

	var frame bytes.Buffer
	if err := core.TakeSnapshot(h.out.Net).Encode(&frame); err != nil {
		t.Fatal(err)
	}
	if code, _, body := h.upload("/v1/networks", "application/x-hoyan-wire", frame.Bytes()); code != http.StatusBadRequest || !strings.Contains(body, "decoding request") {
		t.Fatalf("wire frame upload: status %d: %s, want the JSON decoder's 400", code, body)
	}
}

// TestServeJSONUploadFindings: a JSON upload whose configurations bind a
// neighbor to an undefined route map still loads (201: a dangling reference
// is a legal configuration, its behaviour a VSB) and returns
// config.Validate's finding.
func TestServeJSONUploadFindings(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	texts := h.out.ConfigTexts()
	texts["border-0-0"] = strings.Replace(texts["border-0-0"], "route-policy RM_ISP_OUT export", "route-policy RM_MISSING export", 1)
	doc, _ := json.Marshal(loadNetworkRequest{ID: "dangling", Configs: texts})
	code, info, body := h.upload("/v1/networks", "application/json", doc)
	want := config.Finding{Kind: config.UndefinedPolicy, Device: "border-0-0", Where: "neighbor 172.16.0.57", Name: "RM_MISSING"}.String()
	if code != http.StatusCreated || !reflect.DeepEqual(info.Findings, []string{want}) {
		t.Fatalf("status %d, findings %q; want 201 and [%q]: %s", code, info.Findings, want, body)
	}
}

// TestServePlanQueryKeepsNoNetwork: a finished plan query holds no reference
// to the network it was resolved against, so replacing that network lets
// the old one be collected.
func TestServePlanQueryKeepsNoNetwork(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	old, err := h.srv.network("wan1")
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(old, func(*Network) { close(collected) })
	old = nil
	resp, body := h.do("alice", "POST", "/v1/queries?wait=1", QueryRequest{Kind: "plan", NetworkID: "wan1",
		Commands: map[string]string{"core-0-0": "interface to-core-0-1\n isis cost 50\n"}})
	var st Status
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("plan query: status %d: %s", resp.StatusCode, body)
	}
	if _, err := h.srv.LoadNetwork("wan1", h.out.Net, h.out.Inputs, h.out.Flows, true); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the replaced network was not collected: a finished plan query still holds it")
		}
	}
}

// TestServePlanTopologyChange: a plan query that changes an IS-IS cost forks
// like any other plan. It answers 200, with rib_digest and route_delta equal
// to a cold run of the applied plan, and gives its in-flight slot back.
func TestServePlanTopologyChange(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "alice", APIKey: "key-alice", MaxInFlight: 1}}})
	plan := &change.Plan{ID: "isis-cost", Commands: map[string]string{"core-0-0": "interface to-core-0-1\n isis cost 50\n"}}
	updated, err := plan.Apply(h.out.Net)
	if err != nil {
		t.Fatal(err)
	}
	base := core.NewEngine(h.out.Net, core.Options{}).Run(h.out.Inputs, h.out.Flows)
	cold := core.NewEngine(updated, core.Options{}).Run(h.out.Inputs, h.out.Flows).Routes.GlobalRIB()
	onlyBase, onlyCold := netmodel.NewGlobalRIB(base.Routes.GlobalRIB().Rows()).Diff(cold)
	for range 2 {
		resp, body := h.do("alice", "POST", "/v1/queries?wait=1", QueryRequest{Kind: "plan", NetworkID: "wan1", Commands: plan.Commands})
		var st Status
		if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
			t.Fatalf("isis cost plan: status %d: %s", resp.StatusCode, body)
		}
		if st.Result.RIBDigest != ribDigest(cold) || st.Result.RouteDelta != len(onlyBase)+len(onlyCold) {
			t.Fatalf("isis cost plan: rib_digest %s, route_delta %d; cold run %s, %d",
				st.Result.RIBDigest, st.Result.RouteDelta, ribDigest(cold), len(onlyBase)+len(onlyCold))
		}
	}
}

// TestServeQueryPanicFails: a query that panics (here a what-if on a network
// with no engine) fails alone. ?wait=1 returns it failed with the panic's
// value, serve_query_panics_total counts it, the tenant's one in-flight slot
// comes back, and the next query runs.
func TestServeQueryPanicFails(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "alice", APIKey: "key-alice", MaxInFlight: 1}}})
	h.srv.mu.Lock()
	h.srv.networks["no-engine"] = &Network{ID: "no-engine", net: h.out.Net}
	h.srv.mu.Unlock()
	resp, body := h.do("alice", "POST", "/v1/queries?wait=1", QueryRequest{Kind: "whatif", NetworkID: "no-engine", FailDevices: []string{"core-0-0"}})
	var st Status
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateFailed || !strings.HasPrefix(st.Error, "query panicked: ") {
		t.Fatalf("panicking query: status %d: %s, want it failed with the panic", resp.StatusCode, body)
	}
	if se, ok := h.reg.Gather().Find("serve_query_panics_total"); !ok || se.Value != 1 {
		t.Fatalf("serve_query_panics_total: %+v, want 1", se)
	}
	// The replayed events keep the stack, down to the frame that panicked:
	// the what-if on a network without an engine.
	h.srv.mu.Lock()
	qu := h.srv.queries[st.ID]
	h.srv.mu.Unlock()
	events, _, _ := qu.Subscribe()
	var failed map[string]string
	for _, ev := range events {
		if ev.Type == "query.failed" {
			if err := json.Unmarshal(ev.Data, &failed); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !strings.Contains(failed["stack"], "core.(*Engine).WhatIf") || failed["error"] != st.Error {
		t.Fatalf("query.failed event %v, want the panic's error and a stack naming core.(*Engine).WhatIf", failed)
	}
	resp, body = h.do("alice", "POST", "/v1/queries?wait=1", QueryRequest{Kind: "whatif", NetworkID: "wan1", FailDevices: []string{"core-0-0"}})
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("query after a panic: status %d: %s", resp.StatusCode, body)
	}
}

// TestServeWaitFreesSlotFirst: the worker frees a query's tenant slot before
// the query reads as finished, so at MaxInFlight 1 a client that submits each
// query with ?wait=1 only after the previous answer arrived never finds its
// one slot still taken. The slot is checked where finish persists the final
// status, before Done closes; then 50 back-to-back submits must all run.
func TestServeWaitFreesSlotFirst(t *testing.T) {
	h := newHarness(t, Config{Workers: 1, Tenants: []TenantConfig{{Name: "alice", APIKey: "key-alice", MaxInFlight: 1}}})
	req := QueryRequest{Kind: "verify", NetworkID: "wan1", Specs: []string{"prefix = 255.255.255.255/32 => PRE = POST"}}

	tn := h.srv.adm.byName["alice"]
	if !tn.acquire() {
		t.Fatal("alice's slot is taken before any query")
	}
	qu := newQuery("q-slot", tn, req)
	held := -1
	qu.persist = func(Status) {
		tn.mu.Lock()
		held = tn.inFlight
		tn.mu.Unlock()
	}
	h.srv.queriesWG.Add(1)
	h.srv.execute(qu)
	if held != 0 {
		t.Fatalf("%d slots held when the query finished, want 0", held)
	}

	for i := range 50 {
		resp, body := h.do("alice", "POST", "/v1/queries?wait=1", req)
		var st Status
		if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
}

// ---- unit tests ----

func TestTokenBucket(t *testing.T) {
	tn := &tenant{cfg: TenantConfig{RatePerSec: 10, Burst: 2}}
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := tn.admit(now); !ok {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	ok, retry := tn.admit(now)
	if ok {
		t.Fatalf("admit past burst succeeded")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v out of range", retry)
	}
	// After the refill interval one more token is available.
	if ok, _ := tn.admit(now.Add(150 * time.Millisecond)); !ok {
		t.Fatalf("admit after refill refused")
	}
}

func TestQueueStrideFairness(t *testing.T) {
	q := newQueue(0)
	heavy := &tenant{cfg: TenantConfig{Name: "heavy", Weight: 3}}
	light := &tenant{cfg: TenantConfig{Name: "light", Weight: 1}}
	for i := 0; i < 40; i++ {
		q.Push(heavy, newQuery(fmt.Sprintf("h%d", i), heavy, QueryRequest{}))
		q.Push(light, newQuery(fmt.Sprintf("l%d", i), light, QueryRequest{}))
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		qu, err := q.Pop()
		if err != nil {
			t.Fatalf("Pop: %v", err)
		}
		counts[qu.Tenant.cfg.Name]++
	}
	// With weights 3:1, the first 20 pops split ~15:5.
	if counts["heavy"] < 12 || counts["light"] < 3 {
		t.Fatalf("stride split %v, want roughly 3:1", counts)
	}
}

func TestQueueBoundsAndClose(t *testing.T) {
	q := newQueue(2)
	tn := &tenant{cfg: TenantConfig{Name: "x"}}
	q.Push(tn, newQuery("a", tn, QueryRequest{}))
	q.Push(tn, newQuery("b", tn, QueryRequest{}))
	if err := q.Push(tn, newQuery("c", tn, QueryRequest{})); err != ErrQueueFull {
		t.Fatalf("push past bound: %v, want ErrQueueFull", err)
	}
	orphans := q.Close()
	if len(orphans) != 2 {
		t.Fatalf("Close returned %d orphans, want 2", len(orphans))
	}
	if _, err := q.Pop(); err != ErrQueueClosed {
		t.Fatalf("Pop after close: %v, want ErrQueueClosed", err)
	}
	if err := q.Push(tn, newQuery("d", tn, QueryRequest{})); err != ErrQueueClosed {
		t.Fatalf("Push after close: %v, want ErrQueueClosed", err)
	}
}

func TestClosersLIFO(t *testing.T) {
	var c Closers
	var order []string
	c.Add("first", func() error { order = append(order, "first"); return nil })
	c.Add("second", func() error { order = append(order, "second"); return fmt.Errorf("boom") })
	c.Add("third", func() error { order = append(order, "third"); return nil })
	err := c.Close()
	if want := []string{"third", "second", "first"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("close order %v, want %v", order, want)
	}
	if err == nil || !strings.Contains(err.Error(), "second: boom") {
		t.Fatalf("Close error = %v, want to carry second: boom", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestRetryAfterParsable(t *testing.T) {
	// The Retry-After header must be an integer per RFC 7231.
	for _, d := range []time.Duration{time.Millisecond, time.Second, 2500 * time.Millisecond} {
		v := strconv.Itoa(int(mathCeilSeconds(d)))
		if _, err := strconv.Atoi(v); err != nil {
			t.Fatalf("Retry-After %q not an integer", v)
		}
	}
}

func mathCeilSeconds(d time.Duration) int64 {
	s := d / time.Second
	if d%time.Second != 0 {
		s++
	}
	return int64(s)
}

// ribDigest digests a global RIB from its flat rows alone, the way the
// service did before RIBs had blocks: the reference for digestAgainstBase.
func ribDigest(g *netmodel.GlobalRIB) string {
	return sumRows(g.Rows()).String()
}

// bareServer loads out into a one-worker server whose executors the tests
// call directly, without HTTP.
func bareServer(t *testing.T, out *gen.Output, cfg Config) (*Server, *Network) {
	t.Helper()
	cfg.Tenants = []TenantConfig{{Name: "t", APIKey: "k"}}
	cfg.Workers = 1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	n, err := srv.LoadNetwork("n", out.Net, out.Inputs, out.Flows, true)
	if err != nil {
		t.Fatal(err)
	}
	return srv, n
}

// TestServeDigestAndDeltaMatchFlatRIB: under random link, multi-link and
// device failures, with the base converged at parallelism 1, 0 and 8, a
// what-if's rib_digest (base sum with the replaced blocks exchanged) and
// route_delta (block-wise Diff) are what hashing and diffing flat copies of
// both RIBs — which share no block — give.
func TestServeDigestAndDeltaMatchFlatRIB(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	links, names := out.Net.Topo.Links(), out.Net.DeviceNames()
	rnd := rand.New(rand.NewSource(21))
	for _, p := range []int{1, 0, 8} {
		srv, n := bareServer(t, out, Config{Sim: core.Options{Parallelism: p}})
		flatBase := netmodel.NewGlobalRIB(n.base.Routes.GlobalRIB().Rows())
		if got := ribDigest(flatBase); got != n.baseDig {
			t.Fatalf("parallelism %d: base digest from block sums %s, from flat rows %s", p, n.baseDig, got)
		}
		for trial := 0; trial < 8; trial++ {
			var req QueryRequest
			scratch := out.Net.Clone()
			for j := 1 + rnd.Intn(2); j > 0 && trial%4 != 3; j-- {
				l := links[rnd.Intn(len(links))]
				req.FailLinks = append(req.FailLinks, LinkRef{A: l.A, B: l.B})
				scratch.Topo.SetLinkUp(l.ID(), false)
			}
			if trial%4 >= 2 {
				d := names[rnd.Intn(len(names))]
				req.FailDevices = []string{d}
				scratch.Topo.SetNodeUp(d, false)
			}
			got, err := srv.runWhatIf(context.Background(), n, &Query{Req: req})
			if err != nil {
				t.Fatal(err)
			}
			cold := core.NewEngine(scratch, core.Options{}).Run(out.Inputs, out.Flows).Routes.GlobalRIB()
			onlyBase, onlyCold := flatBase.Diff(cold)
			if want := ribDigest(cold); got.RIBDigest != want {
				t.Fatalf("parallelism %d, %+v: rib_digest %s, flat rows of a cold run hash to %s", p, req, got.RIBDigest, want)
			}
			if want := len(onlyBase) + len(onlyCold); got.RouteDelta != want {
				t.Fatalf("parallelism %d, %+v: route_delta %d, flat diff %d", p, req, got.RouteDelta, want)
			}
		}
	}
}

// TestServeRIBWorkCounters pins the work-avoided counters on one link
// failure: the rows hashed are exactly the rows of the blocks the fork does
// not share with the base, the rows diffed those plus the base's rows for the
// same devices, and every other block is counted as shared — most of the RIB
// on this fixture. A verify query, whose state is the base, hashes and diffs
// nothing.
func TestServeRIBWorkCounters(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	reg := telemetry.NewRegistry()
	srv, n := bareServer(t, out, Config{Registry: reg})
	read := func() (hashed, diffed, shared int) {
		snap := reg.Gather()
		get := func(name string) int {
			s, ok := snap.Find(name)
			if !ok {
				t.Fatalf("counter %s is not registered", name)
			}
			return int(s.Value)
		}
		return get("serve_rib_rows_hashed_total"), get("serve_rib_rows_diffed_total"), get("serve_rib_blocks_shared_total")
	}

	l := out.Net.Topo.Links()[0]
	fork, _, err := n.eng.WhatIf(context.Background(), core.Delta{LinksDown: []netmodel.LinkID{l.ID()}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := n.base.Routes.GlobalRIB()
	var wantHashed, wantDiffed, wantShared int
	netmodel.JoinBlocks(base, fork.Routes.GlobalRIB(), func(b, u []netmodel.Route) {
		if netmodel.SameBlock(b, u) {
			wantShared++
			return
		}
		wantHashed += len(u)
		wantDiffed += len(b) + len(u)
	})
	if wantHashed == 0 || wantHashed*2 > base.Len() || wantShared == 0 {
		t.Fatalf("fixture: link %s changes %d of %d rows and shares %d blocks; want some, under half, and some", l.ID(), wantHashed, base.Len(), wantShared)
	}

	res, err := srv.runWhatIf(context.Background(), n, &Query{Req: QueryRequest{FailLinks: []LinkRef{{A: l.A, B: l.B}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RIBDigest == res.BaseDigest {
		t.Fatal("fixture: the failure leaves the RIB as it was, so nothing is diffed")
	}
	hashed, diffed, shared := read()
	if hashed != wantHashed || diffed != wantDiffed || shared != wantShared {
		t.Fatalf("what-if: hashed %d diffed %d shared %d, want %d %d %d (RIB has %d rows in %d blocks)",
			hashed, diffed, shared, wantHashed, wantDiffed, wantShared, base.Len(), len(base.Blocks()))
	}

	if _, err := srv.runVerify(n, &Query{Req: QueryRequest{Kind: "verify", Specs: []string{"prefix = 255.255.255.255/32 => PRE = POST"}}}); err != nil {
		t.Fatal(err)
	}
	hashed2, diffed2, shared2 := read()
	if hashed2 != hashed || diffed2 != diffed || shared2 != shared+len(base.Blocks()) {
		t.Fatalf("verify: hashed +%d diffed +%d shared +%d, want +0 +0 +%d", hashed2-hashed, diffed2-diffed, shared2-shared, len(base.Blocks()))
	}
	t.Logf("link %s: %d of %d rows hashed, %d diffed, %d of %d blocks shared", l.ID(), hashed, base.Len(), diffed, shared, len(base.Blocks()))
}

// TestWarmQueryForkWork pins the service's reason to exist — a what-if query
// against the warm daemon does a fraction of the work of a cold CLI
// invocation of the same scenario — on the counts of the fork the daemon's
// engine runs for a link failure (TestServeE2E pins the query's RIB digest
// against a cold run): no fallback, SPF sources reused, most tables left clean,
// fewer fixpoint rounds than from scratch, flows reused. Parallelism is
// pinned to 1, so the counts repeat exactly on every host. Client-visible
// latency is the repo benchmark's job (`bash benchmark/run.sh --workload
// serve_mix`).
func TestWarmQueryForkWork(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	opts := core.Options{Parallelism: 1}
	_, n := bareServer(t, out, Config{Sim: opts})
	id := out.Net.Topo.Links()[0].ID()
	scratch := out.Net.Clone()
	scratch.Topo.SetLinkUp(id, false)
	_, st, err := n.eng.WhatIf(context.Background(), core.Delta{LinksDown: []netmodel.LinkID{id}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := core.NewEngine(scratch, opts).Run(out.Inputs, out.Flows)
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

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRequestBodyLimits: every POST decoder reads through a bound. One byte
// past it is a 413 with a JSON error, whatever the body would have decoded to;
// a JSON body of exactly the bound still goes through. Requests go straight
// to the handler, so nothing depends on how a client sees an early reply.
func TestRequestBodyLimits(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	srv, _ := bareServer(t, out, Config{})
	post := func(path, contentType string, body io.Reader) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, body)
		req.Header.Set("X-API-Key", "k")
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	// padded is doc behind enough leading whitespace to make size bytes.
	padded := func(doc any, size int64) io.Reader {
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return io.MultiReader(io.LimitReader(spaces{}, size-int64(len(b))), bytes.NewReader(b))
	}
	query := QueryRequest{Kind: "verify", Specs: []string{"prefix = 255.255.255.255/32 => PRE = POST"}}
	upload := loadNetworkRequest{ID: "padded", Configs: out.ConfigTexts(), Inputs: out.Inputs, Flows: out.Flows}

	for _, tc := range []struct {
		name, path, contentType string
		body                    io.Reader
		want                    int
	}{
		{"query at the limit", "/v1/queries", "application/json", padded(query, maxQueryBody), http.StatusAccepted},
		{"query over the limit", "/v1/queries", "application/json", padded(query, maxQueryBody+1), http.StatusRequestEntityTooLarge},
		{"model at the limit", "/v1/networks", "application/json", padded(upload, maxNetworkBody), http.StatusCreated},
		{"model over the limit", "/v1/networks", "application/json", padded(upload, maxNetworkBody+1), http.StatusRequestEntityTooLarge},
	} {
		rec := post(tc.path, tc.contentType, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		if tc.want == http.StatusRequestEntityTooLarge {
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("%s: 413 body %q is not a JSON error", tc.name, rec.Body)
			}
		}
	}
}

// TestWhatIfUnknownDeviceFails: serve leaves the check to the engine, and the
// engine's rejection must come back as the query's error, not as a what-if of
// the failure-free network.
func TestWhatIfUnknownDeviceFails(t *testing.T) {
	srv, n := bareServer(t, gen.Generate(gen.WAN(1)), Config{})
	res, err := srv.runWhatIf(context.Background(), n, &Query{Req: QueryRequest{FailDevices: []string{"no-such-device"}}})
	if err == nil || res != nil || !strings.Contains(err.Error(), "no-such-device") {
		t.Fatalf("res=%v err=%v, want an error naming the device", res, err)
	}
}

// TestServePlanQuery pins what a plan query answers on the Figure 10(a)
// network and every Table 2 and Table 6 network whose plan is configuration
// commands alone: rib_digest, route_delta and each spec's verdict equal those
// of a cold run of the applied plan, digested and diffed from flat rows. A
// block naming an unknown device fails the query, and a query with no
// commands is rejected.
func TestServePlanQuery(t *testing.T) {
	scs := []*scenario.Scenario{scenario.Fig10a()}
	candidates := scenario.Table2Catalog()
	for _, rs := range scenario.Table6Catalog() {
		candidates = append(candidates, rs.Scenario)
	}
	for _, sc := range candidates {
		p := sc.Plan
		if len(p.Commands) > 0 && reflect.DeepEqual(*p, change.Plan{ID: p.ID, Type: p.Type, Description: p.Description, Commands: p.Commands}) {
			scs = append(scs, sc)
		}
	}
	ran := 0
	for _, sc := range scs {
		specs := []string{"prefix != 255.255.255.255/32 => PRE = POST"}
		for _, it := range sc.Intents {
			if ri, ok := it.(intent.RouteIntent); ok {
				specs = append(specs, ri.Spec)
			}
		}
		srv, n := bareServer(t, &gen.Output{Net: sc.Net, Inputs: sc.Inputs, Flows: sc.Flows}, Config{})
		got, err := srv.run(context.Background(), &Query{ID: "q", Req: QueryRequest{Kind: "plan", NetworkID: n.ID, Commands: sc.Plan.Commands, Specs: specs}})
		updated, applyErr := sc.Plan.Apply(sc.Net)
		if applyErr != nil {
			if want := strings.TrimPrefix(applyErr.Error(), "change "+sc.Plan.ID); err == nil || strings.TrimPrefix(err.Error(), "change q") != want {
				t.Fatalf("%s: plan does not apply (%v), yet the query answered %+v, %v", sc.Name, applyErr, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		ran++
		base := core.NewEngine(sc.Net, core.Options{}).Run(sc.Inputs, sc.Flows)
		cold := core.NewEngine(updated, core.Options{}).Run(sc.Plan.ApplyInputs(sc.Inputs), sc.Flows)
		baseRIB, coldRIB := netmodel.NewGlobalRIB(base.Routes.GlobalRIB().Rows()), cold.Routes.GlobalRIB()
		onlyBase, onlyCold := baseRIB.Diff(coldRIB)
		if want := ribDigest(coldRIB); got.RIBDigest != want {
			t.Errorf("%s: rib_digest %s, cold run %s", sc.Name, got.RIBDigest, want)
		}
		if want := len(onlyBase) + len(onlyCold); got.RouteDelta != want {
			t.Errorf("%s: route_delta %d, cold run %d", sc.Name, got.RouteDelta, want)
		}
		intents := make([]intent.Intent, len(specs))
		for i, spec := range specs {
			intents[i] = intent.RouteIntent{Spec: spec}
		}
		reports, ok := intent.Verify(&intent.Context{Base: *intent.SnapshotOf(base), Updated: *intent.SnapshotOf(cold)}, intents)
		if got.SpecsOK != ok || len(got.Specs) != len(reports) {
			t.Fatalf("%s: specs_ok %v over %d specs, cold run %v over %d", sc.Name, got.SpecsOK, len(got.Specs), ok, len(reports))
		}
		for i, rep := range reports {
			if g := got.Specs[i]; g.Satisfied != rep.Satisfied || !reflect.DeepEqual(g.Violations, rep.Violations) {
				t.Errorf("%s: spec %q: satisfied %v with %d violations, cold run %v with %d", sc.Name, rep.Intent, g.Satisfied, len(g.Violations), rep.Satisfied, len(rep.Violations))
			}
		}
	}
	if ran < 4 {
		t.Fatalf("fixture: only %d command plans applied", ran)
	}

	srv, n := bareServer(t, gen.Generate(gen.WAN(1)), Config{})
	for _, bad := range []struct {
		commands map[string]string
		want     string
	}{
		{map[string]string{"no-such-device": "router bgp 65000\n"}, `unknown device "no-such-device"`},
		{nil, "carries no commands"},
	} {
		res, err := srv.run(context.Background(), &Query{ID: "q", Req: QueryRequest{Kind: "plan", NetworkID: n.ID, Commands: bad.commands}})
		if err == nil || res != nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("commands %v: res=%v err=%v, want an error containing %q", bad.commands, res, err, bad.want)
		}
	}
}
