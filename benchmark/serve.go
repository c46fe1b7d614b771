package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
	"hoyan/internal/telemetry"
)

const (
	serveWorkers = 2
	serveAPIKey  = "key-bench"
	// serveSpec is the RCL intent verify queries carry: it selects no route, so
	// its cost is the evaluator scanning both RIBs.
	serveSpec = "prefix = 255.255.255.255/32 => PRE = POST"
)

// serveQuery is one generated request: its kind, the key its expected
// rib_digest is remembered under, and the body.
type serveQuery struct {
	kind string // "whatif_link" | "whatif_device" | "verify"
	key  string
	body []byte
}

// serveReply is the part of serve.Status the client reads.
type serveReply struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		RIBDigest  string `json:"rib_digest"`
		BaseDigest string `json:"base_digest"`
	} `json:"result"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RunMS       float64 `json:"run_ms"`
}

// serveInstance is serve_mix: an in-process hoyand behind a real HTTP
// listener, queried closed-loop with synchronous (?wait=1) submits.
type serveInstance struct {
	e      *env
	g      *gen.Output
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	reg    *telemetry.Registry // traced run only
	loadS  float64             // wall time of Server.LoadNetwork

	queries []serveQuery

	mu         sync.Mutex
	baseDigest string
	digests    map[string]string // query key → rib_digest at first occurrence
	// Of the traced operations: client round trips by kind, and the server's
	// own per-query timings from the replies.
	byKind     map[string][]float64
	wait, runS []float64

	// From the cross-check, kept for the digest/diff probes.
	baseRIB, failedRIB *netmodel.GlobalRIB
}

func setupServe(e *env) (instance, error) {
	s := &serveInstance{
		e: e, g: gen.Generate(wan6(e.seed)),
		digests: map[string]string{}, byKind: map[string][]float64{},
	}
	if e.tr != nil {
		s.reg = telemetry.NewRegistry()
	}
	var err error
	s.srv, err = serve.NewServer(serve.Config{
		Tenants:  []serve.TenantConfig{{Name: "bench", APIKey: serveAPIKey}},
		Workers:  serveWorkers,
		Registry: s.reg,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := s.srv.LoadNetwork("bench", s.g.Net, s.g.Inputs, s.g.Flows, true); err != nil {
		return nil, err
	}
	s.loadS = time.Since(start).Seconds()
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveWorkers}}

	// The mix, in shuffled blocks of ten so every run sees exactly 70 % link
	// what-ifs, 10 % device what-ifs and 20 % verify queries. What fails is
	// drawn without replacement from a fixed pool — every 13th link and every
	// 40th device of the fixture, 13 links and 3 devices across regions and
	// kinds — small enough that a run cycles it several times and so does the
	// same work whatever its seed; the seed decides the order.
	rnd := e.rng("serve-mix")
	var links, devices []string // request bodies' variable parts
	for i, l := range s.g.Net.Topo.Links() {
		if i%13 == 6 {
			links = append(links, l.A+"--"+l.B)
		}
	}
	for i, d := range s.g.Net.DeviceNames() {
		if i%40 == 20 {
			devices = append(devices, d)
		}
	}
	draw := func(pool []string, at *int) string {
		if *at%len(pool) == 0 {
			rnd.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		}
		*at++
		return pool[(*at-1)%len(pool)]
	}
	var nextLink, nextDevice int
	block := []string{"whatif_link", "whatif_link", "whatif_link", "whatif_link", "whatif_link",
		"whatif_link", "whatif_link", "whatif_device", "verify", "verify"}
	for len(s.queries) < 2000 {
		rnd.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			q := serveQuery{kind: kind, key: kind}
			var req serve.QueryRequest
			switch kind {
			case "whatif_link":
				q.key = draw(links, &nextLink)
				a, b, _ := strings.Cut(q.key, "--")
				req = serve.QueryRequest{Kind: "whatif", FailLinks: []serve.LinkRef{{A: a, B: b}}}
			case "whatif_device":
				q.key = draw(devices, &nextDevice)
				req = serve.QueryRequest{Kind: "whatif", FailDevices: []string{q.key}}
			case "verify":
				req = serve.QueryRequest{Kind: "verify", Specs: []string{serveSpec}}
			}
			if q.body, err = json.Marshal(req); err != nil {
				return nil, err
			}
			s.queries = append(s.queries, q)
		}
	}
	// Warm-up: one block fills the server's scratch-clone pool and the
	// client's connection pool.
	for i := 0; i < len(block); i++ {
		if err := s.op(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// submit posts one query synchronously. A 429 is retried three times before
// the query counts as refused.
func (s *serveInstance) submit(q serveQuery) (serveReply, error) {
	var rep serveReply
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", s.ts.URL+"/v1/queries?wait=1", bytes.NewReader(q.body))
		if err != nil {
			return rep, err
		}
		req.Header.Set("X-API-Key", serveAPIKey)
		resp, err := s.client.Do(req)
		if err != nil {
			return rep, err
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 3 {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return rep, fmt.Errorf("%s: HTTP %d", q.key, resp.StatusCode)
		}
		return rep, err
	}
}

// check enforces: done, a constant base digest, and the same rib_digest for
// the same failure every time it is asked.
func (s *serveInstance) check(q serveQuery, rep serveReply) error {
	if rep.State != serve.StateDone || rep.Result == nil {
		return fmt.Errorf("%s: ended %q (%s)", q.key, rep.State, rep.Error)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseDigest == "" {
		s.baseDigest = rep.Result.BaseDigest
	}
	if rep.Result.BaseDigest != s.baseDigest {
		return fmt.Errorf("%s: base_digest %s, earlier replies said %s", q.key, rep.Result.BaseDigest, s.baseDigest)
	}
	want, seen := s.digests[q.key]
	if q.kind == "verify" {
		want, seen = s.baseDigest, true
	}
	if !seen {
		s.digests[q.key] = rep.Result.RIBDigest
	} else if rep.Result.RIBDigest != want {
		return fmt.Errorf("%s: rib_digest %s, want %s", q.key, rep.Result.RIBDigest, want)
	}
	return nil
}

func (s *serveInstance) op(i int) error {
	q := s.queries[i%len(s.queries)]
	rep, err := s.submit(q)
	if err != nil {
		return err
	}
	return s.check(q, rep)
}

// tracedOp wraps the round trip in a span and files the server's own account
// of the query (queue wait, run time) under it; what remains is HTTP,
// admission and JSON.
func (s *serveInstance) tracedOp(i int) error {
	tr := s.e.tr
	q := s.queries[i%len(s.queries)]
	root := tr.StartRoot("op")
	root.SetTag("kind", q.kind)
	start := time.Now()
	rep, err := s.submit(q)
	dt := time.Since(start)
	root.End()
	if err != nil {
		return err
	}
	wait := time.Duration(rep.QueueWaitMS * float64(time.Millisecond))
	run := time.Duration(rep.RunMS * float64(time.Millisecond))
	// The reply carries durations, not instants: place them at the end of the
	// round trip, where they happened bar the response's way back.
	end := start.Add(dt)
	tr.RecordSpan(root.Context(), "serve.queue_wait", end.Add(-run-wait), wait)
	tr.RecordSpan(root.Context(), "serve.run", end.Add(-run), run)
	s.mu.Lock()
	s.byKind[q.kind] = append(s.byKind[q.kind], dt.Seconds())
	s.wait = append(s.wait, wait.Seconds())
	s.runS = append(s.runS, run.Seconds())
	s.mu.Unlock()
	return s.check(q, rep)
}

// laneDigest recomputes hoyand's order-independent RIB digest (per-row sha256
// of the route signature, summed in four 64-bit lanes) from its description,
// so replies can be checked against an engine the server never touched.
func laneDigest(g *netmodel.GlobalRIB) string {
	var acc [4]uint64
	buf := netmodel.GetSigBuf()
	defer netmodel.PutSigBuf(buf)
	rows := g.Rows()
	for i := range rows {
		*buf = rows[i].AppendSignature((*buf)[:0])
		h := sha256.Sum256(*buf)
		for lane := range acc {
			acc[lane] += binary.BigEndian.Uint64(h[lane*8:])
		}
	}
	var out [32]byte
	for lane, v := range acc {
		binary.BigEndian.PutUint64(out[lane*8:], v)
	}
	return hex.EncodeToString(out[:])
}

// crossCheck asks hoyand about the base state and two seeded link failures
// and compares its digests with from-scratch engine runs on those topologies.
func (s *serveInstance) crossCheck() error {
	rep, err := s.submit(serveQuery{kind: "verify", key: "verify",
		body: []byte(`{"kind":"verify","specs":["` + serveSpec + `"]}`)})
	if err != nil {
		return err
	}
	if rep.Result == nil {
		return fmt.Errorf("verify query ended %q (%s)", rep.State, rep.Error)
	}
	s.baseRIB = core.NewEngine(s.g.Net, core.Options{}).Run(s.g.Inputs, s.g.Flows).Routes.GlobalRIB()
	if got, want := rep.Result.BaseDigest, laneDigest(s.baseRIB); got != want {
		return fmt.Errorf("hoyand base_digest %s, from-scratch engine %s", got, want)
	}
	links := s.g.Net.Topo.Links()
	scratch := s.g.Net.Clone()
	for _, i := range s.e.rng("serve-crosscheck").Perm(len(links))[:2] {
		l := links[i]
		body, _ := json.Marshal(serve.QueryRequest{Kind: "whatif", FailLinks: []serve.LinkRef{{A: l.A, B: l.B}}})
		rep, err := s.submit(serveQuery{kind: "whatif_link", key: l.A + "--" + l.B, body: body})
		if err != nil {
			return err
		}
		if rep.Result == nil {
			return fmt.Errorf("link %s what-if ended %q (%s)", l.ID(), rep.State, rep.Error)
		}
		_, undo := failLink(scratch, l.ID())
		s.failedRIB = core.NewEngine(scratch, core.Options{}).Run(s.g.Inputs, s.g.Flows).Routes.GlobalRIB()
		undo()
		if got, want := rep.Result.RIBDigest, laneDigest(s.failedRIB); got != want {
			return fmt.Errorf("link %s down: hoyand rib_digest %s, from-scratch engine %s", l.ID(), got, want)
		}
	}
	return nil
}

func (s *serveInstance) layers() map[string]float64 {
	tr := s.e.tr
	probe := tr.StartRoot("probe").Context()
	probeBase(tr, probe, s.g.Net)
	// What every what-if reply costs after its fork: digesting the updated RIB
	// and diffing it against base.
	span(tr, probe, "netmodel.digest", func() { laneDigest(s.failedRIB) })
	span(tr, probe, "netmodel.diff", func() { s.baseRIB.Diff(s.failedRIB) })

	var rejected float64
	for _, series := range s.reg.Gather() {
		if series.Name == "serve_rejected_total" {
			rejected += series.Value
		}
	}
	ix := indexSpans(tr.Spans())
	m := map[string]float64{
		"serve.load_network_s":      s.loadS,
		"serve.whatif_link_s_p50":   median(s.byKind["whatif_link"]),
		"serve.whatif_device_s_p50": median(s.byKind["whatif_device"]),
		"serve.verify_s_p50":        median(s.byKind["verify"]),
		"serve.op_s_p95":            percentile(slices.Concat(s.byKind["whatif_link"], s.byKind["whatif_device"], s.byKind["verify"]), 95),
		"serve.queue_wait_s_p50":    median(s.wait),
		"serve.queue_wait_s_p95":    percentile(s.wait, 95),
		"serve.run_s_p50":           median(s.runS),
		"serve.rejected":            rejected,
		"netmodel.rib_rows":         float64(s.baseRIB.Len()),
		"trace.unattributed_share":  median(ix.selfShares("op")),
	}
	ix.layerTimes(m, "isis.spf", "core.new_engine", "netmodel.digest", "netmodel.diff")
	return m
}

func (s *serveInstance) facts() map[string]string {
	return map[string]string{"base_digest": s.baseDigest, "base_rib_rows": strconv.Itoa(s.baseRIB.Len())}
}

func (s *serveInstance) info() map[string]any {
	info := fixtureInfo("wan6", s.g)
	info["server_workers"] = serveWorkers
	info["mix"] = "70% whatif-link / 10% whatif-device / 20% verify-with-spec"
	return info
}

func (s *serveInstance) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}
