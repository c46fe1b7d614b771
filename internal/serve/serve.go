// Package serve implements hoyand: verification-as-a-service. A long-running
// daemon loads a network snapshot once, converges the base simulation, and
// then answers what-if queries over REST/JSON — each query an incremental
// fork of the warm base state rather than a cold CLI run. Multi-tenant
// admission (API keys, token buckets, in-flight quotas), a weighted fair
// queue with bounded depth and 429 backpressure, a worker pool with
// per-query deadlines and cancellation, SSE progress streaming, and a
// WAL-backed run history ride under the API.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/netmodel"
	"hoyan/internal/telemetry"
)

// Config parameterizes the server.
type Config struct {
	// Tenants are the authorized API clients. At least one is required.
	Tenants []TenantConfig
	// QueueDepth bounds the total pending queries (default 256); beyond it
	// POST /v1/queries returns 429.
	QueueDepth int
	// Workers sizes the execution pool (default 4).
	Workers int
	// QueryParallelism caps the simulation cores any single query may use
	// (SPF, ECs, forwarding and global-RIB fill; a fork's warm fixpoint is
	// sequential).
	// Without a cap, every query forks with the engine's full parallelism,
	// so one tenant's kfail sweep can occupy the whole machine while other
	// tenants' queries — admitted and nominally running — crawl. Default
	// NumCPU/Workers (min 1): the pool saturates the machine, each query
	// gets its fair slice. Results are byte-identical at every setting.
	QueryParallelism int
	// DefaultDeadline caps a query's run time unless it sets deadline_ms
	// (default 60s).
	DefaultDeadline time.Duration
	// HistoryDir, when set, enables the WAL-backed run history under this
	// directory.
	HistoryDir string
	// HistorySize bounds retained history entries (default 1024).
	HistorySize int
	// Durable sets the history store's fsync policy.
	Durable durable.Options
	// Registry receives the serve metrics; nil runs unmetered.
	Registry *telemetry.Registry
	// Sim holds the engine options used for loaded snapshots.
	Sim core.Options
}

// Server is the hoyand query service.
type Server struct {
	cfg   Config
	adm   *admission
	queue *queue
	hist  *history
	reg   *telemetry.Registry

	mu       sync.Mutex
	networks map[string]*Network
	active   string
	queries  map[string]*Query

	nextID    atomic.Int64
	draining  atomic.Bool
	queriesWG sync.WaitGroup
	wg        sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mQueueDepth *telemetry.Gauge
	mInflight   *telemetry.Gauge
	mQueueWait  *telemetry.Histogram
	// Work a query's digest and diff did and avoided: rows of its RIB hashed,
	// rows of both RIBs diffed, and base blocks shared and therefore skipped.
	mRowsHashed   *telemetry.Counter
	mRowsDiffed   *telemetry.Counter
	mBlocksShared *telemetry.Counter
}

// NewServer builds the service and starts its worker pool.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: at least one tenant is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.QueryParallelism <= 0 {
		cfg.QueryParallelism = runtime.NumCPU() / cfg.Workers
		if cfg.QueryParallelism < 1 {
			cfg.QueryParallelism = 1
		}
	}
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.Tenants),
		queue:    newQueue(cfg.QueueDepth),
		reg:      cfg.Registry,
		networks: make(map[string]*Network),
		queries:  make(map[string]*Query),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.HistoryDir != "" {
		h, err := openHistory(cfg.HistoryDir, cfg.HistorySize, cfg.Durable, cfg.Registry)
		if err != nil {
			return nil, err
		}
		s.hist = h
	}
	s.mQueueDepth = s.reg.Gauge("serve_queue_depth", "queries waiting in the admission queue")
	s.mInflight = s.reg.Gauge("serve_inflight_queries", "queries currently executing")
	s.mQueueWait = s.reg.Histogram("serve_queue_wait_seconds",
		"time from admission to execution start", telemetry.DurationBuckets)
	s.mRowsHashed = s.reg.Counter("serve_rib_rows_hashed_total", "RIB rows hashed for query digests (rows of blocks not shared with the base)")
	s.mRowsDiffed = s.reg.Counter("serve_rib_rows_diffed_total", "RIB rows diffed against the base, both sides (rows of blocks not shared)")
	s.mBlocksShared = s.reg.Counter("serve_rib_blocks_shared_total", "device blocks a query's RIB shared with the base, skipped by digest and diff")
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	return s, nil
}

// LoadNetwork parses nothing — the model is already built — but runs the
// expensive base simulation once and registers the snapshot under id. When
// activate is true (or it is the first network), it becomes the default
// target for queries without a network_id.
func (s *Server) LoadNetwork(id string, net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, activate bool) (*Network, error) {
	n, err := loadNetwork(id, net, inputs, flows, s.cfg.Sim)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.networks[id] = n
	if activate || s.active == "" {
		// Snapshot swap: in-flight queries against the old network hold their
		// own *Network and finish undisturbed; only new queries see the swap.
		s.active = id
	}
	return n, nil
}

// network resolves a query's target network (empty id = active).
func (s *Server) network(id string) (*Network, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		id = s.active
	}
	if id == "" {
		return nil, fmt.Errorf("serve: no network loaded")
	}
	n, ok := s.networks[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown network %q", id)
	}
	return n, nil
}

// Active returns the active network's ID ("" when none is loaded).
func (s *Server) Active() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Shutdown drains the service: new queries are rejected with 503, queued and
// running ones finish (cancelled if ctx expires first), then the workers,
// queue, and history store close. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Drain()

	done := make(chan struct{})
	go func() {
		s.queriesWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline hit: cancel everything still running and wait it out.
		s.baseCancel()
		<-done
	}

	for _, orphan := range s.queue.Close() {
		// Defensive: queriesWG.Wait already returned, so the queue should be
		// empty; any straggler is failed cleanly.
		orphan.finish(StateCanceled, nil, "server shutting down")
	}
	s.wg.Wait()
	s.baseCancel()
	if s.hist != nil {
		return s.hist.Close()
	}
	return nil
}

// Handler returns the REST mux, including the standard ops endpoints
// (/metrics, /healthz, /debug/pprof/) merged from internal/telemetry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/networks", s.handleLoadNetwork)
	mux.HandleFunc("GET /v1/networks", s.handleListNetworks)
	mux.HandleFunc("GET /v1/networks/{id}/rib", s.handleRIB)
	mux.HandleFunc("POST /v1/queries", s.handleSubmit)
	mux.HandleFunc("GET /v1/queries", s.handleListQueries)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleGetQuery)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleCancelQuery)
	mux.HandleFunc("GET /v1/history", s.handleHistory)
	mux.HandleFunc("GET /v1/history/{id}/result", s.handleHistoryResult)

	ops := telemetry.NewOpsHandler(s.reg, s.health, nil)
	mux.Handle("/metrics", ops)
	mux.Handle("/healthz", ops)
	mux.Handle("/debug/pprof/", ops)
	return mux
}

// health reports draining as unhealthy so load balancers stop routing here
// during shutdown.
func (s *Server) health() error {
	if s.draining.Load() {
		return fmt.Errorf("draining")
	}
	if s.hist != nil {
		if err := s.hist.wal.Healthy(); err != nil {
			return err
		}
	}
	return nil
}

// ---- HTTP helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request bodies are read through http.MaxBytesReader, so a client cannot
// make a decoder buffer an unbounded body. A query carries specs and per-device
// command blocks; a network upload carries every configuration, input route
// and flow.
const (
	maxQueryBody   = 8 << 20
	maxNetworkBody = 64 << 20
)

// writeDecodeError answers a request whose body did not decode: 413 when the
// decoder ran into the body limit, 400 otherwise.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// authTenant authenticates or writes 401.
func (s *Server) authTenant(w http.ResponseWriter, r *http.Request) *tenant {
	t := s.adm.authenticate(r)
	if t == nil {
		writeError(w, http.StatusUnauthorized, "missing or unknown API key")
		return nil
	}
	return t
}

func (s *Server) reject(t *tenant, reason string) {
	s.reg.Counter("serve_rejected_total", "queries rejected at admission",
		telemetry.L("tenant", t.cfg.Name), telemetry.L("reason", reason)).Inc()
}

// ---- network handlers ----

// loadNetworkRequest is the JSON body of POST /v1/networks: a model's
// configurations, input routes and flows.
type loadNetworkRequest struct {
	ID       string            `json:"id"`
	Configs  map[string]string `json:"configs"`
	Inputs   []netmodel.Route  `json:"inputs,omitempty"`
	Flows    []netmodel.Flow   `json:"flows,omitempty"`
	Activate *bool             `json:"activate,omitempty"`
}

type networkInfo struct {
	ID         string    `json:"id"`
	Active     bool      `json:"active"`
	Devices    int       `json:"devices"`
	Links      int       `json:"links"`
	BaseRoutes int       `json:"base_routes"`
	BaseDigest string    `json:"base_digest"`
	LoadedAt   time.Time `json:"loaded_at"`
	LoadMS     float64   `json:"load_ms,omitempty"`
	// Findings are config.Validate's findings on an uploaded network.
	Findings []string `json:"findings,omitempty"`
}

func (s *Server) networkInfo(n *Network) networkInfo {
	return networkInfo{
		ID:         n.ID,
		Active:     s.Active() == n.ID,
		Devices:    len(n.net.Devices),
		Links:      len(n.net.Topo.Links()),
		BaseRoutes: n.base.Routes.GlobalRIB().Len(),
		BaseDigest: n.baseDig,
		LoadedAt:   n.loadedAt,
	}
}

func (s *Server) handleLoadNetwork(w http.ResponseWriter, r *http.Request) {
	if s.authTenant(w, r) == nil {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxNetworkBody)
	start := time.Now()
	var req loadNetworkRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, "decoding request", err)
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "configs is required")
		return
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("net-%d", time.Now().UnixNano())
	}
	net, err := config.BuildNetworkOpts(req.Configs, nil, config.BuildOptions{Parallelism: 0})
	if err != nil {
		writeError(w, http.StatusBadRequest, "building network: %v", err)
		return
	}
	var findings []string
	for _, f := range net.Validate() {
		findings = append(findings, f.String())
	}
	n, err := s.LoadNetwork(id, net, req.Inputs, req.Flows, req.Activate == nil || *req.Activate)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "loading network: %v", err)
		return
	}
	info := s.networkInfo(n)
	info.LoadMS = float64(time.Since(start)) / float64(time.Millisecond)
	info.Findings = findings
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListNetworks(w http.ResponseWriter, r *http.Request) {
	if s.authTenant(w, r) == nil {
		return
	}
	s.mu.Lock()
	nets := make([]*Network, 0, len(s.networks))
	for _, n := range s.networks {
		nets = append(nets, n)
	}
	s.mu.Unlock()
	out := make([]networkInfo, 0, len(nets))
	for _, n := range nets {
		out = append(out, s.networkInfo(n))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRIB(w http.ResponseWriter, r *http.Request) {
	if s.authTenant(w, r) == nil {
		return
	}
	n, err := s.network(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	rows := n.ribQuery(r.URL.Query().Get("device"), r.URL.Query().Get("prefix"), limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"network_id": n.ID,
		"rows":       rows,
		"count":      len(rows),
	})
}

// ---- query handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		writeDecodeError(w, "decoding request", err)
		return
	}
	n, err := s.network(req.NetworkID)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	if ok, retry := t.admit(time.Now()); !ok {
		s.reject(t, "rate")
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
		writeError(w, http.StatusTooManyRequests, "tenant %s over rate limit", t.cfg.Name)
		return
	}
	if !t.acquire() {
		s.reject(t, "quota")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "tenant %s at max in-flight queries", t.cfg.Name)
		return
	}

	id := fmt.Sprintf("q-%06d", s.nextID.Add(1))
	qu := newQuery(id, t, req)
	// A plan is resolved once, here: one that does not apply is refused
	// rather than failed in the queue, and the query runs on the network it
	// was resolved against even if a newer one replaces it meanwhile.
	if kindOf(req) == "plan" {
		if qu.delta, err = buildDelta(n, qu); err != nil {
			t.release()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		qu.net = n
	}
	qu.persist = func(st Status) { s.record(qu, st) }
	s.queriesWG.Add(1)
	if err := s.queue.Push(t, qu); err != nil {
		s.queriesWG.Done()
		t.release()
		if err == ErrQueueFull {
			s.reject(t, "queue")
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "query queue full")
		} else {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	s.mu.Lock()
	s.queries[id] = qu
	s.mu.Unlock()
	s.reg.Counter("serve_queries_total", "queries admitted",
		telemetry.L("tenant", t.cfg.Name)).Inc()
	s.mQueueDepth.Set(float64(s.queue.Depth()))

	// ?wait=1 turns the submit synchronous: the response is the terminal
	// status (result included) instead of 202 + a second status round trip.
	// The query keeps running if the client goes away — it was admitted.
	if v := r.URL.Query().Get("wait"); v == "1" || v == "true" {
		select {
		case <-qu.Done():
			writeJSON(w, http.StatusOK, qu.Snapshot())
		case <-r.Context().Done():
		}
		return
	}
	writeJSON(w, http.StatusAccepted, qu.Snapshot())
}

// lookupQuery enforces tenant visibility: another tenant's query is a 404,
// not a 403, so IDs don't leak.
func (s *Server) lookupQuery(w http.ResponseWriter, r *http.Request, t *tenant) *Query {
	s.mu.Lock()
	qu := s.queries[r.PathValue("id")]
	s.mu.Unlock()
	if qu == nil || qu.Tenant != t {
		writeError(w, http.StatusNotFound, "unknown query")
		return nil
	}
	return qu
}

func (s *Server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	qu := s.lookupQuery(w, r, t)
	if qu == nil {
		return
	}
	if r.Header.Get("Accept") == "text/event-stream" {
		s.streamQuery(w, r, qu)
		return
	}
	writeJSON(w, http.StatusOK, qu.Snapshot())
}

// streamQuery replays the query's events and follows live ones until the
// query reaches a terminal state or the client disconnects.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, qu *Query) {
	sse := newSSEWriter(w)
	if sse == nil {
		writeJSON(w, http.StatusOK, qu.Snapshot())
		return
	}
	replay, live, unsub := qu.Subscribe()
	defer unsub()
	for _, ev := range replay {
		if sse.Send(ev) != nil {
			return
		}
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if sse.Send(ev) != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancelQuery(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	qu := s.lookupQuery(w, r, t)
	if qu == nil {
		return
	}
	qu.Cancel()
	writeJSON(w, http.StatusOK, qu.Snapshot())
}

func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	s.mu.Lock()
	var out []Status
	for _, qu := range s.queries {
		if qu.Tenant == t {
			out = append(out, qu.Snapshot())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// ---- history handlers ----

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	if s.hist == nil {
		writeJSON(w, http.StatusOK, []HistoryEntry{})
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, _ = strconv.Atoi(v)
	}
	writeJSON(w, http.StatusOK, s.hist.List(t.cfg.Name, limit))
}

func (s *Server) handleHistoryResult(w http.ResponseWriter, r *http.Request) {
	t := s.authTenant(w, r)
	if t == nil {
		return
	}
	if s.hist == nil {
		writeError(w, http.StatusNotFound, "history disabled")
		return
	}
	id := r.PathValue("id")
	e, ok := s.hist.Entry(id)
	if !ok || e.Tenant != t.cfg.Name {
		writeError(w, http.StatusNotFound, "unknown history entry")
		return
	}
	if e.ResultKey == "" {
		writeError(w, http.StatusNotFound, "entry has no stored result")
		return
	}
	res, err := s.hist.Result(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
