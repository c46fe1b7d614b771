package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/kfail"
	"hoyan/internal/telemetry"
)

// workerLoop is one worker goroutine: pop, execute, record, repeat until the
// queue closes.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		qu, err := s.queue.Pop()
		if err != nil {
			return
		}
		s.execute(qu)
	}
}

// execute runs one query to a terminal state and records it in history.
func (s *Server) execute(qu *Query) {
	defer s.queriesWG.Done()
	defer qu.Tenant.release()
	defer func() { qu.net, qu.delta = nil, core.Delta{} }()
	s.mQueueDepth.Set(float64(s.queue.Depth()))

	if !qu.setRunning() {
		return // canceled while queued
	}
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)
	wait := time.Since(qu.enqueuedAt)
	s.mQueueWait.Observe(wait.Seconds())

	deadline := s.cfg.DefaultDeadline
	if qu.Req.DeadlineMS > 0 {
		deadline = time.Duration(qu.Req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	qu.setCancel(cancel)
	defer cancel()

	start := time.Now()
	res, err := func() (res *QueryResult, err error) {
		// A panic fails this query alone, never the daemon; its stack goes
		// on the query's event stream.
		defer func() {
			if v := recover(); v != nil {
				s.reg.Counter("serve_query_panics_total", "queries that panicked").Inc()
				err = fmt.Errorf("query panicked: %v", v)
				qu.emit("query.failed", map[string]string{"error": err.Error(), "stack": string(debug.Stack())})
			}
		}()
		return s.run(ctx, qu)
	}()
	kind := kindOf(qu.Req)
	s.reg.Histogram("serve_query_latency_seconds",
		"what-if query execution latency by kind",
		telemetry.DurationBuckets, telemetry.L("kind", kind)).Observe(time.Since(start).Seconds())

	switch {
	case err == nil:
		qu.finish(StateDone, res, "")
	case errors.Is(err, context.Canceled):
		qu.finish(StateCanceled, nil, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		qu.finish(StateFailed, nil, "deadline exceeded")
	default:
		qu.finish(StateFailed, nil, err.Error())
	}
}

// record persists a query's final status to the run-history store; it is
// the persist hook of every admitted query.
func (s *Server) record(qu *Query, st Status) {
	if s.hist == nil {
		return
	}
	e := HistoryEntry{
		ID:          st.ID,
		Tenant:      st.Tenant,
		Kind:        kindOf(qu.Req),
		NetworkID:   qu.Req.NetworkID,
		State:       st.State,
		Error:       st.Error,
		EnqueuedAt:  st.EnqueuedAt,
		QueueWaitMS: st.QueueWaitMS,
		RunMS:       st.RunMS,
	}
	if st.FinishedAt != nil {
		e.FinishedAt = *st.FinishedAt
	}
	if err := s.hist.Record(e, st.Result); err != nil {
		s.reg.Counter("serve_history_errors_total", "run-history writes that failed").Inc()
	}
}

func kindOf(req QueryRequest) string {
	if req.Kind == "" {
		return "whatif"
	}
	return req.Kind
}

// run dispatches to the per-kind executor. A plan query submitted over HTTP
// runs on the network it was resolved against, not on whatever network
// holds its ID now.
func (s *Server) run(ctx context.Context, qu *Query) (*QueryResult, error) {
	n, err := qu.net, error(nil)
	if n == nil {
		n, err = s.network(qu.Req.NetworkID)
	}
	if err != nil {
		return nil, err
	}
	switch kindOf(qu.Req) {
	case "whatif", "plan":
		return s.runWhatIf(ctx, n, qu)
	case "verify":
		return s.runVerify(n, qu)
	case "kfail":
		return s.runKfail(ctx, n, qu)
	default:
		return nil, fmt.Errorf("serve: unknown query kind %q", qu.Req.Kind)
	}
}

// buildDelta resolves a query into an engine delta: a plan query's commands
// into the devices they reconfigure (change.Plan.Delta), a what-if's failures
// into flips. The engine rejects a device the network does not have; links
// arrive as endpoint pairs and are resolved here.
func buildDelta(n *Network, qu *Query) (core.Delta, error) {
	if kindOf(qu.Req) == "plan" {
		if len(qu.Req.Commands) == 0 {
			return core.Delta{}, fmt.Errorf("serve: plan query carries no commands")
		}
		return (&change.Plan{ID: qu.ID, Commands: qu.Req.Commands}).Delta(n.net)
	}
	ids, err := n.resolveLinks(qu.Req.FailLinks)
	if err != nil {
		return core.Delta{}, err
	}
	d := core.Delta{LinksDown: ids, NodesDown: qu.Req.FailDevices}
	if len(d.LinksDown) == 0 && len(d.NodesDown) == 0 {
		return d, fmt.Errorf("serve: what-if query fails nothing (set fail_links or fail_devices)")
	}
	return d, nil
}

// runWhatIf forks the warm engine under the requested failures or commands
// and verifies any attached specs against (base, updated). A plan query
// submitted over HTTP carries the delta resolved at its submit.
func (s *Server) runWhatIf(ctx context.Context, n *Network, qu *Query) (*QueryResult, error) {
	d, err := qu.delta, error(nil)
	if qu.net == nil {
		d, err = buildDelta(n, qu)
	}
	if err != nil {
		return nil, err
	}
	res, _, err := n.eng.WhatIf(ctx, d, s.cfg.QueryParallelism)
	if err != nil {
		return nil, err
	}
	return s.assemble(n, res, qu.Req.Specs)
}

// runVerify checks specs against the unchanged base state (updated == base).
func (s *Server) runVerify(n *Network, qu *Query) (*QueryResult, error) {
	if len(qu.Req.Specs) == 0 {
		return nil, fmt.Errorf("serve: verify query carries no specs")
	}
	return s.assemble(n, n.base, qu.Req.Specs)
}

// runKfail sweeps failure combinations off the warm engine, streaming
// progress events.
func (s *Server) runKfail(ctx context.Context, n *Network, qu *Query) (*QueryResult, error) {
	k := qu.Req.K
	if k < 1 {
		k = 1
	}
	maxScen := qu.Req.MaxScenarios
	if maxScen <= 0 {
		maxScen = 512
	}
	intents := make([]intent.Intent, 0, len(qu.Req.Specs))
	for _, spec := range qu.Req.Specs {
		intents = append(intents, intent.RouteIntent{Spec: spec})
	}

	// Query-level parallelism owns the worker pool, so the sweep is
	// sequential, but each scenario fork may still use this query's core
	// slice; without the cap, warm forks off n.eng ran at full engine
	// parallelism and one sweep starved every other tenant's queries.
	simOpts := s.cfg.Sim
	simOpts.Parallelism = s.cfg.QueryParallelism
	res, err := kfail.Check(n.net, n.inputs, n.flows, intents, kfail.Options{
		K:            k,
		MaxScenarios: maxScen,
		Sim:          simOpts,
		Parallelism:  1,
		Engine:       n.eng,
		Ctx:          ctx,
		Progress: func(done, total int) {
			if done%16 == 0 || done == total {
				qu.emit("progress", map[string]int{"done": done, "total": total})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out := &QueryResult{
		BaseDigest: n.baseDig,
		SpecsOK:    res.OK(),
		Kfail:      &KfailSummary{Scenarios: res.Scenarios, Violations: len(res.Violations)},
	}
	for i, v := range res.Violations {
		if i >= 8 {
			break
		}
		var parts []string
		for _, el := range v.Failed {
			parts = append(parts, el.String())
		}
		line := fmt.Sprintf("failed={%s}", strings.Join(parts, ","))
		for _, rep := range v.Reports {
			if !rep.Satisfied {
				line += " intent=" + rep.Intent
			}
		}
		out.Kfail.Worst = append(out.Kfail.Worst, line)
	}
	return out, nil
}

// assemble digests the updated state, diffs it against base, and checks the
// attached specs.
func (s *Server) assemble(n *Network, res *core.Result, specs []string) (*QueryResult, error) {
	updated := res.Routes.GlobalRIB()
	digest, work := n.digestAgainstBase(updated)
	out := &QueryResult{
		RIBDigest:  digest,
		BaseDigest: n.baseDig,
		SpecsOK:    true,
	}
	s.mRowsHashed.Add(int64(work.hashed))
	s.mBlocksShared.Add(int64(work.sharedBlocks))
	// Equal digests mean identical row sets — skip the Diff. Failures that
	// leave routing untouched are common enough to fast-path.
	if out.RIBDigest != out.BaseDigest {
		onlyBase, onlyUpdated := n.base.Routes.GlobalRIB().Diff(updated)
		out.RouteDelta = len(onlyBase) + len(onlyUpdated)
		s.mRowsDiffed.Add(int64(work.unshared))
	}
	if len(specs) > 0 {
		intents := make([]intent.Intent, 0, len(specs))
		for _, spec := range specs {
			intents = append(intents, intent.RouteIntent{Spec: spec})
		}
		ictx := &intent.Context{Base: *n.baseSnap, Updated: *intent.SnapshotOf(res)}
		reports, ok := intent.Verify(ictx, intents)
		out.SpecsOK = ok
		for _, rep := range reports {
			out.Specs = append(out.Specs, SpecReport{
				Spec:       rep.Intent,
				Satisfied:  rep.Satisfied,
				Violations: rep.Violations,
			})
		}
	}
	return out, nil
}
