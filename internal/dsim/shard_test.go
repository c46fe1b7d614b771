package dsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hoyan/internal/core"
	"hoyan/internal/faults"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/shard"
	"hoyan/internal/taskdb"
)

// TestShardWholeNetworkEquivalence pins the tentpole's hard requirement at
// the distributed layer: the sharded fleet's stitched base RIB — and every
// contained what-if scenario's — is byte-identical to the whole-network
// distributed path, and the stitched result file drives the unchanged
// traffic stage.
func TestShardWholeNetworkEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()

	snapKey, err := c.Master.UploadSnapshot("shardeq", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	v := c.Master.NewShardVerifier(snapKey, out.Net, out.Inputs, 3, 0, core.Options{})
	rt, err := v.Base("shardeq", 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := c.Master.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}
	central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
	if !central.Equal(dist) {
		a, b := central.Diff(dist)
		t.Fatalf("sharded base RIB != centralized (%d vs %d rows, diff %d/%d)",
			central.Len(), dist.Len(), len(a), len(b))
	}
	if v.BaseFellBack {
		t.Error("base fixpoint fell back to the whole-network path")
	}

	// The stitched single-file route result feeds the traffic stage like any
	// other route task.
	tt, err := c.Master.StartTrafficSimulation("shardeq", rt, out.Flows, 4, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.Wait("shardeq", "traffic", tt.Subtasks); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(out.Net, core.Options{})
	routes := eng.RouteSimulation(out.Inputs)
	centralTraffic := eng.TrafficSimulation(routes, routes.GlobalRIB().Rows(), out.Flows)
	for id, want := range centralTraffic.Traffic.Load {
		if d := sum.Load[id] - want; d > 1e-3 || d < -1e-3 {
			t.Errorf("load[%s]: sharded %v, centralized %v", id, sum.Load[id], want)
		}
	}

	// What-if sweep: every contained link failure must stitch byte-identical
	// to a whole-network scenario re-simulation.
	links := out.Net.Topo.Links()
	contained, fellBack := 0, 0
	for i, l := range links {
		if i >= 16 {
			break
		}
		delta := core.Delta{LinksDown: []netmodel.LinkID{l.ID()}}
		scenID := fmt.Sprintf("shardeq-wi%d", i)
		srt, err := v.WhatIf(scenID, delta)
		if errors.Is(err, shard.ErrNotContained) {
			fellBack++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		contained++
		got, err := c.Master.CollectRouteResults(srt)
		if err != nil {
			t.Fatal(err)
		}
		scratch := out.Net.Clone()
		scratch.Topo.SetLinkUp(l.ID(), false)
		want := dedupe(core.NewEngine(scratch, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
		if !want.Equal(got) {
			a, b := want.Diff(got)
			t.Fatalf("link %v: sharded what-if RIB != centralized scenario (diff %d/%d)",
				l.ID(), len(a), len(b))
		}
	}
	if contained == 0 {
		t.Fatal("no link failure was contained; the distributed what-if path is untested")
	}
	t.Logf("contained=%d fellback=%d rounds(last)=%d reused(last)=%d",
		contained, fellBack, v.LastRounds, v.LastReused)
}

// TestShardWholeNetworkEquivalenceRandomized verifies sharded base runs over
// seeded randomly-degraded topologies — partitions whose seams start broken —
// against the centralized whole-network engine.
func TestShardWholeNetworkEquivalenceRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	for trial := 0; trial < 3; trial++ {
		out := gen.Generate(gen.WAN(1))
		links := out.Net.Topo.Links()
		for i := 0; i < 2+rnd.Intn(3); i++ {
			out.Net.Topo.SetLinkUp(links[rnd.Intn(len(links))].ID(), false)
		}
		taskID := fmt.Sprintf("shardrnd%d", trial)
		snapKey, err := c.Master.UploadSnapshot(taskID, out.Net)
		if err != nil {
			t.Fatal(err)
		}
		v := c.Master.NewShardVerifier(snapKey, out.Net, out.Inputs, 3, 0, core.Options{})
		rt, err := v.Base(taskID, 4)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := c.Master.CollectRouteResults(rt)
		if err != nil {
			t.Fatal(err)
		}
		central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
		if !central.Equal(dist) {
			a, b := central.Diff(dist)
			t.Fatalf("trial %d: sharded RIB != centralized on degraded topology (diff %d/%d)",
				trial, len(a), len(b))
		}
	}
}

// TestShardChaosCrashMidContractRound crashes a worker holding a claimed
// shard subtask mid-contract-round, on flaky substrates, and requires the
// lease-reclaimed run to stay byte-identical to a clean sharded run and to
// the centralized engine. Shard results are canonical (sorted rows, sorted
// contract), so at-least-once re-execution converges to the same bytes.
func TestShardChaosCrashMidContractRound(t *testing.T) {
	out := gen.Generate(gen.WAN(1))

	// Clean sharded reference.
	cleanCluster := startLocal(t, LocalOptions{Workers: 3})
	snapKey, err := cleanCluster.Master.UploadSnapshot("clean", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	vc := cleanCluster.Master.NewShardVerifier(snapKey, out.Net, out.Inputs, 3, 0, core.Options{})
	crt, err := vc.Base("clean", 3)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanCluster.Master.CollectRouteResults(crt)
	if err != nil {
		t.Fatal(err)
	}
	cleanCluster.Stop()

	// Chaos cluster: flaky substrates (transient injected errors ridden out
	// by the retry wrappers) plus a worker that dies holding a shard subtask.
	inj := faults.NewInjector(20260808)
	inj.ErrorRate = 0.02
	svc := flakyServices(inj)
	master := chaosMaster(svc, 5, 300*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	crasher := NewWorker("crasher", svc, nil)
	crasher.CrashNext = 1
	crasher.HeartbeatInterval = 25 * time.Millisecond
	go crasher.Run(ctx)
	for i := 0; i < 2; i++ {
		w := NewWorker(fmt.Sprintf("worker-%d", i), svc, nil)
		w.HeartbeatInterval = 25 * time.Millisecond
		go w.Run(ctx)
	}

	chaosSnap, err := master.UploadSnapshot("chaos", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	v := master.NewShardVerifier(chaosSnap, out.Net, out.Inputs, 3, 0, core.Options{})
	rt, err := v.Base("chaos", 3)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := master.CollectRouteResults(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Equal(chaos) {
		a, b := clean.Diff(chaos)
		t.Fatalf("chaos sharded RIB != clean sharded RIB (diff %d/%d)", len(a), len(b))
	}
	central := dedupe(core.NewEngine(out.Net, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB())
	if !central.Equal(chaos) {
		t.Fatal("chaos sharded RIB != centralized RIB")
	}

	// The crash actually exercised the reclaim path.
	recs, err := svc.Tasks.List("chaos")
	if err != nil {
		t.Fatal(err)
	}
	reclaimed := 0
	for _, rec := range recs {
		if rec.Status != taskdb.StatusDone {
			t.Errorf("subtask %s not done: %s", rec.Key(), rec.Status)
		}
		if rec.Attempts > 0 {
			reclaimed++
		}
	}
	if reclaimed == 0 {
		t.Error("no shard subtask was lease-reclaimed; the crash missed")
	}
}
