// Sharded-verification benchmarks: intra-shard what-if scenarios re-verified
// through the sharded fleet (only the touched shards re-run, boundary-sealed,
// warm-started from the base contract state) versus the whole-network
// distributed re-simulation of the same scenarios. `make bench-shard` runs
// these on the gen.WAN(2) fixture and writes the measured ratio to
// BENCH_shard.json; TestShardSpeedup pins the acceptance floor (>=2x on the
// contained-scenario sweep).
package hoyan

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/dsim"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/shard"
)

const (
	shardBenchShards   = 4 // gen.WAN(2) has 4 regions
	shardBenchWorkers  = 4
	shardBenchSubtasks = 8
	shardBenchSweep    = 8 // contained scenarios per timed sweep
)

// shardFixture is a running local cluster with the sharded base fixpoint
// already computed, plus the intra-shard (contained) link-failure scenarios
// the sweeps verify. The prepass runs every scenario once on both sides so
// the timed trials compare warm engines against warm engines.
type shardFixture struct {
	g       *gen.Output
	c       *dsim.LocalCluster
	v       *dsim.ShardVerifier
	snapKey string
	links   []netmodel.LinkID // contained scenarios, len <= shardBenchSweep
	seq     int               // unique task IDs across trials
}

func shardBenchFixture(tb testing.TB) *shardFixture {
	g := gen.Generate(gen.WAN(2))
	c, err := dsim.StartLocal(dsim.LocalOptions{Workers: shardBenchWorkers})
	if err != nil {
		tb.Fatal(err)
	}
	snapKey, err := c.Master.UploadSnapshot("shb", g.Net)
	if err != nil {
		tb.Fatal(err)
	}
	v := c.Master.NewShardVerifier(snapKey, g.Net, g.Inputs, shardBenchShards, 0, core.Options{})
	if _, err := v.Base("shb", shardBenchSubtasks); err != nil {
		tb.Fatal(err)
	}
	if v.BaseFellBack {
		tb.Fatal("base fixpoint fell back to the whole-network path")
	}
	f := &shardFixture{g: g, c: c, v: v, snapKey: snapKey}

	// Prepass: find contained link failures (the common intra-shard kfail
	// case) and warm both sides' per-scenario engine caches.
	for _, l := range g.Net.Topo.Links() {
		if len(f.links) >= shardBenchSweep {
			break
		}
		delta := core.Delta{LinksDown: []netmodel.LinkID{l.ID()}}
		if _, err := f.v.WhatIf(f.taskID(), delta); errors.Is(err, shard.ErrNotContained) {
			continue
		} else if err != nil {
			tb.Fatal(err)
		}
		f.links = append(f.links, l.ID())
		f.wholeScenario(tb, delta)
	}
	if len(f.links) < 2 {
		tb.Fatalf("only %d contained scenarios at WAN(2); fixture too small", len(f.links))
	}
	return f
}

func (f *shardFixture) taskID() string {
	f.seq++
	return fmt.Sprintf("shb-%d", f.seq)
}

// shardScenario re-verifies one failure through the sharded path: touched
// shards re-run sealed and warm, seams re-checked, result stitched.
func (f *shardFixture) shardScenario(tb testing.TB, delta core.Delta) {
	rt, err := f.v.WhatIf(f.taskID(), delta)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.c.Master.CollectRouteResults(rt); err != nil {
		tb.Fatal(err)
	}
}

// wholeScenario re-verifies the same failure as a whole-network distributed
// route simulation (every device recomputed across the fleet).
func (f *shardFixture) wholeScenario(tb testing.TB, delta core.Delta) {
	taskID := f.taskID()
	rt, err := f.c.Master.StartRouteScenario(taskID, f.snapKey, f.g.Inputs, shardBenchSubtasks,
		core.Options{}, delta.LinksDown, delta.NodesDown)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.c.Master.Wait(taskID, "route", rt.Subtasks); err != nil {
		tb.Fatal(err)
	}
	if _, err := f.c.Master.CollectRouteResults(rt); err != nil {
		tb.Fatal(err)
	}
}

func (f *shardFixture) sweep(tb testing.TB, sharded bool) {
	for _, id := range f.links {
		delta := core.Delta{LinksDown: []netmodel.LinkID{id}}
		if sharded {
			f.shardScenario(tb, delta)
		} else {
			f.wholeScenario(tb, delta)
		}
	}
}

// BenchmarkShardWhatIf times one contained scenario through the sharded path.
func BenchmarkShardWhatIf(b *testing.B) {
	f := shardBenchFixture(b)
	defer f.c.Stop()
	delta := core.Delta{LinksDown: []netmodel.LinkID{f.links[0]}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.shardScenario(b, delta)
	}
}

// BenchmarkWholeNetworkScenario times the same scenario whole-network.
func BenchmarkWholeNetworkScenario(b *testing.B) {
	f := shardBenchFixture(b)
	defer f.c.Stop()
	delta := core.Delta{LinksDown: []netmodel.LinkID{f.links[0]}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.wholeScenario(b, delta)
	}
}

// shardBenchReport is the BENCH_shard.json schema (`make bench-shard`).
type shardBenchReport struct {
	Devices   int `json:"devices"`
	Inputs    int `json:"inputs"`
	Shards    int `json:"shards"`
	Workers   int `json:"workers"`
	Scenarios int `json:"scenarios"`

	ShardedNs int64   `json:"sharded_ns"`
	WholeNs   int64   `json:"whole_ns"`
	Speedup   float64 `json:"speedup"`

	// Contract-state footprint of the base fixpoint.
	ContractRoutes int `json:"contract_routes"`
	BaseRounds     int `json:"base_rounds"`
}

// TestShardSpeedup pins the sharded verifier's acceptance floor: an
// intra-shard scenario sweep at gen.WAN(2) must verify at least 2x faster
// through the sharded fleet (touched shards only, warm contracts) than as
// whole-network distributed re-simulations. Measurements are paired per trial
// (like TestWireCompactness) so load spikes land on both sides. With
// SHARD_BENCH_JSON set it also writes the measured numbers to that path
// (used by `make bench-shard` to produce BENCH_shard.json).
func TestShardSpeedup(t *testing.T) {
	f := shardBenchFixture(t)
	defer f.c.Stop()
	baseRounds := f.v.LastRounds

	const trials, iters = 3, 1
	shardedNs, wholeNs := measurePair(trials, iters,
		func() { f.sweep(t, true) },
		func() { f.sweep(t, false) })

	rep := shardBenchReport{
		Devices:        len(f.g.Net.Devices),
		Inputs:         len(f.g.Inputs),
		Shards:         shardBenchShards,
		Workers:        shardBenchWorkers,
		Scenarios:      len(f.links),
		ShardedNs:      shardedNs,
		WholeNs:        wholeNs,
		Speedup:        float64(wholeNs) / float64(shardedNs),
		ContractRoutes: f.v.ContractRoutes(),
		BaseRounds:     baseRounds,
	}
	t.Logf("%d devices / %d scenarios: sharded %.2fms vs whole-network %.2fms (%.2fx); %d contract routes, %d base rounds",
		rep.Devices, rep.Scenarios, float64(rep.ShardedNs)/1e6, float64(rep.WholeNs)/1e6,
		rep.Speedup, rep.ContractRoutes, rep.BaseRounds)

	if rep.Speedup < 2 && enforceFloors() {
		t.Errorf("sharded scenario sweep only %.2fx faster than whole-network, want >=2x", rep.Speedup)
	}

	if path := os.Getenv("SHARD_BENCH_JSON"); path != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
