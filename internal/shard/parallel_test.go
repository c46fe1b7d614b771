package shard

import (
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// TestShardParallelEquivalence runs the contract fixpoint with the dirty
// shards of each round simulated concurrently (Sim.Parallelism 2), and pins
// byte-identity with the sequential whole-network engine. Under -race this
// doubles as the concurrent sealed-run check: the shards share one base
// engine's interner, lazy topology indexes, and policy caches.
func TestShardParallelEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := New(out.Net, out.Inputs, Options{Shards: 3, Sim: core.Options{Parallelism: 2}})
	got, err := eng.Base()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(out.Net, core.Options{Parallelism: 1}).RouteSimulation(out.Inputs).GlobalRIB()
	if !got.Equal(ref) {
		t.Fatalf("parallel sharded base RIB differs from whole-network (%d vs %d rows): %s",
			got.Len(), ref.Len(), diffStr(got, ref))
	}

	// One contained what-if through the warm contract path.
	contained := 0
	for _, l := range out.Net.Topo.Links() {
		id := l.ID()
		scratch := out.Net.Clone()
		if !scratch.Topo.SetLinkUp(id, false) {
			t.Fatalf("link %v not found in clone", id)
		}
		res, err := eng.WhatIf(scratch, core.Delta{LinksDown: []netmodel.LinkID{id}})
		if err != nil {
			continue
		}
		contained++
		wref := core.NewEngine(scratch, core.Options{Parallelism: 1}).RouteSimulation(out.Inputs).GlobalRIB()
		if !res.RIB.Equal(wref) {
			t.Fatalf("link %v: parallel sharded what-if RIB differs from whole-network: %s",
				id, diffStr(res.RIB, wref))
		}
		if contained >= 3 {
			break
		}
	}
	if contained == 0 {
		t.Fatal("no link failure was contained; the parallel what-if path is untested")
	}
}
