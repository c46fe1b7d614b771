package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

func TestPartitionRegionAware(t *testing.T) {
	out := gen.Generate(gen.WAN(1)) // 3 regions
	p := Compute(out.Net.Topo, 3)
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", p.NumShards())
	}
	// Every device of one region lands in one shard.
	for r := 0; r < 3; r++ {
		want := -1
		for _, n := range out.Net.DeviceNames() {
			if reg, ok := parseRegion(n); !ok || reg != r {
				continue
			}
			if want == -1 {
				want = p.ShardOf(n)
			} else if got := p.ShardOf(n); got != want {
				t.Errorf("region %d split: %s in shard %d, want %d", r, n, got, want)
			}
		}
	}
	// Clamping: more shards than regions collapses to the region count.
	if got := Compute(out.Net.Topo, 99).NumShards(); got != 3 {
		t.Errorf("clamped NumShards = %d, want 3", got)
	}
	sizes := p.Sizes()
	total := 0
	for i, s := range sizes {
		if s == 0 {
			t.Errorf("shard %d is empty", i)
		}
		total += s
	}
	if total != len(out.Net.DeviceNames()) {
		t.Errorf("partition covers %d devices, want %d", total, len(out.Net.DeviceNames()))
	}
}

// TestBaseStitchEquivalence pins the tentpole's hard requirement at the
// in-process layer: the stitched sharded base RIB is byte-identical to the
// whole-network engine's — row for row at the same positions, also when
// duplicate inputs leave rows that tie on the key columns, since the stitch
// merges segments it never re-sorts.
func TestBaseStitchEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	for _, inputs := range [][]netmodel.Route{out.Inputs, gen.WithDuplicateInputs(out.Inputs)} {
		for _, shards := range []int{2, 3} {
			eng := New(out.Net, inputs, Options{Shards: shards})
			got, err := eng.Base()
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewEngine(out.Net, core.Options{}).RouteSimulation(inputs).GlobalRIB()
			if !slices.EqualFunc(got.Rows(), ref.Rows(), netmodel.Route.Identical) {
				t.Fatalf("shards=%d inputs=%d: stitched base RIB differs from whole-network (%d vs %d rows): %s",
					shards, len(inputs), got.Len(), ref.Len(), diffStr(got, ref))
			}
			if eng.Metrics().FullFallbacks.Value() != 0 {
				t.Errorf("shards=%d inputs=%d: base run fell back", shards, len(inputs))
			}
		}
	}
}

// TestWhatIfStitchEquivalence verifies contained deltas through the sharded
// warm-start path against full scenario re-simulation.
func TestWhatIfStitchEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := New(out.Net, out.Inputs, Options{Shards: 3})
	if _, err := eng.Base(); err != nil {
		t.Fatal(err)
	}
	contained, fellBack := 0, 0
	for _, l := range out.Net.Topo.Links() {
		id := l.ID()
		scratch := out.Net.Clone()
		if !scratch.Topo.SetLinkUp(id, false) {
			t.Fatalf("link %v not found in clone", id)
		}
		delta := core.Delta{LinksDown: []netmodel.LinkID{id}}
		res, err := eng.WhatIf(scratch, delta)
		if err != nil {
			fellBack++
			continue
		}
		contained++
		ref := core.NewEngine(scratch, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB()
		if !res.RIB.Equal(ref) {
			t.Fatalf("link %v: sharded what-if RIB differs from whole-network (%d vs %d rows): %s",
				id, res.RIB.Len(), ref.Len(), diffStr(res.RIB, ref))
		}
	}
	if contained == 0 {
		t.Fatal("no link failure was contained; the sharded what-if path is untested")
	}
	t.Logf("contained=%d fellback=%d", contained, fellBack)
}

// TestWhatIfNodeFailureEquivalence covers node-down deltas, where sessions of
// outside peers can die: only containable nodes ride the shard path, and
// results stay byte-identical.
func TestWhatIfNodeFailureEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := New(out.Net, out.Inputs, Options{Shards: 3})
	if _, err := eng.Base(); err != nil {
		t.Fatal(err)
	}
	contained := 0
	for _, name := range out.Net.DeviceNames() {
		scratch := out.Net.Clone()
		if !scratch.Topo.SetNodeUp(name, false) {
			continue
		}
		res, err := eng.WhatIf(scratch, core.Delta{NodesDown: []string{name}})
		if err != nil {
			continue
		}
		contained++
		ref := core.NewEngine(scratch, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB()
		if !res.RIB.Equal(ref) {
			t.Fatalf("node %s: sharded what-if RIB differs (%d vs %d rows): %s",
				name, res.RIB.Len(), ref.Len(), diffStr(res.RIB, ref))
		}
	}
	t.Logf("contained node failures: %d", contained)
}

// TestWhatIfRandomizedEquivalence throws seeded random multi-element deltas
// at the engine; every delta must either fall back or stitch byte-identical.
func TestWhatIfRandomizedEquivalence(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := New(out.Net, out.Inputs, Options{Shards: 3})
	if _, err := eng.Base(); err != nil {
		t.Fatal(err)
	}
	links := out.Net.Topo.Links()
	rnd := rand.New(rand.NewSource(8))
	contained := 0
	for trial := 0; trial < 25; trial++ {
		scratch := out.Net.Clone()
		var delta core.Delta
		for i := 0; i < 1+rnd.Intn(2); i++ {
			id := links[rnd.Intn(len(links))].ID()
			if scratch.Topo.SetLinkUp(id, false) {
				delta.LinksDown = append(delta.LinksDown, id)
			}
		}
		if len(delta.LinksDown) == 0 {
			continue
		}
		res, err := eng.WhatIf(scratch, delta)
		if err != nil {
			continue
		}
		contained++
		ref := core.NewEngine(scratch, core.Options{}).RouteSimulation(out.Inputs).GlobalRIB()
		if !res.RIB.Equal(ref) {
			t.Fatalf("trial %d (%v): sharded what-if RIB differs: %s",
				trial, delta.LinksDown, diffStr(res.RIB, ref))
		}
	}
	if contained == 0 {
		t.Fatal("no randomized delta was contained")
	}
	t.Logf("contained randomized deltas: %d/25", contained)
}

func diffStr(got, want *netmodel.GlobalRIB) string {
	onlyGot, onlyWant := got.Diff(want)
	if len(onlyGot) > 4 {
		onlyGot = onlyGot[:4]
	}
	if len(onlyWant) > 4 {
		onlyWant = onlyWant[:4]
	}
	return fmt.Sprintf("only-sharded=%v only-whole=%v", onlyGot, onlyWant)
}
