package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// resultDigest reduces a simulation result to a collision-resistant digest
// over the global RIB rows, the representative flow paths, and the exact
// float bits of every link load — equality of digests is byte-identity of
// everything the verification layer reads.
func resultDigest(res *Result) string {
	d := ribDigest(res.Routes.GlobalRIB())
	if res.Traffic != nil {
		d += "/" + flowDigest(res.Traffic.Traffic)
	}
	return d
}

// scenarioDeltas builds a deterministic mix of single-link, double-link, and
// node failures from the generated topology, and of forks that change it: an
// isis cost on one end of two links, and a device removed.
func scenarioDeltas(out *gen.Output, rng *rand.Rand) []Delta {
	links := out.Net.Topo.Links()
	var deltas []Delta
	step := len(links)/16 + 1
	for i := 0; i < len(links); i += step {
		deltas = append(deltas, Delta{LinksDown: []netmodel.LinkID{links[i].ID()}})
	}
	for i := 0; i < 8; i++ {
		a, b := rng.Intn(len(links)), rng.Intn(len(links))
		if a == b {
			continue
		}
		deltas = append(deltas, Delta{LinksDown: []netmodel.LinkID{links[a].ID(), links[b].ID()}})
	}
	nodes := out.Net.Topo.Nodes()
	for i := 0; i < 4; i++ {
		deltas = append(deltas, Delta{NodesDown: []string{nodes[rng.Intn(len(nodes))].Name}})
	}
	for _, l := range []*netmodel.Link{links[0], links[len(links)/2]} {
		recost := out.Net.Devices[l.A].Clone()
		recost.Interfaces[l.AIface].ISISCost += 5
		deltas = append(deltas, Delta{Configs: map[string]*config.Device{l.A: recost}})
	}
	return append(deltas, Delta{Configs: map[string]*config.Device{nodes[rng.Intn(len(nodes))].Name: nil}})
}

// upFlags records every Up flag of a network, for before/after comparison.
func upFlags(net *config.Network) map[string]bool {
	flags := make(map[string]bool)
	for _, n := range net.Topo.Nodes() {
		flags["node:"+n.Name] = n.Up
	}
	for _, l := range net.Topo.Links() {
		flags["link:"+l.ID().String()] = l.Up
	}
	return flags
}

// trackScratch makes the engine record every scratch clone it creates and
// returns a check that the engine's own network and each of those clones
// carry the Up flags the network had when tracking started, and that each
// clone holds the *Topology and the device pointers it was made with.
func trackScratch(t *testing.T, eng *Engine) (assertRestored func(when string)) {
	var mu sync.Mutex
	var clones, made []*config.Network
	eng.scratch.New = func() any {
		c := eng.net.Clone()
		mu.Lock()
		clones = append(clones, c)
		made = append(made, &config.Network{Devices: maps.Clone(c.Devices), Topo: c.Topo})
		mu.Unlock()
		return c
	}
	want := upFlags(eng.net)
	return func(when string) {
		t.Helper()
		if !reflect.DeepEqual(upFlags(eng.net), want) {
			t.Errorf("%s: the engine's own network changed", when)
		}
		if len(clones) == 0 {
			t.Errorf("%s: no scratch clone was made", when)
		}
		for i, c := range clones {
			if !reflect.DeepEqual(upFlags(c), want) {
				t.Errorf("%s: scratch clone %d of %d went back with flips applied", when, i, len(clones))
			}
			if c.Topo != made[i].Topo || !maps.Equal(c.Devices, made[i].Devices) {
				t.Errorf("%s: scratch clone %d of %d went back with another topology or configuration", when, i, len(clones))
			}
		}
	}
}

// TestWhatIfRestoresScratch: whatever way a WhatIf ends — a result, a
// cancelled context, a delta naming something the network does not have — the
// scratch clone it borrowed goes back with every flag restored, for toggles
// and for a configuration that derives another topology alike.
func TestWhatIfRestoresScratch(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	links := out.Net.Topo.Links()
	out.Net.Topo.SetLinkUp(links[1].ID(), false)
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)
	assertRestored := trackScratch(t, eng)

	d := Delta{
		LinksDown: []netmodel.LinkID{links[0].ID(), links[1].ID()}, // the second is down already
		LinksUp:   []netmodel.LinkID{links[1].ID()},
		NodesDown: []string{links[2].A},
	}
	recost := out.Net.Devices[links[3].A].Clone()
	recost.Interfaces[links[3].AIface].ISISCost += 5
	topo := d
	topo.Configs = map[string]*config.Device{links[3].A: recost}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []Delta{d, topo} {
		if _, _, err := eng.WhatIf(context.Background(), d, 0); err != nil {
			t.Fatal(err)
		}
		assertRestored("after a result")
		if res, _, err := eng.WhatIf(dead, d, 0); !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancelled WhatIf: res=%v err=%v", res, err)
		}
		assertRestored("after a cancelled context")
	}

	bogus := links[0].ID()
	bogus.AIface = "no-such-iface"
	for _, bad := range []Delta{
		{LinksDown: []netmodel.LinkID{links[0].ID(), bogus}},
		{LinksDown: []netmodel.LinkID{links[0].ID()}, NodesDown: []string{"no-such-device"}},
		{LinksDown: []netmodel.LinkID{bogus}, Configs: topo.Configs},
	} {
		if res, _, err := eng.WhatIf(context.Background(), bad, 0); err == nil || res != nil {
			t.Fatalf("WhatIf(%+v): res=%v err=%v, want an error", bad, res, err)
		}
		if _, _, err := eng.ForkCtxN(context.Background(), out.Net.Clone(), bad, 0); err == nil {
			t.Fatalf("ForkCtxN(%+v) accepted an unknown element", bad)
		}
	}
	assertRestored("after a rejected delta")
}

// TestConcurrentForksByteIdentical is the service's steady state: many
// goroutines asking one shared BaseRun what-if at once, in a randomized
// interleaving, must each get exactly the bytes a sequential fork of the same
// delta on a pre-toggled clone produces, and every scratch clone the engine
// lent must come back restored. Run under -race this also proves the base
// capture is read-only across forks.
func TestConcurrentForksByteIdentical(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	inputs, shared := sharedRowsFixture(t, out)
	eng.BaseRun(inputs, out.Flows)
	assertRestored := trackScratch(t, eng)

	rng := rand.New(rand.NewSource(42))
	// The shared-rows delta runs four times over, concurrently with itself.
	deltas := append(scenarioDeltas(out, rng), shared, shared, shared, shared)

	want := make([]string, len(deltas))
	for i, d := range deltas {
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		res, _ := eng.Fork(scratch, d)
		want[i] = resultDigest(res)
	}

	order := rng.Perm(len(deltas))
	got := make([]string, len(deltas))
	var wg sync.WaitGroup
	for _, idx := range order {
		jitter := time.Duration(rng.Intn(200)) * time.Microsecond
		wg.Add(1)
		go func(idx int, jitter time.Duration) {
			defer wg.Done()
			time.Sleep(jitter)
			res, _, err := eng.WhatIf(context.Background(), deltas[idx], 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[idx] = resultDigest(res)
		}(idx, jitter)
	}
	wg.Wait()
	assertRestored(fmt.Sprintf("after %d concurrent calls", len(deltas)))

	for i := range deltas {
		if got[i] != want[i] {
			t.Errorf("delta %d (%+v): concurrent fork digest %s != sequential %s",
				i, deltas[i], got[i], want[i])
		}
	}
}

// TestConcurrentForksMixedCancellation interleaves live and pre-cancelled
// forks off one engine: cancelled ones must error without perturbing the
// byte-identity of their live neighbors.
func TestConcurrentForksMixedCancellation(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)

	rng := rand.New(rand.NewSource(7))
	deltas := scenarioDeltas(out, rng)

	want := make([]string, len(deltas))
	for i, d := range deltas {
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		res, _ := eng.Fork(scratch, d)
		want[i] = resultDigest(res)
	}

	cancelled := make([]bool, len(deltas))
	for i := range cancelled {
		cancelled[i] = rng.Intn(2) == 0
	}
	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()

	errsCh := make(chan string, len(deltas))
	var wg sync.WaitGroup
	for i := range deltas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scratch := out.Net.Clone()
			applyDelta(scratch, deltas[i])
			ctx := context.Background()
			if cancelled[i] {
				ctx = deadCtx
			}
			res, _, err := eng.ForkCtxN(ctx, scratch, deltas[i], 0)
			if cancelled[i] {
				if !errors.Is(err, context.Canceled) || res != nil {
					errsCh <- fmt.Sprintf("delta %d: cancelled fork res=%v err=%v", i, res, err)
				}
				return
			}
			if err != nil {
				errsCh <- fmt.Sprintf("delta %d: live fork err=%v", i, err)
				return
			}
			if got := resultDigest(res); got != want[i] {
				errsCh <- fmt.Sprintf("delta %d: live fork digest %s != sequential %s", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errsCh)
	for msg := range errsCh {
		t.Error(msg)
	}
}

// TestConcurrentForksBuildBaseViews: a base run without flows forwards
// nothing, so none of its tables — views of its global RIB's rows, built on
// first use — exists until forks read them. Forks running at once then build
// them concurrently, and each must get the bytes a fork of the same delta on
// another engine, run one at a time, gets. Run under -race this proves the
// lazily built views race-free.
func TestConcurrentForksBuildBaseViews(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	deltas := scenarioDeltas(out, rand.New(rand.NewSource(47)))

	seq := NewEngine(out.Net, Options{})
	seq.BaseRun(out.Inputs, nil)
	want := make([]string, len(deltas))
	for i, d := range deltas {
		res, _, err := seq.WhatIf(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultDigest(res)
	}

	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, nil)
	if eng.base.res.Routes.views != nil {
		t.Fatal("a base run without flows built its table views")
	}
	got := make([]string, len(deltas))
	var wg sync.WaitGroup
	for i := range deltas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := eng.WhatIf(context.Background(), deltas[i], 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = resultDigest(res)
		}()
	}
	wg.Wait()
	for i := range deltas {
		if got[i] != want[i] {
			t.Errorf("delta %d (%+v): concurrent fork digest %s != sequential %s", i, deltas[i], got[i], want[i])
		}
	}
}
