package core

import (
	"math/rand"
	"slices"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

func keyTies(rows []netmodel.Route) int {
	n := 0
	for i := 1; i < len(rows); i++ {
		if netmodel.CompareRouteKeys(rows[i-1], rows[i]) == 0 && !rows[i-1].Identical(rows[i]) {
			n++
		}
	}
	return n
}

func sameRows(a, b []netmodel.Route) bool {
	return slices.EqualFunc(a, b, netmodel.Route.Identical)
}

// TestGlobalRIBSortedByConstruction: the global RIB, which is never sorted
// as a whole, holds positionally the rows that concatenating the tables in
// arbitrary order and sorting them all yields; they are in canonical order;
// and another simulation of the same inputs yields them again, although rows
// that tie on the key columns leave the tables in map-iteration order.
func TestGlobalRIBSortedByConstruction(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for k := 1; k <= 3; k++ {
		out := gen.Generate(gen.WAN(k))
		inputs := gen.WithDuplicateInputs(out.Inputs)
		var first []netmodel.Route
		for _, p := range []int{1, 0, 8} {
			res := NewEngine(out.Net, Options{Parallelism: p}).RouteSimulation(inputs)
			got := res.GlobalRIB().Rows()

			tables := res.BGP.Tables()
			rnd.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
			var concat []netmodel.Route
			for _, tbl := range tables {
				concat = append(concat, res.RIB(tbl.Device, tbl.VRF).All()...)
			}
			if want := netmodel.NewGlobalRIB(concat).Rows(); !sameRows(got, want) {
				t.Fatalf("WAN(%d) parallelism %d: sorted-by-construction rows differ from concat-and-sort (%d vs %d rows)", k, p, len(got), len(want))
			}
			if !slices.IsSortedFunc(got, netmodel.CompareRoutes) {
				t.Fatalf("WAN(%d) parallelism %d: rows not in CompareRoutes order", k, p)
			}
			if first == nil {
				first = got
			} else if !sameRows(got, first) {
				t.Fatalf("WAN(%d) parallelism %d: rows differ positionally from the first run's", k, p)
			}
		}
		if keyTies(first) == 0 {
			t.Fatalf("WAN(%d): fixture produced no key ties; the tie-break went untested", k)
		}
	}
}

// TestForkMergedGlobalRIBPositional: a fork's global RIB — changed devices'
// tables emitted into the base rows — is positionally the from-scratch
// simulation's, Identical row by row, on a fixture with key ties.
func TestForkMergedGlobalRIBPositional(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	inputs := gen.WithDuplicateInputs(out.Inputs)
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(inputs, out.Flows)
	links := out.Net.Topo.Links()
	names := out.Net.Topo.NodeNames()
	deltas := []Delta{
		{LinksDown: []netmodel.LinkID{links[0].ID()}},
		{LinksDown: []netmodel.LinkID{links[len(links)/2].ID()}},
		{NodesDown: []string{names[0]}},
		{NodesDown: []string{names[len(names)-1]}, LinksDown: []netmodel.LinkID{links[1].ID()}},
	}
	for i, d := range deltas {
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		inc, stats := eng.Fork(scratch, d)
		if stats.Full {
			t.Fatalf("delta %d: fork fell back to a full simulation; the merge went untested", i)
		}
		got := inc.Routes.GlobalRIB().Rows()
		want := NewEngine(scratch, Options{}).RouteSimulation(inputs).GlobalRIB().Rows()
		if !sameRows(got, want) {
			t.Fatalf("delta %d: merged global RIB differs positionally from from-scratch (%d vs %d rows)", i, len(got), len(want))
		}
		if keyTies(got) == 0 {
			t.Fatalf("delta %d: no key ties in the fork's RIB", i)
		}
	}
}
