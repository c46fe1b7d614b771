package bgp

import (
	"testing"

	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
)

// TestGlobalRIBAllocsBoundedByTables pins the work of materializing the
// global RIB as a count that cannot flake: a fixed number of allocations
// plus a constant per table — none per prefix or per row.
func TestGlobalRIBAllocsBoundedByTables(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	res := Simulate(out.Net, isis.Compute(out.Net.Topo, isis.Options{}), out.Inputs, Options{})
	tables, rows := len(res.Tables()), res.GlobalRIB().Len()
	allocs := testing.AllocsPerRun(5, func() { res.GlobalRIB() })
	t.Logf("%d tables, %d rows: %.0f allocations per GlobalRIB()", tables, rows, allocs)
	if limit := float64(2*tables + 16); allocs > limit {
		t.Errorf("GlobalRIB() made %.0f allocations for %d tables (%d rows), want <= %.0f", allocs, tables, rows, limit)
	}
}

// TestExpandedGlobalRIBAllocsBoundedByTables: expanding the route ECs while
// emitting allocates no more than a fixed number plus one per table — the
// prefixes are sorted once per run, and no member row is written anywhere
// but into the global RIB.
func TestExpandedGlobalRIBAllocsBoundedByTables(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	ecs := ec.ComputeRouteECs(out.Net, nil, out.Inputs, 0)
	res := Simulate(out.Net, isis.Compute(out.Net.Topo, isis.Options{}), ecs.Representatives(), Options{})
	x := ecs.Expansion()
	tables, rows := len(res.Tables()), res.ExpandedGlobalRIB(x).Len()
	allocs := testing.AllocsPerRun(5, func() { res.ExpandedGlobalRIB(x) })
	t.Logf("%d tables, %d rows: %.0f allocations per ExpandedGlobalRIB", tables, rows, allocs)
	if limit := float64(tables + 32); allocs > limit {
		t.Errorf("ExpandedGlobalRIB made %.0f allocations for %d tables (%d rows), want <= %.0f", allocs, tables, rows, limit)
	}
}
