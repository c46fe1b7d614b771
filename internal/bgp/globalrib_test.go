package bgp

import (
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/isis"
)

// TestGlobalRIBAllocsBoundedByTables pins the work of materializing the
// global RIB as a count that cannot flake: a fixed number of allocations
// plus a constant per table (its sorted prefix list) — none per prefix or
// per row.
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
