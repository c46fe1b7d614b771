package vsb

import (
	"reflect"
	"testing"
)

func TestAlphaBetaDivergeOnEveryVSB(t *testing.T) {
	// The whole point of having two vendors is that every Table 5 row has
	// observable divergence; verify field-by-field (excluding Vendor).
	a, b := Alpha(), Beta()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Name == "Vendor" {
			continue
		}
		if reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("field %s identical between alpha and beta", typ.Field(i).Name)
		}
	}
}

func TestMutationsChangeExactlyOneBehaviour(t *testing.T) {
	base := Alpha()
	for _, m := range AllMutations {
		mut := m.Apply(base)
		if reflect.DeepEqual(base, mut) {
			t.Errorf("mutation %s is a no-op on alpha", m)
		}
		// Applying twice returns to the original (all mutations are toggles).
		back := m.Apply(mut)
		if !reflect.DeepEqual(base, back) {
			t.Errorf("mutation %s is not an involution", m)
		}
		// Count changed fields: exactly 1, except default-preference which
		// flips both eBGP and iBGP preference together.
		vb, vm := reflect.ValueOf(base), reflect.ValueOf(mut)
		changed := 0
		for i := 0; i < vb.NumField(); i++ {
			if !reflect.DeepEqual(vb.Field(i).Interface(), vm.Field(i).Interface()) {
				changed++
			}
		}
		want := 1
		if m == MutDefaultPreference {
			want = 2
		}
		if changed != want {
			t.Errorf("mutation %s changed %d fields, want %d", m, changed, want)
		}
	}
}

func TestAllMutationsCoverTable5(t *testing.T) {
	if len(AllMutations) != 17 { // 16 Table 5 rows + Figure 10(b) filter VSB
		t.Errorf("len(AllMutations) = %d, want 17", len(AllMutations))
	}
	seen := map[Mutation]bool{}
	for _, m := range AllMutations {
		if seen[m] {
			t.Errorf("duplicate mutation %s", m)
		}
		seen[m] = true
		if m.Description() == string(m) {
			t.Errorf("mutation %s has no description", m)
		}
	}
}

func TestProfilesFor(t *testing.T) {
	ps := Defaults()
	if ps.For(VendorBeta).Vendor != VendorBeta {
		t.Error("For(beta)")
	}
	unknown := ps.For("newvendor")
	if unknown.Vendor != "newvendor" {
		t.Error("unknown vendor should keep its name")
	}
	if unknown.EBGPPreference != Alpha().EBGPPreference {
		t.Error("unknown vendor should fall back to alpha semantics")
	}
}
