package scenario

import (
	"fmt"
	"testing"
)

// TestFamilyDichotomy is the package's acceptance claim, checked in one run:
// every built-in spec expands, every buggy variant is discovered by DFS
// within its stated schedule budget — and the find replays twice by schedule
// ID (recorded and minimized) — and every fixed variant is proven clean to
// exhaustion.
func TestFamilyDichotomy(t *testing.T) {
	specs := Builtins()
	if len(specs) < 10 {
		t.Fatalf("built-in catalog shrank: %d specs, want >= 10", len(specs))
	}
	vs, err := ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) < 30 {
		t.Fatalf("catalog expands to %d variants, want >= 30", len(vs))
	}
	var buggy, fixed int
	for _, v := range vs {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			rep, cerr := CheckVariant(v)
			if cerr != nil {
				t.Fatal(cerr)
			}
			if !v.Buggy {
				t.Logf("clean to exhaustion: %d schedules (%d pruned)", rep.Schedules, rep.Pruned)
				return
			}
			t.Logf("found in %d schedules: %v", rep.Schedules, rep.Violation.Err)
			// The find must replay deterministically: twice by the recorded
			// schedule ID, then the minimized one.
			ids := []string{rep.Violation.ScheduleID, rep.Violation.ScheduleID}
			if rep.Violation.MinScheduleID != "" {
				ids = append(ids, rep.Violation.MinScheduleID)
			}
			for i, id := range ids {
				rrep, rerr := Replay(v, id)
				if rerr != nil {
					t.Fatalf("replay %d (%s): %v", i, id, rerr)
				}
				if rrep.Diverged {
					t.Fatalf("replay %d (%s) diverged from the recorded program", i, id)
				}
				if rrep.Violation == nil {
					t.Fatalf("replay %d (%s) did not reproduce the violation", i, id)
				}
			}
		})
		if v.Buggy {
			buggy++
		} else {
			fixed++
		}
	}
	t.Logf("family: %d variants (%d fixed, %d buggy) from %d specs", len(vs), fixed, buggy, len(specs))
}

// TestExpandNaming pins the variant naming scheme replay lines depend on.
func TestExpandNaming(t *testing.T) {
	s, ok := Builtin("saleor-capture")
	if !ok {
		t.Fatal("saleor-capture spec missing")
	}
	vs, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"saleor-capture/dbt",
		"saleor-capture/dbt+unlocked-read",
		"saleor-capture/mem",
		"saleor-capture/mem+read-before-lock",
		"saleor-capture/omitted-check",
	}
	if len(vs) != len(want) {
		t.Fatalf("expanded %d variants, want %d", len(vs), len(want))
	}
	for i, w := range want {
		if vs[i].Name != w {
			t.Errorf("variant %d = %q, want %q", i, vs[i].Name, w)
		}
	}
	if v, ok := FindVariant(vs, "saleor-capture/omitted-check"); !ok || !v.Buggy {
		t.Error("omitted-check variant missing or not buggy")
	}
	if _, ok := FindVariant(vs, "nope"); ok {
		t.Error("FindVariant matched a nonexistent name")
	}
}

// TestParityMapping checks the litmus re-derivations exist and point at real
// variants with the right polarity.
func TestParityMapping(t *testing.T) {
	if len(Parity()) < 3 {
		t.Fatalf("parity table has %d entries, want >= 3", len(Parity()))
	}
	vs, err := ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Parity() {
		b, ok := FindVariant(vs, p.Buggy)
		if !ok {
			t.Fatalf("parity %s: buggy variant %q not in catalog", p.Litmus, p.Buggy)
		}
		if !b.Buggy {
			t.Errorf("parity %s: %q is not a buggy variant", p.Litmus, p.Buggy)
		}
		f, ok := FindVariant(vs, p.Fixed)
		if !ok {
			t.Fatalf("parity %s: fixed variant %q not in catalog", p.Litmus, p.Fixed)
		}
		if f.Buggy {
			t.Errorf("parity %s: %q is not a fixed variant", p.Litmus, p.Fixed)
		}
	}
}

// TestPCTFindsBuggyVariants samples randomized-priority schedules over a
// subset of buggy variants: PCT must also land on the bug without
// exhaustive search. Skipped in -short runs.
func TestPCTFindsBuggyVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("PCT sweep skipped in -short")
	}
	vs, err := ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{
		"saleor-capture/omitted-check",
		"counter-lost-update/dbt+unlocked-read",
		"seat-booking/occ+validation-window",
	}
	for _, name := range targets {
		v, ok := FindVariant(vs, name)
		if !ok {
			t.Fatalf("variant %q missing", name)
		}
		rep, err := ExplorePCT(v, 1, 400)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Violation == nil {
			t.Errorf("%s: PCT found no bug in 400 seeds", name)
			continue
		}
		t.Logf("%s: pct seed %d (schedule %d): %v", name, rep.Seed, rep.Schedules, rep.Violation.Err)
	}
}

// TestValidateRejects exercises Validate's reference and compatibility
// checking on broken specs.
func TestValidateRejects(t *testing.T) {
	base := func() *Spec { s, _ := Builtin("saleor-capture"); return s }
	cases := []struct {
		name   string
		break_ func(*Spec)
	}{
		{"bad name", func(s *Spec) { s.Name = "has space" }},
		{"no entities", func(s *Spec) { s.Entities = nil }},
		{"dup entity", func(s *Spec) { s.Entities = append(s.Entities, s.Entities[0]) }},
		{"field id", func(s *Spec) { s.Entities[0].Fields[0] = "id" }},
		{"row arity", func(s *Spec) { s.Entities[0].Rows[0] = []int64{1} }},
		{"no ops", func(s *Spec) { s.Ops = nil }},
		{"op bad target", func(s *Spec) { s.Ops[0].Target.Entity = "nope" }},
		{"op row range", func(s *Spec) { s.Ops[0].Target.Index = 5 }},
		{"guard bad col", func(s *Spec) { s.Ops[0].Guard.Col = "nope" }},
		{"guard bad cmp", func(s *Spec) { s.Ops[0].Guard.Cmp = "<" }},
		{"write no assigns", func(s *Spec) { s.Ops[0].Writes = nil }},
		{"assign bad col", func(s *Spec) { s.Ops[0].Writes[0].Col = "nope" }},
		{"no calls", func(s *Spec) { s.Calls = nil }},
		{"call unknown op", func(s *Spec) { s.Calls[0].Op = "nope" }},
		{"call too few args", func(s *Spec) { s.Calls[0].Args = nil }},
		{"no invariants", func(s *Spec) { s.Invariants = nil }},
		{"invariant bad entity", func(s *Spec) { s.Invariants[0].Entity = "nope" }},
		{"invariant bad kind", func(s *Spec) { s.Invariants[0].Kind = "nope" }},
		{"no protections", func(s *Spec) { s.Protections = nil }},
		{"unknown protection", func(s *Spec) { s.Protections[0] = "nope" }},
		{"dup protection", func(s *Spec) { s.Protections = []Protection{ProtDBT, ProtDBT} }},
		{"unknown mutation", func(s *Spec) { s.Mutations[0] = "nope" }},
		{"incompatible mutation", func(s *Spec) { s.Mutations = []Mutation{MutTTLLease} }},
		{"applied set not inc", func(s *Spec) { s.Ops[0].Writes[0].Inc = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.break_(s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted a spec with %s", tc.name)
			}
		})
	}
	// And the catalog itself must validate.
	for _, s := range Builtins() {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", s.Name, err)
		}
	}
}

// TestOmittedCheckExpandsOnce ensures the protection-free variant is emitted
// once per spec, not once per protection.
func TestOmittedCheckExpandsOnce(t *testing.T) {
	vs, err := ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	perSpec := map[string]int{}
	for _, v := range vs {
		if v.Mutation == MutOmittedCheck {
			perSpec[v.Spec.Name]++
			if v.Protect != "" {
				t.Errorf("%s: omitted-check variant carries protection %q", v.Name, v.Protect)
			}
		}
	}
	for spec, n := range perSpec {
		if n != 1 {
			t.Errorf("%s: %d omitted-check variants, want 1", spec, n)
		}
	}
}

func ExampleVariantName() {
	fmt.Println(VariantName("saleor-capture", ProtMem, ""))
	fmt.Println(VariantName("saleor-capture", ProtMem, MutReadBeforeLock))
	fmt.Println(VariantName("saleor-capture", "", MutOmittedCheck))
	// Output:
	// saleor-capture/mem
	// saleor-capture/mem+read-before-lock
	// saleor-capture/omitted-check
}
