package bv

import (
	"fmt"
	"math/rand"
	"testing"

	"satalloc/internal/encode"
	"satalloc/internal/ir"
	"satalloc/internal/model"
	"satalloc/internal/sat"
	"satalloc/internal/workload"
)

// encoding is what the harness needs from a compiled formula; both the
// production System and the legacy oracle's legacySystem provide it.
type encoding interface {
	Solve(assumptions ...sat.Lit) sat.Status
	Int(v *ir.IntVar) int64
	UpperBoundLit(v *ir.IntVar, k int64) (sat.Lit, error)
	LowerBoundLit(v *ir.IntVar, k int64) (sat.Lit, error)
	BoolSolverVar(v *ir.BoolVar) sat.Var
}

// encodingModes are the encoders the equisatisfiability harness checks.
// Only hash-adder is production code (structural hashing, adder
// comparator, PB carry); the others are test-only oracles: the unhashed
// legacy blaster of legacy_test.go, the ladder comparator for the bound
// literals that pin each assignment, and the CNF carry of variants_test.go.
var encodingModes = []struct {
	name    string
	compile func(*ir.Formula) (encoding, error)
}{
	{"legacy", func(f *ir.Formula) (encoding, error) { return compileLegacy(f) }},
	{"legacy-cnf", func(f *ir.Formula) (encoding, error) {
		sys, err := compileLegacy(f)
		if err != nil {
			return nil, err
		}
		return withCNFCarry(f, sys, sys.System)
	}},
	{"hash-adder", func(f *ir.Formula) (encoding, error) { return Compile(f) }},
	{"hash-adder-cnf", func(f *ir.Formula) (encoding, error) {
		sys, err := Compile(f)
		if err != nil {
			return nil, err
		}
		return withCNFCarry(f, sys, sys)
	}},
	{"hash-ladder", func(f *ir.Formula) (encoding, error) {
		sys, err := Compile(f)
		return ladderSystem{sys}, err
	}},
	{"hash-ladder-cnf", func(f *ir.Formula) (encoding, error) {
		sys, err := Compile(f)
		if err != nil {
			return nil, err
		}
		return withCNFCarry(f, ladderSystem{sys}, sys)
	}},
}

// checkEncodingExact verifies that an encoding of f agrees with the ground
// truth evaluator on EVERY full assignment of the source variables: the
// solver under assumptions pinning each variable must answer Sat exactly
// when ir.Formula.Satisfied does. This is stronger than equisatisfiability
// — it proves the encoding is a faithful definition of f over the source
// vocabulary. An encoding that is unsatisfiable outright (for instance a
// formula the tripletizer folded to false, which has no bit vectors to
// pin) must instead find no satisfying assignment in the ground truth.
func checkEncodingExact(t *testing.T, f *ir.Formula, compile func(*ir.Formula) (encoding, error)) {
	t.Helper()
	enc, err := compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	unsat := enc.Solve() == sat.Unsat

	// Walk the cross product of all variable domains.
	asn := ir.NewAssignment()
	var assumptions []sat.Lit
	var walk func(iv, bv int) bool
	walk = func(iv, bvi int) bool {
		if iv < len(f.IntVars) {
			v := f.IntVars[iv]
			for val := v.Lo; val <= v.Hi; val++ {
				asn.Ints[v] = val
				save := len(assumptions)
				if !unsat {
					le, err := enc.UpperBoundLit(v, val)
					if err != nil {
						t.Fatalf("upper bound lit: %v", err)
					}
					ge, err := enc.LowerBoundLit(v, val)
					if err != nil {
						t.Fatalf("lower bound lit: %v", err)
					}
					assumptions = append(assumptions, le, ge)
				}
				if !walk(iv+1, bvi) {
					return false
				}
				assumptions = assumptions[:save]
			}
			return true
		}
		if bvi < len(f.BoolVars) {
			v := f.BoolVars[bvi]
			for _, val := range []bool{false, true} {
				asn.Bools[v] = val
				save := len(assumptions)
				if !unsat {
					assumptions = append(assumptions, sat.MkLit(enc.BoolSolverVar(v), !val))
				}
				if !walk(iv, bvi+1) {
					return false
				}
				assumptions = assumptions[:save]
			}
			return true
		}
		want := f.Satisfied(asn)
		got := !unsat && enc.Solve(assumptions...) == sat.Sat
		if got != want {
			t.Errorf("assignment %v: encoded=%v ground-truth=%v", renderAsn(f, asn), got, want)
			return false
		}
		return true
	}
	walk(0, 0)
}

func renderAsn(f *ir.Formula, a *ir.Assignment) string {
	s := ""
	for _, v := range f.IntVars {
		s += fmt.Sprintf("%s=%d ", v.Name, a.Ints[v])
	}
	for _, v := range f.BoolVars {
		s += fmt.Sprintf("%s=%t ", v.Name, a.Bools[v])
	}
	return s
}

// tinyFormulas is a hand-built corpus covering every triplet family the
// blaster handles: add/sub/mul (variable and constant operands), all
// relational operators, all gates, shared subterms (the hashing targets),
// and negative ranges.
func tinyFormulas() map[string]*ir.Formula {
	out := map[string]*ir.Formula{}

	f := ir.NewFormula()
	x := f.Int("x", 0, 5)
	y := f.Int("y", -2, 3)
	f.Require(ir.Le(ir.Add(x, y), ir.Const(4)))
	f.Require(ir.Ge(ir.Sub(x, y), ir.Const(1)))
	out["add-sub"] = f

	f = ir.NewFormula()
	x = f.Int("x", 0, 3)
	y = f.Int("y", 0, 3)
	f.Require(ir.Eq(ir.Mul(x, y), ir.Const(6)))
	out["mul"] = f

	f = ir.NewFormula()
	x = f.Int("x", -3, 4)
	f.Require(ir.Lt(ir.Mul(ir.Const(3), x), ir.Const(7)))
	f.Require(ir.Ne(x, ir.Const(0)))
	f.Require(ir.Ge(ir.Mul(x, ir.Const(-2)), ir.Const(-6)))
	out["mul-const"] = f

	// Shared subterm x+y referenced three times — the CSE target.
	f = ir.NewFormula()
	x = f.Int("x", 0, 6)
	y = f.Int("y", 0, 6)
	s := ir.Add(x, y)
	f.Require(ir.Le(s, ir.Const(9)))
	f.Require(ir.Ge(s, ir.Const(3)))
	f.Require(ir.Ne(s, ir.Const(5)))
	out["shared-sum"] = f

	f = ir.NewFormula()
	a := f.Bool("a")
	b := f.Bool("b")
	c := f.Bool("c")
	x = f.Int("x", 0, 2)
	f.Require(ir.Iff(ir.And(a, ir.Or(b, c)), ir.Le(x, ir.Const(1))))
	f.Require(ir.Imply(a, ir.Xor(b, c)))
	out["gates"] = f

	f = ir.NewFormula()
	x = f.Int("x", -4, 3)
	y = f.Int("y", -4, 3)
	f.Require(ir.Eq(ir.Add(ir.Mul(x, x), ir.Mul(y, y)), ir.Const(13)))
	out["squares"] = f

	return out
}

func TestEquisatTinyCorpus(t *testing.T) {
	for name, f := range tinyFormulas() {
		for _, m := range encodingModes {
			t.Run(name+"/"+m.name, func(t *testing.T) {
				checkEncodingExact(t, f, m.compile)
			})
		}
	}
}

// randomFormula builds a seeded random formula: a few small-range ints and
// bools, a pool of random arithmetic terms reusing earlier terms (so the
// structural hasher has real sharing to find), and a handful of random
// relational/gate constraints.
func randomFormula(seed int64) *ir.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := ir.NewFormula()
	ints := []ir.IntExpr{}
	for i := 0; i < 2+rng.Intn(2); i++ {
		lo := int64(rng.Intn(5)) - 3
		hi := lo + int64(1+rng.Intn(5))
		ints = append(ints, f.Int(fmt.Sprintf("v%d", i), lo, hi))
	}
	bools := []ir.BoolExpr{}
	for i := 0; i < 2; i++ {
		bools = append(bools, f.Bool(fmt.Sprintf("p%d", i)))
	}
	term := func() ir.IntExpr { return ints[rng.Intn(len(ints))] }
	for i := 0; i < 3; i++ {
		a, b := term(), term()
		switch rng.Intn(4) {
		case 0:
			ints = append(ints, ir.Add(a, b))
		case 1:
			ints = append(ints, ir.Sub(a, b))
		case 2:
			ints = append(ints, ir.Mul(a, ir.Const(int64(rng.Intn(5))-2)))
		case 3:
			ints = append(ints, ir.Mul(a, b))
		}
	}
	cmp := func() ir.BoolExpr {
		a, b := term(), term()
		k := ir.Const(int64(rng.Intn(13)) - 6)
		switch rng.Intn(5) {
		case 0:
			return ir.Le(a, k)
		case 1:
			return ir.Lt(a, b)
		case 2:
			return ir.Eq(a, k)
		case 3:
			return ir.Ne(a, b)
		default:
			return ir.Ge(a, k)
		}
	}
	boolTerm := func() ir.BoolExpr {
		if rng.Intn(2) == 0 {
			return bools[rng.Intn(len(bools))]
		}
		return cmp()
	}
	for i := 0; i < 3+rng.Intn(3); i++ {
		a, b := boolTerm(), boolTerm()
		switch rng.Intn(5) {
		case 0:
			f.Require(ir.Or(a, b))
		case 1:
			f.Require(ir.Imply(a, b))
		case 2:
			f.Require(ir.Iff(a, ir.NotE(b)))
		case 3:
			f.Require(ir.Xor(a, b))
		default:
			f.Require(ir.Or(a, ir.NotE(b)))
		}
	}
	return f
}

func TestEquisatFuzzSeeds(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		f := randomFormula(seed)
		// Skip blown-up domains: the walk is exponential in variables.
		space := int64(1)
		for _, v := range f.IntVars {
			space *= v.Hi - v.Lo + 1
		}
		if space > 1<<10 {
			continue
		}
		for _, m := range encodingModes {
			t.Run(fmt.Sprintf("seed%d/%s", seed, m.name), func(t *testing.T) {
				checkEncodingExact(t, f, m.compile)
			})
		}
	}
}

// TestHashingReducesEncoding pins the headline property of the hashed
// encoder: on a formula with heavy structural sharing it must emit
// strictly fewer solver variables and clause literals than the legacy
// oracle, and the gate cache must report genuine reuse.
func TestHashingReducesEncoding(t *testing.T) {
	f := ir.NewFormula()
	var terms []ir.IntExpr
	for i := 0; i < 4; i++ {
		terms = append(terms, f.Int(fmt.Sprintf("v%d", i), 0, 15))
	}
	sum := ir.Sum(terms...)
	for i, v := range terms {
		f.Require(ir.Le(ir.Add(sum, v), ir.Const(40+int64(i))))
	}
	legacy, err := compileLegacy(f)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if hv, lv := hashed.S.NumVariables(), legacy.S.NumVariables(); hv >= lv {
		t.Errorf("hashed encoder emitted %d vars, legacy oracle %d — no reduction", hv, lv)
	}
	if hl, ll := hashed.S.Stats.NumLiterals, legacy.S.Stats.NumLiterals; hl >= ll {
		t.Errorf("hashed encoder emitted %d literals, legacy oracle %d — no reduction", hl, ll)
	}
	st := hashed.B.Stats()
	if st.GatesRequested == 0 || st.GatesEmitted == 0 {
		t.Fatalf("no gate accounting: %+v", st)
	}
	if st.GatesReused() <= 0 {
		t.Errorf("gate cache saw no reuse on a sharing-heavy formula: %+v", st)
	}
	if st.GatesEmitted+st.GatesFolded+st.GatesReused() != st.GatesRequested {
		t.Errorf("gate accounting does not balance: %+v", st)
	}
}

// TestEquisatSpecsAcrossEncoders is the spec-level half of the harness:
// paper-shaped specs are encoded once, compiled by the production encoder
// and by the legacy oracle, and both must prove the same optimum k* — SAT
// under the bound literal cost ≤ k*, UNSAT under cost ≤ k*−1. The optimum
// comes from a binary search over the production encoding's bound
// literals, the probes opt.Minimize issues. Instances are kept small so
// the check stays fast under -race (`make equisat` runs it there).
func TestEquisatSpecsAcrossEncoders(t *testing.T) {
	specs := []struct {
		name string
		sys  *model.System
		obj  encode.Objective
	}{
		{"table1-ring", workload.Partition(workload.T43(), 8), encode.MinimizeTRT},
		{"table1-can", workload.Partition(workload.T43CAN(), 8), encode.MinimizeBusUtilization},
		{"table2-ring4", table2Spec(4), encode.MinimizeTRT},
		{"tiny-ring", tinyRing(), encode.MinimizeTRT},
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			enc, err := encode.Encode(spec.sys, encode.Options{Objective: spec.obj, ObjectiveMedium: -1})
			if err != nil {
				t.Fatal(err)
			}
			hashed, err := Compile(enc.F)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := compileLegacy(enc.F)
			if err != nil {
				t.Fatal(err)
			}
			best, feasible := minimumCost(t, hashed, enc.Cost)
			t.Logf("feasible=%v optimum=%d hashed vars=%d literals=%d, legacy vars=%d literals=%d",
				feasible, best, hashed.S.NumVariables(), hashed.S.Stats.NumLiterals,
				legacy.S.NumVariables(), legacy.S.Stats.NumLiterals)
			for _, m := range []struct {
				name string
				enc  encoding
			}{{"hash-adder", hashed}, {"legacy", legacy}} {
				if !feasible {
					if st := m.enc.Solve(); st != sat.Unsat {
						t.Errorf("%s: %v, want UNSAT (infeasible spec)", m.name, st)
					}
					continue
				}
				if st := solveCostAtMost(t, m.enc, enc.Cost, best); st != sat.Sat {
					t.Errorf("%s: cost ≤ %d is %v, want SAT", m.name, best, st)
				}
				if st := solveCostAtMost(t, m.enc, enc.Cost, best-1); st != sat.Unsat {
					t.Errorf("%s: cost ≤ %d is %v, want UNSAT", m.name, best-1, st)
				}
			}
		})
	}
}

// minimumCost binary-searches the least k with cost ≤ k satisfiable;
// feasible is false when the encoding has no model at all.
func minimumCost(t *testing.T, e encoding, cost *ir.IntVar) (best int64, feasible bool) {
	t.Helper()
	switch st := e.Solve(); st {
	case sat.Unsat:
		return 0, false
	case sat.Sat:
	default:
		t.Fatalf("initial solve: %v", st)
	}
	lo, hi := cost.Lo, e.Int(cost)
	for lo < hi {
		mid := lo + (hi-lo)/2
		switch st := solveCostAtMost(t, e, cost, mid); st {
		case sat.Sat:
			hi = e.Int(cost)
		case sat.Unsat:
			lo = mid + 1
		default:
			t.Fatalf("probe cost ≤ %d: %v", mid, st)
		}
	}
	return hi, true
}

// solveCostAtMost solves under the assumption cost ≤ k.
func solveCostAtMost(t *testing.T, e encoding, cost *ir.IntVar, k int64) sat.Status {
	t.Helper()
	l, err := e.UpperBoundLit(cost, k)
	if err != nil {
		t.Fatalf("bound literal cost ≤ %d: %v", k, err)
	}
	return e.Solve(l)
}

// tinyRing builds a 2-ECU token ring with three tasks and one message.
func tinyRing() *model.System {
	s := &model.System{Name: "tiny"}
	s.ECUs = []*model.ECU{{ID: 0, Name: "p0"}, {ID: 1, Name: "p1"}}
	s.Media = []*model.Medium{{
		ID: 0, Name: "ring", Kind: model.TokenRing, ECUs: []int{0, 1},
		TimePerUnit: 1, SlotQuantum: 2, MaxSlots: 8,
	}}
	s.Tasks = []*model.Task{
		{ID: 0, Name: "sense", Period: 40, Deadline: 30, WCET: map[int]int64{0: 6, 1: 6}, Messages: []int{0}},
		{ID: 1, Name: "act", Period: 40, Deadline: 40, WCET: map[int]int64{0: 8, 1: 8}},
		{ID: 2, Name: "load", Period: 20, Deadline: 20, WCET: map[int]int64{0: 9, 1: 9}},
	}
	s.Messages = []*model.Message{
		{ID: 0, Name: "m0", From: 0, To: 1, Size: 3, Deadline: 25},
	}
	return s
}

// table2Spec builds the Table-2 architecture-scaling instance with n ring
// ECUs at the benchmark's scaled workload shape.
func table2Spec(n int) *model.System {
	o := workload.T43Options()
	o.Tasks = 8
	o.Chains = 2
	o.Restricted = 1
	o.SeparatedPairs = 1
	sys := workload.Populate(workload.RingArchitecture(n), o)
	sys.Name = fmt.Sprintf("table2-ring%d", n)
	return sys
}
