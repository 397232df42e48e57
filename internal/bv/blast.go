// Package bv bit-blasts triplet-form integer constraint systems into the
// clause/pseudo-Boolean language of the SAT solver, implementing §5.1 of
// Metzner et al. (IPDPS 2006): integer variables become 2's-complement
// bit vectors of logarithmic size, arithmetic triplets become adder and
// multiplier circuits (the carry of the full adder is axiomatized with the
// paper's pair of pseudo-Boolean constraints, eq. 19), and relational
// triplets become comparator circuits (the sign bit of a subtraction).
//
// The blaster structurally hashes the circuit (hash.go): every gate goes
// through a canonicalizing cache, constants fold before emission, and
// defined variables alias their circuit's output wires, so shared
// subterms reach the solver once (see DESIGN.md §14 and EncodeStats).
// The unhashed one-circuit-per-triplet encoding survives only as the
// equisatisfiability oracle of the package tests.
package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/obs"
	"satalloc/internal/sat"
)

// Options configures a compilation; the encoding itself has no knobs.
type Options struct {
	// Trace, when set, is the parent span under which Compile records its
	// Triplet and BitBlast phases. Nil disables tracing.
	Trace *obs.Span
}

// Blaster holds the correspondence between triplet-level variables and
// solver literals and knows how to decode models.
type Blaster struct {
	S  *sat.Solver
	Tr *ir.Triplets

	vecs  [][]sat.Lit // per triplet integer variable, little-endian signed
	bools []sat.Lit   // per triplet Boolean variable
	lTrue sat.Lit     // literal fixed true

	cmpConstMemo map[string]sat.Lit

	// Structural-hashing state.
	cache map[gateKey]sat.Lit
	stats EncodeStats
}

// widthFor returns the number of bits of a signed 2's-complement vector
// able to represent every value in [lo, hi].
func widthFor(lo, hi int64) int {
	w := 1
	for ; w < 63; w++ {
		min := int64(-1) << (w - 1)
		max := -min - 1
		if lo >= min && hi <= max {
			return w
		}
	}
	panic(fmt.Sprintf("bv: range [%d,%d] too wide", lo, hi))
}

// Blast encodes the triplet system into the solver. The solver may
// already contain other constraints; fresh variables are allocated as
// needed.
func Blast(s *sat.Solver, tr *ir.Triplets) (*Blaster, error) {
	b, err := newBlaster(s, tr)
	if err != nil {
		return nil, err
	}
	if !tr.Unsat {
		err = b.blastHashed()
	}
	return b, err
}

// newBlaster allocates a blaster and its constant-true literal; a triplet
// system folded to false becomes the empty clause instead.
func newBlaster(s *sat.Solver, tr *ir.Triplets) (*Blaster, error) {
	b := &Blaster{S: s, Tr: tr, cmpConstMemo: map[string]sat.Lit{},
		cache: make(map[gateKey]sat.Lit)}
	if tr.Unsat {
		return b, s.AddClause()
	}
	b.lTrue = sat.PosLit(s.NewVar())
	return b, s.AddClause(b.lTrue)
}

func (b *Blaster) blit(l ir.BLit) sat.Lit {
	if l.Neg {
		return b.bools[l.Var].Not()
	}
	return b.bools[l.Var]
}

// constVec renders a constant as a vector of fixed literals.
func (b *Blaster) constVec(v int64, w int) []sat.Lit {
	vec := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		if v&(1<<i) != 0 {
			vec[i] = b.lTrue
		} else {
			vec[i] = b.lTrue.Not()
		}
	}
	return vec
}

// atomVec returns the vector of an atom, sign-extended to width w.
func (b *Blaster) atomVec(a ir.Atom, w int) []sat.Lit {
	if a.IsConst {
		return b.constVec(a.Const, w)
	}
	return signExtend(b.vecs[a.Var], w)
}

func signExtend(v []sat.Lit, w int) []sat.Lit {
	if len(v) >= w {
		return v[:w]
	}
	out := make([]sat.Lit, w)
	copy(out, v)
	msb := v[len(v)-1]
	for i := len(v); i < w; i++ {
		out[i] = msb
	}
	return out
}

// majGate constrains cout ⇔ maj(x, y, cin) with the paper's PB pair
// (eq. 19): 2cout + ¬x + ¬y + ¬cin ≥ 2  ∧  2¬cout + x + y + cin ≥ 2.
func (b *Blaster) majGate(cout, x, y, cin sat.Lit) error {
	if err := b.S.AddPB([]sat.PBTerm{{Coef: 2, Lit: cout}, {Coef: 1, Lit: x.Not()}, {Coef: 1, Lit: y.Not()}, {Coef: 1, Lit: cin.Not()}}, 2); err != nil {
		return err
	}
	return b.S.AddPB([]sat.PBTerm{{Coef: 2, Lit: cout.Not()}, {Coef: 1, Lit: x}, {Coef: 1, Lit: y}, {Coef: 1, Lit: cin}}, 2)
}

// xor3Gate constrains s ⇔ x ⊕ y ⊕ cin, as 8 clauses: for every valuation
// pattern, rule out the wrong sum bit.
func (b *Blaster) xor3Gate(s, x, y, cin sat.Lit) error {
	in := [3]sat.Lit{x, y, cin}
	for mask := 0; mask < 8; mask++ {
		parity := (mask&1 ^ mask>>1&1 ^ mask>>2&1) == 1
		clause := make([]sat.Lit, 0, 4)
		for i, l := range in {
			if mask&(1<<i) != 0 {
				clause = append(clause, l.Not()) // assumed true
			} else {
				clause = append(clause, l)
			}
		}
		if parity {
			clause = append(clause, s)
		} else {
			clause = append(clause, s.Not())
		}
		if err := b.S.AddClause(clause...); err != nil {
			return err
		}
	}
	return nil
}

func negVec(v []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(v))
	for i, l := range v {
		out[i] = l.Not()
	}
	return out
}

func (b *Blaster) atomWidth(a ir.Atom) int {
	if a.IsConst {
		return widthFor(a.Const, a.Const)
	}
	return len(b.vecs[a.Var])
}

func (b *Blaster) xorGate(g, x, y sat.Lit) error {
	if err := b.S.AddClause(g.Not(), x, y); err != nil {
		return err
	}
	if err := b.S.AddClause(g.Not(), x.Not(), y.Not()); err != nil {
		return err
	}
	if err := b.S.AddClause(g, x.Not(), y); err != nil {
		return err
	}
	return b.S.AddClause(g, x, y.Not())
}

// CmpConstLit returns (building on first use) a literal that is true iff
// the triplet integer variable id satisfies (≤ k) when le, or (≥ k)
// otherwise. The optimizer passes these literals as assumptions to confine
// the objective during binary search without poisoning the clause database.
func (b *Blaster) CmpConstLit(id int, k int64, le bool) (sat.Lit, error) {
	key := fmt.Sprintf("%d|%d|%t", id, k, le)
	if l, ok := b.cmpConstMemo[key]; ok {
		return l, nil
	}
	l, err := b.cmpConstLit(b.vecs[id], k, le)
	if err != nil {
		return sat.LitUndef, err
	}
	b.cmpConstMemo[key] = l
	return l, nil
}

// IntValue decodes the value of triplet integer variable id from the
// solver's current model.
func (b *Blaster) IntValue(id int) int64 {
	vec := b.vecs[id]
	var v int64
	for i, l := range vec {
		if b.S.ModelLit(l) {
			v |= 1 << i
		}
	}
	// Sign extension.
	w := len(vec)
	if v&(1<<(w-1)) != 0 {
		v |= int64(-1) << w
	}
	return v
}

// BoolValue decodes the value of triplet Boolean variable id.
func (b *Blaster) BoolValue(id int) bool { return b.S.ModelLit(b.bools[id]) }

// BoolVar returns the solver variable of triplet Boolean variable id.
func (b *Blaster) BoolVar(id int) sat.Var { return b.bools[id].Var() }
