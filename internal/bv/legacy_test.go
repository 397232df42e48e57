package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// This file is the test-only equisatisfiability oracle: the unhashed,
// one-circuit-per-triplet encoder the structurally hashed blaster
// replaced. Every arithmetic triplet gets a fresh ripple-carry circuit
// whose output is equated to a fresh vector, every comparison a full
// subtractor, and nothing is folded or shared, so it shares no gate-level
// code with the production pass beyond the raw clause emitters (majGate,
// xor3Gate, xorGate). The tests compile formulas both ways and require
// identical answers.

// legacySystem is a System compiled by the oracle. Its bound literals come
// from the oracle's own subtract-based comparator.
type legacySystem struct{ *System }

// compileLegacy transforms and bit-blasts f with the oracle into a fresh
// solver.
func compileLegacy(f *ir.Formula) (*legacySystem, error) {
	s := sat.New()
	tr := ir.ToTriplets(f)
	b, err := blastLegacy(s, tr)
	if err != nil {
		return nil, err
	}
	return &legacySystem{&System{F: f, Tr: tr, B: b, S: s}}, nil
}

// UpperBoundLit returns an assumption literal ⇔ (v ≤ k).
func (sys *legacySystem) UpperBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return sys.B.legacyCmpConstLit(sys.Tr.SourceInt[v.ID], k, true)
}

// LowerBoundLit returns an assumption literal ⇔ (v ≥ k).
func (sys *legacySystem) LowerBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return sys.B.legacyCmpConstLit(sys.Tr.SourceInt[v.ID], k, false)
}

// blastLegacy is the pre-hashing encoding pass: every triplet variable
// gets a fresh solver vector/literal up front and every definition is a
// fresh circuit equated to it. The gate cache is dropped first, so any
// stray call into the hashed gates panics instead of silently sharing
// circuitry with the encoder under test.
func blastLegacy(s *sat.Solver, tr *ir.Triplets) (*Blaster, error) {
	b, err := newBlaster(s, tr)
	if err != nil || tr.Unsat {
		return b, err
	}
	b.cache = nil
	return b, b.blastLegacyPass()
}

func (b *Blaster) blastLegacyPass() error {
	s, tr := b.S, b.Tr
	b.bools = make([]sat.Lit, len(tr.BoolNames))
	for i := range tr.BoolNames {
		b.bools[i] = sat.PosLit(s.NewVar())
	}
	b.vecs = make([][]sat.Lit, len(tr.Ints))
	for i, info := range tr.Ints {
		w := widthFor(info.Lo, info.Hi)
		vec := make([]sat.Lit, w)
		for j := range vec {
			vec[j] = sat.PosLit(s.NewVar())
		}
		b.vecs[i] = vec
		// Range constraints lo ≤ v ≤ hi, skipped when the width is exact.
		min := int64(-1) << (w - 1)
		max := -min - 1
		if info.Lo > min {
			if err := b.legacyAssertCmpConst(vec, info.Lo, true); err != nil {
				return err
			}
		}
		if info.Hi < max {
			if err := b.legacyAssertCmpConst(vec, info.Hi, false); err != nil {
				return err
			}
		}
	}

	for _, d := range tr.IntDefs {
		if err := b.blastIntDef(d); err != nil {
			return err
		}
	}
	for _, d := range tr.CmpDefs {
		if err := b.blastCmpDef(d); err != nil {
			return err
		}
	}
	for _, g := range tr.Gates {
		if err := b.blastGate(g); err != nil {
			return err
		}
	}
	for _, r := range tr.Roots {
		if err := s.AddClause(b.blit(r)); err != nil {
			return err
		}
	}
	return nil
}

// fullAdder constrains s and cout to be the sum and carry of x+y+cin,
// using the paper's PB axiomatization for the carry (eq. 19) and a CNF
// parity axiomatization for the sum bit.
func (b *Blaster) fullAdder(s, cout, x, y, cin sat.Lit) error {
	if err := b.majGate(cout, x, y, cin); err != nil {
		return err
	}
	return b.xor3Gate(s, x, y, cin)
}

// addVec returns a fresh vector constrained to x + y + cin (mod 2^w),
// w = len(x) = len(y).
func (b *Blaster) addVec(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, error) {
	w := len(x)
	out := make([]sat.Lit, w)
	carry := cin
	for i := 0; i < w; i++ {
		out[i] = sat.PosLit(b.S.NewVar())
		cout := sat.PosLit(b.S.NewVar()) // final carry is left dangling
		if err := b.fullAdder(out[i], cout, x[i], y[i], carry); err != nil {
			return nil, err
		}
		carry = cout
	}
	return out, nil
}

// subVec returns x - y (mod 2^w) via x + ¬y + 1.
func (b *Blaster) subVec(x, y []sat.Lit) ([]sat.Lit, error) {
	return b.addVec(x, negVec(y), b.lTrue)
}

// andGate returns a fresh literal g with g ⇔ x ∧ y.
func (b *Blaster) andGate(x, y sat.Lit) (sat.Lit, error) {
	g := sat.PosLit(b.S.NewVar())
	if err := b.S.AddClause(g.Not(), x); err != nil {
		return g, err
	}
	if err := b.S.AddClause(g.Not(), y); err != nil {
		return g, err
	}
	return g, b.S.AddClause(g, x.Not(), y.Not())
}

// mulVec returns a fresh vector constrained to x*y (mod 2^w) using the
// shift-add scheme over partial products.
func (b *Blaster) mulVec(x, y []sat.Lit) ([]sat.Lit, error) {
	w := len(x)
	// acc starts as the first partial product: x masked by y[0].
	acc := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		g, err := b.andGate(x[i], y[0])
		if err != nil {
			return nil, err
		}
		acc[i] = g
	}
	for j := 1; j < w; j++ {
		// Partial product row j: (x << j) masked by y[j]; only bits j..w-1
		// are nonzero after the shift.
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = b.lTrue.Not()
		}
		for i := j; i < w; i++ {
			g, err := b.andGate(x[i-j], y[j])
			if err != nil {
				return nil, err
			}
			row[i] = g
		}
		var err error
		acc, err = b.addVec(acc, row, b.lTrue.Not())
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// equateVec asserts x = y bitwise (same width).
func (b *Blaster) equateVec(x, y []sat.Lit) error {
	for i := range x {
		if err := b.S.AddClause(x[i].Not(), y[i]); err != nil {
			return err
		}
		if err := b.S.AddClause(x[i], y[i].Not()); err != nil {
			return err
		}
	}
	return nil
}

// mulConstVec multiplies a variable vector by a constant using shift-adds
// over the constant's set bits only — no AND-gate partial-product matrix.
// Negative constants multiply by |c| and then negate (0 − v).
func (b *Blaster) mulConstVec(x []sat.Lit, c int64, w int) ([]sat.Lit, error) {
	neg := false
	if c < 0 {
		neg = true
		c = -c
	}
	zero := b.constVec(0, w)
	acc := zero
	for j := 0; j < w && c>>j != 0; j++ {
		if c&(1<<j) == 0 {
			continue
		}
		// row = x << j, truncated to w bits.
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = b.lTrue.Not()
		}
		for i := j; i < w; i++ {
			row[i] = x[i-j]
		}
		var err error
		acc, err = b.addVec(acc, row, b.lTrue.Not())
		if err != nil {
			return nil, err
		}
	}
	if neg {
		return b.subVec(zero, acc)
	}
	return acc, nil
}

func (b *Blaster) blastIntDef(d ir.IntDef) error {
	res := b.vecs[d.Res]
	w := len(res)
	x := b.atomVec(d.A, w)
	y := b.atomVec(d.B, w)
	var out []sat.Lit
	var err error
	switch d.Op {
	case ir.OpAdd:
		out, err = b.addVec(x, y, b.lTrue.Not())
	case ir.OpSub:
		out, err = b.subVec(x, y)
	case ir.OpMul:
		switch {
		case d.A.IsConst:
			out, err = b.mulConstVec(y, d.A.Const, w)
		case d.B.IsConst:
			out, err = b.mulConstVec(x, d.B.Const, w)
		default:
			out, err = b.mulVec(x, y)
		}
	default:
		return fmt.Errorf("bv: unknown arithmetic operator %v", d.Op)
	}
	if err != nil {
		return err
	}
	return b.equateVec(res, out)
}

// signBitOfDiff returns a literal equal to the sign bit of (x - y) computed
// at width w+1 so the subtraction cannot wrap.
func (b *Blaster) signBitOfDiff(xa, ya ir.Atom) (sat.Lit, error) {
	wx := b.atomWidth(xa)
	wy := b.atomWidth(ya)
	w := wx
	if wy > w {
		w = wy
	}
	w++
	x := b.atomVec(xa, w)
	y := b.atomVec(ya, w)
	d, err := b.subVec(x, y)
	if err != nil {
		return sat.LitUndef, err
	}
	return d[w-1], nil
}

// eqLit returns a fresh literal ⇔ (x = y) over equal-width vectors.
func (b *Blaster) eqLit(x, y []sat.Lit) (sat.Lit, error) {
	p := sat.PosLit(b.S.NewVar())
	// p → (x_i ⇔ y_i) for all i; ¬p → some difference: (p ∨ diff_1 ∨ …).
	diffClause := []sat.Lit{p}
	for i := range x {
		if err := b.S.AddClause(p.Not(), x[i].Not(), y[i]); err != nil {
			return p, err
		}
		if err := b.S.AddClause(p.Not(), x[i], y[i].Not()); err != nil {
			return p, err
		}
		// diff_i ⇔ x_i ⊕ y_i.
		d := sat.PosLit(b.S.NewVar())
		if err := b.xorGate(d, x[i], y[i]); err != nil {
			return p, err
		}
		diffClause = append(diffClause, d)
	}
	return p, b.S.AddClause(diffClause...)
}

// iffLits asserts p ⇔ q.
func (b *Blaster) iffLits(p, q sat.Lit) error {
	if err := b.S.AddClause(p.Not(), q); err != nil {
		return err
	}
	return b.S.AddClause(p, q.Not())
}

func (b *Blaster) blastCmpDef(d ir.CmpDef) error {
	p := b.bools[d.P]
	switch d.Op {
	case ir.OpLE:
		// a ≤ b ⇔ ¬(b < a) ⇔ ¬sign(b - a).
		sgn, err := b.signBitOfDiff(d.B, d.A)
		if err != nil {
			return err
		}
		return b.iffLits(p, sgn.Not())
	case ir.OpLT:
		sgn, err := b.signBitOfDiff(d.A, d.B)
		if err != nil {
			return err
		}
		return b.iffLits(p, sgn)
	case ir.OpEQ, ir.OpNE:
		wx, wy := b.atomWidth(d.A), b.atomWidth(d.B)
		w := wx
		if wy > w {
			w = wy
		}
		e, err := b.eqLit(b.atomVec(d.A, w), b.atomVec(d.B, w))
		if err != nil {
			return err
		}
		if d.Op == ir.OpEQ {
			return b.iffLits(p, e)
		}
		return b.iffLits(p, e.Not())
	}
	return fmt.Errorf("bv: unknown relational operator %v", d.Op)
}

func (b *Blaster) blastGate(g ir.Gate) error {
	p := b.bools[g.P]
	q := b.blit(g.Q)
	r := b.blit(g.R)
	switch g.Op {
	case ir.OpAnd:
		if err := b.S.AddClause(p.Not(), q); err != nil {
			return err
		}
		if err := b.S.AddClause(p.Not(), r); err != nil {
			return err
		}
		return b.S.AddClause(p, q.Not(), r.Not())
	case ir.OpOr:
		if err := b.S.AddClause(p, q.Not()); err != nil {
			return err
		}
		if err := b.S.AddClause(p, r.Not()); err != nil {
			return err
		}
		return b.S.AddClause(p.Not(), q, r)
	case ir.OpImply:
		if err := b.S.AddClause(p.Not(), q.Not(), r); err != nil {
			return err
		}
		if err := b.S.AddClause(p, q); err != nil {
			return err
		}
		return b.S.AddClause(p, r.Not())
	case ir.OpIff:
		if err := b.S.AddClause(p.Not(), q.Not(), r); err != nil {
			return err
		}
		if err := b.S.AddClause(p.Not(), q, r.Not()); err != nil {
			return err
		}
		if err := b.S.AddClause(p, q, r); err != nil {
			return err
		}
		return b.S.AddClause(p, q.Not(), r.Not())
	case ir.OpXor:
		return b.xorGate(p, q, r)
	}
	return fmt.Errorf("bv: unknown gate %v", g.Op)
}

// legacyAssertCmpConst asserts v ≥ k (ge) or v ≤ k against a constant with
// the generic subtract-based comparator.
func (b *Blaster) legacyAssertCmpConst(vec []sat.Lit, k int64, ge bool) error {
	l, err := b.legacyCmpConst(vec, k, !ge)
	if err != nil {
		return err
	}
	return b.S.AddClause(l)
}

// legacyCmpConstLit is CmpConstLit over the oracle's comparator: memoized
// per (variable, bound, direction) like the production probe literals.
func (b *Blaster) legacyCmpConstLit(id int, k int64, le bool) (sat.Lit, error) {
	key := fmt.Sprintf("%d|%d|%t", id, k, le)
	if l, ok := b.cmpConstMemo[key]; ok {
		return l, nil
	}
	l, err := b.legacyCmpConst(b.vecs[id], k, le)
	if err != nil {
		return sat.LitUndef, err
	}
	b.cmpConstMemo[key] = l
	return l, nil
}

// legacyCmpConst returns a literal ⇔ v ≤ k (le) or v ≥ k: the negated sign
// bit of a full width-(w+1) subtraction.
func (b *Blaster) legacyCmpConst(vec []sat.Lit, k int64, le bool) (sat.Lit, error) {
	w := len(vec) + 1
	x := signExtend(vec, w)
	y := b.constVec(k, w)
	var d []sat.Lit
	var err error
	if le {
		d, err = b.subVec(y, x) // k - v ≥ 0
	} else {
		d, err = b.subVec(x, y) // v - k ≥ 0
	}
	if err != nil {
		return sat.LitUndef, err
	}
	return d[w-1].Not(), nil
}
