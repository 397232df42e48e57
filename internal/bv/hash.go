package bv

import (
	"fmt"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// EncodeStats counts gate-level work during bit-blasting. A "gate" is one
// request for a Boolean function of up to three literals (AND, XOR, XOR3,
// MAJ); vector circuits are built from these. Requested = Emitted + Folded
// + Reused(): emitted gates allocated a fresh solver variable and clauses,
// folded gates were resolved by constant propagation or operand identities,
// and reused gates hit the structural-hashing cache.
type EncodeStats struct {
	GatesRequested int64
	GatesEmitted   int64
	GatesFolded    int64
}

// GatesReused returns the number of gate requests answered from the
// structural-hashing cache.
func (st EncodeStats) GatesReused() int64 {
	return st.GatesRequested - st.GatesEmitted - st.GatesFolded
}

// Stats returns the gate counters accumulated so far. Counters keep
// growing as CmpConstLit builds probe circuits after the initial blast,
// which is how the optimizer measures per-iteration encode work.
func (b *Blaster) Stats() EncodeStats { return b.stats }

type gateOp uint8

const (
	gAnd gateOp = iota
	gXor
	gXor3
	gMaj
)

// gateKey canonically identifies a gate: operands are sorted, and XOR keys
// store sign-stripped literals (the sign moves to the output), so x⊕y,
// ¬x⊕y, x⊕¬y and ¬x⊕¬y all share one circuit.
type gateKey struct {
	op      gateOp
	a, b, c sat.Lit
}

// andLit returns a literal ⇔ x ∧ y, folding constants and identities and
// reusing a previously emitted gate when one matches.
func (b *Blaster) andLit(x, y sat.Lit) (sat.Lit, error) {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == lF || y == lF || x == y.Not():
		b.stats.GatesFolded++
		return lF, nil
	case x == lT || x == y:
		b.stats.GatesFolded++
		return y, nil
	case y == lT:
		b.stats.GatesFolded++
		return x, nil
	}
	if y < x {
		x, y = y, x
	}
	k := gateKey{op: gAnd, a: x, b: y}
	if g, ok := b.cache[k]; ok {
		return g, nil
	}
	g := sat.PosLit(b.S.NewVar())
	b.stats.GatesEmitted++
	if err := b.S.AddClause(g.Not(), x); err != nil {
		return g, err
	}
	if err := b.S.AddClause(g.Not(), y); err != nil {
		return g, err
	}
	if err := b.S.AddClause(g, x.Not(), y.Not()); err != nil {
		return g, err
	}
	b.cache[k] = g
	return g, nil
}

// orLit returns a literal ⇔ x ∨ y via De Morgan, so an OR and the AND of
// the complemented operands share one gate.
func (b *Blaster) orLit(x, y sat.Lit) (sat.Lit, error) {
	g, err := b.andLit(x.Not(), y.Not())
	return g.Not(), err
}

// xorLit returns a literal ⇔ x ⊕ y. Operand signs are stripped into the
// output sign before cache lookup: x ⊕ y = (x₀ ⊕ y₀) ⊕ sign(x) ⊕ sign(y).
func (b *Blaster) xorLit(x, y sat.Lit) (sat.Lit, error) {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == y:
		b.stats.GatesFolded++
		return lF, nil
	case x == y.Not():
		b.stats.GatesFolded++
		return lT, nil
	case x == lT:
		b.stats.GatesFolded++
		return y.Not(), nil
	case x == lF:
		b.stats.GatesFolded++
		return y, nil
	case y == lT:
		b.stats.GatesFolded++
		return x.Not(), nil
	case y == lF:
		b.stats.GatesFolded++
		return x, nil
	}
	neg := x.Sign() != y.Sign()
	x0, y0 := x&^1, y&^1
	if y0 < x0 {
		x0, y0 = y0, x0
	}
	k := gateKey{op: gXor, a: x0, b: y0}
	g, ok := b.cache[k]
	if !ok {
		g = sat.PosLit(b.S.NewVar())
		b.stats.GatesEmitted++
		if err := b.xorGate(g, x0, y0); err != nil {
			return g, err
		}
		b.cache[k] = g
	}
	if neg {
		return g.Not(), nil
	}
	return g, nil
}

// xor3Lit returns a literal ⇔ x ⊕ y ⊕ z (the full-adder sum bit).
// Constant or same-variable operands collapse to a two-input XOR or a
// wire; otherwise signs are stripped into the output as in xorLit.
func (b *Blaster) xor3Lit(x, y, z sat.Lit) (sat.Lit, error) {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	two := func(p, q sat.Lit, flip bool) (sat.Lit, error) {
		b.stats.GatesFolded++
		g, err := b.xorLit(p, q)
		if err != nil {
			return g, err
		}
		if flip {
			g = g.Not()
		}
		return g, nil
	}
	switch {
	case x == lT || x == lF:
		return two(y, z, x == lT)
	case y == lT || y == lF:
		return two(x, z, y == lT)
	case z == lT || z == lF:
		return two(x, y, z == lT)
	case x.Var() == y.Var():
		b.stats.GatesFolded++
		if x == y {
			return z, nil
		}
		return z.Not(), nil
	case x.Var() == z.Var():
		b.stats.GatesFolded++
		if x == z {
			return y, nil
		}
		return y.Not(), nil
	case y.Var() == z.Var():
		b.stats.GatesFolded++
		if y == z {
			return x, nil
		}
		return x.Not(), nil
	}
	neg := (int32(x) ^ int32(y) ^ int32(z)) & 1
	a, c2, c3 := x&^1, y&^1, z&^1
	if c2 < a {
		a, c2 = c2, a
	}
	if c3 < c2 {
		c2, c3 = c3, c2
		if c2 < a {
			a, c2 = c2, a
		}
	}
	k := gateKey{op: gXor3, a: a, b: c2, c: c3}
	g, ok := b.cache[k]
	if !ok {
		g = sat.PosLit(b.S.NewVar())
		b.stats.GatesEmitted++
		if err := b.xor3Gate(g, a, c2, c3); err != nil {
			return g, err
		}
		b.cache[k] = g
	}
	if neg == 1 {
		return g.Not(), nil
	}
	return g, nil
}

// majLit returns a literal ⇔ maj(x, y, z) (the full-adder carry bit).
// A constant operand reduces it to AND/OR; a repeated or complementary
// operand pair reduces it to a wire.
func (b *Blaster) majLit(x, y, z sat.Lit) (sat.Lit, error) {
	b.stats.GatesRequested++
	lT := b.lTrue
	lF := lT.Not()
	switch {
	case x == lT:
		b.stats.GatesFolded++
		return b.orLit(y, z)
	case x == lF:
		b.stats.GatesFolded++
		return b.andLit(y, z)
	case y == lT:
		b.stats.GatesFolded++
		return b.orLit(x, z)
	case y == lF:
		b.stats.GatesFolded++
		return b.andLit(x, z)
	case z == lT:
		b.stats.GatesFolded++
		return b.orLit(x, y)
	case z == lF:
		b.stats.GatesFolded++
		return b.andLit(x, y)
	case x == y:
		b.stats.GatesFolded++
		return x, nil
	case x == y.Not():
		b.stats.GatesFolded++
		return z, nil
	case x == z:
		b.stats.GatesFolded++
		return x, nil
	case x == z.Not():
		b.stats.GatesFolded++
		return y, nil
	case y == z:
		b.stats.GatesFolded++
		return y, nil
	case y == z.Not():
		b.stats.GatesFolded++
		return x, nil
	}
	// maj is symmetric: sort the operands for a canonical key.
	if y < x {
		x, y = y, x
	}
	if z < y {
		y, z = z, y
		if y < x {
			x, y = y, x
		}
	}
	k := gateKey{op: gMaj, a: x, b: y, c: z}
	if g, ok := b.cache[k]; ok {
		return g, nil
	}
	g := sat.PosLit(b.S.NewVar())
	b.stats.GatesEmitted++
	if err := b.majGate(g, x, y, z); err != nil {
		return g, err
	}
	b.cache[k] = g
	return g, nil
}

// addVecH returns x + y + cin (mod 2^w) as a wire vector; bits are gate
// outputs (or constants) rather than fresh equated variables.
func (b *Blaster) addVecH(x, y []sat.Lit, cin sat.Lit) ([]sat.Lit, error) {
	out := make([]sat.Lit, len(x))
	c := cin
	var err error
	for i := range x {
		out[i], err = b.xor3Lit(x[i], y[i], c)
		if err != nil {
			return nil, err
		}
		c, err = b.majLit(x[i], y[i], c)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// subVecH returns x − y (mod 2^w) via x + ¬y + 1.
func (b *Blaster) subVecH(x, y []sat.Lit) ([]sat.Lit, error) {
	return b.addVecH(x, negVec(y), b.lTrue)
}

// mulVecH is the shift-add multiplier over hashed partial products.
func (b *Blaster) mulVecH(x, y []sat.Lit) ([]sat.Lit, error) {
	w := len(x)
	lF := b.lTrue.Not()
	acc := make([]sat.Lit, w)
	var err error
	for i := 0; i < w; i++ {
		acc[i], err = b.andLit(x[i], y[0])
		if err != nil {
			return nil, err
		}
	}
	for j := 1; j < w; j++ {
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = lF
		}
		for i := j; i < w; i++ {
			row[i], err = b.andLit(x[i-j], y[j])
			if err != nil {
				return nil, err
			}
		}
		acc, err = b.addVecH(acc, row, lF)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// mulConstVecH multiplies by a constant over the constant's set bits; the
// initial zero accumulator and shifted-in zero bits fold away entirely.
func (b *Blaster) mulConstVecH(x []sat.Lit, c int64, w int) ([]sat.Lit, error) {
	neg := false
	if c < 0 {
		neg = true
		c = -c
	}
	lF := b.lTrue.Not()
	zero := b.constVec(0, w)
	acc := zero
	for j := 0; j < w && c>>j != 0; j++ {
		if c&(1<<j) == 0 {
			continue
		}
		row := make([]sat.Lit, w)
		for i := 0; i < j; i++ {
			row[i] = lF
		}
		for i := j; i < w; i++ {
			row[i] = x[i-j]
		}
		var err error
		acc, err = b.addVecH(acc, row, lF)
		if err != nil {
			return nil, err
		}
	}
	if neg {
		return b.subVecH(zero, acc)
	}
	return acc, nil
}

// eqLitH returns a literal ⇔ (x = y) as an XNOR-AND chain; per-bit XORs
// against constant operands fold to wires.
func (b *Blaster) eqLitH(x, y []sat.Lit) (sat.Lit, error) {
	acc := b.lTrue
	for i := range x {
		d, err := b.xorLit(x[i], y[i])
		if err != nil {
			return sat.LitUndef, err
		}
		acc, err = b.andLit(acc, d.Not())
		if err != nil {
			return sat.LitUndef, err
		}
	}
	return acc, nil
}

// signOfSubH returns the sign bit of x − y computed over the carry chain
// only: the unused low sum bits of the subtraction are never materialized,
// so a comparator costs one MAJ per bit plus one final XOR3.
func (b *Blaster) signOfSubH(x, y []sat.Lit) (sat.Lit, error) {
	w := len(x)
	c := b.lTrue
	var err error
	for i := 0; i < w-1; i++ {
		c, err = b.majLit(x[i], y[i].Not(), c)
		if err != nil {
			return sat.LitUndef, err
		}
	}
	return b.xor3Lit(x[w-1], y[w-1].Not(), c)
}

// signBitOfDiffH returns the sign bit of x − y over atoms, computed at
// width w+1 so the subtraction cannot wrap.
func (b *Blaster) signBitOfDiffH(xa, ya ir.Atom) (sat.Lit, error) {
	w := b.atomWidth(xa)
	if wy := b.atomWidth(ya); wy > w {
		w = wy
	}
	w++
	return b.signOfSubH(b.atomVec(xa, w), b.atomVec(ya, w))
}

// blastHashed is the encoding pass. Defined integers and Booleans alias
// their circuit's output wires instead of being equated to fresh variables
// (sound because ToTriplets emits definitions in topological order, each
// result defined exactly once), and every gate goes through the
// fold/cache layer above.
func (b *Blaster) blastHashed() error {
	tr := b.Tr
	defInt := make([]bool, len(tr.Ints))
	for _, d := range tr.IntDefs {
		defInt[d.Res] = true
	}
	defBool := make([]bool, len(tr.BoolNames))
	for _, d := range tr.CmpDefs {
		defBool[d.P] = true
	}
	for _, g := range tr.Gates {
		defBool[g.P] = true
	}

	b.bools = make([]sat.Lit, len(tr.BoolNames))
	for i := range tr.BoolNames {
		if !defBool[i] {
			b.bools[i] = sat.PosLit(b.S.NewVar())
		}
	}
	b.vecs = make([][]sat.Lit, len(tr.Ints))
	for i, info := range tr.Ints {
		if defInt[i] {
			continue
		}
		w := widthFor(info.Lo, info.Hi)
		vec := make([]sat.Lit, w)
		for j := range vec {
			vec[j] = sat.PosLit(b.S.NewVar())
		}
		b.vecs[i] = vec
		if err := b.rangeAsserts(vec, info); err != nil {
			return err
		}
	}
	for _, d := range tr.IntDefs {
		if err := b.blastIntDefH(d); err != nil {
			return err
		}
	}
	for _, d := range tr.CmpDefs {
		if err := b.blastCmpDefH(d); err != nil {
			return err
		}
	}
	for _, g := range tr.Gates {
		if err := b.blastGateH(g); err != nil {
			return err
		}
	}
	for _, r := range tr.Roots {
		if err := b.S.AddClause(b.blit(r)); err != nil {
			return err
		}
	}
	return nil
}

// rangeAsserts adds lo ≤ v ≤ hi when the vector's width admits values
// outside the declared range.
func (b *Blaster) rangeAsserts(vec []sat.Lit, info ir.IntInfo) error {
	w := len(vec)
	min := int64(-1) << (w - 1)
	max := -min - 1
	if info.Lo > min {
		if err := b.assertCmpConst(vec, info.Lo, true); err != nil {
			return err
		}
	}
	if info.Hi < max {
		return b.assertCmpConst(vec, info.Hi, false)
	}
	return nil
}

func (b *Blaster) blastIntDefH(d ir.IntDef) error {
	info := b.Tr.Ints[d.Res]
	w := widthFor(info.Lo, info.Hi)
	x := b.atomVec(d.A, w)
	y := b.atomVec(d.B, w)
	var out []sat.Lit
	var err error
	switch d.Op {
	case ir.OpAdd:
		out, err = b.addVecH(x, y, b.lTrue.Not())
	case ir.OpSub:
		out, err = b.subVecH(x, y)
	case ir.OpMul:
		switch {
		case d.A.IsConst:
			out, err = b.mulConstVecH(y, d.A.Const, w)
		case d.B.IsConst:
			out, err = b.mulConstVecH(x, d.B.Const, w)
		default:
			out, err = b.mulVecH(x, y)
		}
	default:
		return fmt.Errorf("bv: unknown arithmetic operator %v", d.Op)
	}
	if err != nil {
		return err
	}
	// Output aliasing: the result IS the circuit output — no fresh vector,
	// no equate chain. The declared range still narrows it when needed.
	b.vecs[d.Res] = out
	return b.rangeAsserts(out, info)
}

// leLit returns a literal ⇔ (x ≤ y) over atoms.
func (b *Blaster) leLit(xa, ya ir.Atom) (sat.Lit, error) {
	if xa.IsConst && ya.IsConst {
		if xa.Const <= ya.Const {
			return b.lTrue, nil
		}
		return b.lTrue.Not(), nil
	}
	// x ≤ y ⇔ ¬sign(y − x).
	sgn, err := b.signBitOfDiffH(ya, xa)
	return sgn.Not(), err
}

func (b *Blaster) blastCmpDefH(d ir.CmpDef) error {
	var p sat.Lit
	var err error
	switch d.Op {
	case ir.OpLE:
		p, err = b.leLit(d.A, d.B)
	case ir.OpLT:
		// a < b ⇔ ¬(b ≤ a).
		p, err = b.leLit(d.B, d.A)
		p = p.Not()
	case ir.OpEQ, ir.OpNE:
		w := b.atomWidth(d.A)
		if wy := b.atomWidth(d.B); wy > w {
			w = wy
		}
		p, err = b.eqLitH(b.atomVec(d.A, w), b.atomVec(d.B, w))
		if d.Op == ir.OpNE {
			p = p.Not()
		}
	default:
		return fmt.Errorf("bv: unknown relational operator %v", d.Op)
	}
	if err != nil {
		return err
	}
	b.bools[d.P] = p
	return nil
}

func (b *Blaster) blastGateH(g ir.Gate) error {
	q := b.blit(g.Q)
	r := b.blit(g.R)
	var p sat.Lit
	var err error
	switch g.Op {
	case ir.OpAnd:
		p, err = b.andLit(q, r)
	case ir.OpOr:
		p, err = b.orLit(q, r)
	case ir.OpImply:
		p, err = b.orLit(q.Not(), r)
	case ir.OpIff:
		p, err = b.xorLit(q, r)
		p = p.Not()
	case ir.OpXor:
		p, err = b.xorLit(q, r)
	default:
		return fmt.Errorf("bv: unknown gate %v", g.Op)
	}
	if err != nil {
		return err
	}
	b.bools[g.P] = p
	return nil
}

// assertCmpConst asserts v ≥ k (ge) or v ≤ k against a constant: the
// sign bit of the width-(w+1) subtraction, whose constant operand folds
// each full adder down to a two-input carry gate.
func (b *Blaster) assertCmpConst(vec []sat.Lit, k int64, ge bool) error {
	l, err := b.cmpConstLit(vec, k, !ge)
	if err != nil {
		return err
	}
	return b.S.AddClause(l)
}

// cmpConstLit builds the (un-memoized) literal for v ≤ k (le) or v ≥ k.
func (b *Blaster) cmpConstLit(vec []sat.Lit, k int64, le bool) (sat.Lit, error) {
	w := len(vec) + 1
	x := signExtend(vec, w)
	y := b.constVec(k, w)
	var sgn sat.Lit
	var err error
	if le {
		sgn, err = b.signOfSubH(y, x) // k − v ≥ 0
	} else {
		sgn, err = b.signOfSubH(x, y) // v − k ≥ 0
	}
	return sgn.Not(), err
}
