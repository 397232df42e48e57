package bv

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"satalloc/internal/ir"
	"satalloc/internal/sat"
)

// This file holds the test-only encoder variants the equisatisfiability
// harness runs beside the production blaster and the legacy oracle:
//
//   - the ladder comparator, a unary chain over the offset-binary form,
//     which pins source variables through gates that share nothing with
//     the production subtract-based comparator;
//   - the CNF carry, which rewrites every pseudo-Boolean constraint of a
//     compiled system (the blaster's only ones are the eq. 19 carry pairs)
//     into the clauses it implies, so the circuit is checked without the
//     solver's PB propagation.
//
// Both were production alternatives once; they stay here only as oracles.

// ladderLE returns a literal ⇔ (v ≤ k) for the signed vector v, as a unary
// LSB→MSB chain over the offset-binary form (sign bit flipped, bound
// shifted by 2^(w−1)): at each position the chain literal is a single
// AND/OR gate of the hashed gate cache.
func (b *Blaster) ladderLE(vec []sat.Lit, k int64) (sat.Lit, error) {
	w := len(vec)
	min := int64(-1) << (w - 1)
	max := -min - 1
	if k >= max {
		return b.lTrue, nil
	}
	if k < min {
		return b.lTrue.Not(), nil
	}
	kb := uint64(k - min)
	le := b.lTrue
	var err error
	for i := 0; i < w; i++ {
		y := vec[i]
		if i == w-1 {
			y = y.Not() // offset-binary: flip the sign bit
		}
		// v[0..i] ≤ kb[0..i] ⇔ (v_i < kb_i) ∨ (v_i = kb_i ∧ le_{i−1}).
		if kb&(1<<uint(i)) != 0 {
			le, err = b.orLit(y.Not(), le)
		} else {
			le, err = b.andLit(y.Not(), le)
		}
		if err != nil {
			return sat.LitUndef, err
		}
	}
	return le, nil
}

// ladderSystem is a production System whose bound literals come from the
// ladder comparator instead of the production comparator.
type ladderSystem struct{ *System }

// UpperBoundLit returns an assumption literal ⇔ (v ≤ k).
func (sys ladderSystem) UpperBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return sys.B.ladderLE(sys.B.vecs[sys.Tr.SourceInt[v.ID]], k)
}

// LowerBoundLit returns an assumption literal ⇔ (v ≥ k), as ¬(v ≤ k−1).
func (sys ladderSystem) LowerBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	l, err := sys.B.ladderLE(sys.B.vecs[sys.Tr.SourceInt[v.ID]], k-1)
	return l.Not(), err
}

// cnfCarrySystem is an encoding whose solver was rewritten by
// transcribeCarryCNF. Every bound literal of the source integers was built
// before the rewrite, so solving never adds a PB constraint afterwards.
type cnfCarrySystem struct {
	encoding
	bounds map[cnfBoundKey]sat.Lit
}

type cnfBoundKey struct {
	v  *ir.IntVar
	k  int64
	le bool
}

// withCNFCarry builds every bound literal the harness can ask of enc over
// f's integer domains, then rewrites sys (the System enc is built on) to
// the CNF carry.
func withCNFCarry(f *ir.Formula, enc encoding, sys *System) (encoding, error) {
	c := &cnfCarrySystem{encoding: enc, bounds: map[cnfBoundKey]sat.Lit{}}
	if !sys.Tr.Unsat {
		for _, v := range f.IntVars {
			for k := v.Lo; k <= v.Hi; k++ {
				le, err := enc.UpperBoundLit(v, k)
				if err != nil {
					return nil, err
				}
				ge, err := enc.LowerBoundLit(v, k)
				if err != nil {
					return nil, err
				}
				c.bounds[cnfBoundKey{v, k, true}] = le
				c.bounds[cnfBoundKey{v, k, false}] = ge
			}
		}
	}
	return c, transcribeCarryCNF(sys)
}

func (c *cnfCarrySystem) bound(v *ir.IntVar, k int64, le bool) (sat.Lit, error) {
	l, ok := c.bounds[cnfBoundKey{v, k, le}]
	if !ok {
		return sat.LitUndef, fmt.Errorf("no bound literal for %s (k=%d, le=%t) was built before the CNF rewrite", v.Name, k, le)
	}
	return l, nil
}

// UpperBoundLit returns the prebuilt assumption literal ⇔ (v ≤ k).
func (c *cnfCarrySystem) UpperBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return c.bound(v, k, true)
}

// LowerBoundLit returns the prebuilt assumption literal ⇔ (v ≥ k).
func (c *cnfCarrySystem) LowerBoundLit(v *ir.IntVar, k int64) (sat.Lit, error) {
	return c.bound(v, k, false)
}

// transcribeCarryCNF replaces sys's solver by a fresh one over the same
// variables holding the same problem, with every PB constraint replaced by
// the minimal clauses it implies. For the carry pair of eq. 19 those are
// the six ternary clauses of the CNF majority gate; only clauses are
// added to the new solver.
func transcribeCarryCNF(sys *System) error {
	var buf bytes.Buffer
	if err := sys.S.WriteOPB(&buf); err != nil {
		return err
	}
	nw := sat.New()
	for nw.NumVariables() < sys.S.NumVariables() {
		nw.NewVar()
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		terms, bound, err := parseOPBLine(line)
		if err != nil {
			return err
		}
		for _, t := range terms {
			for int(t.Lit.Var()) > nw.NumVariables() {
				nw.NewVar()
			}
		}
		for _, cl := range pbClauses(terms, bound) {
			if err := nw.AddClause(cl...); err != nil {
				return err
			}
		}
	}
	sys.S, sys.B.S = nw, nw
	return nil
}

// parseOPBLine parses one "+c lit … >= bound ;" line as WriteOPB emits it.
func parseOPBLine(line string) ([]sat.PBTerm, int64, error) {
	lhs, rhs, ok := strings.Cut(strings.TrimSuffix(line, ";"), ">=")
	if !ok {
		return nil, 0, fmt.Errorf("OPB line without >=: %q", line)
	}
	bound, err := strconv.ParseInt(strings.TrimSpace(rhs), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("OPB bound in %q: %v", line, err)
	}
	tok := strings.Fields(lhs)
	if len(tok)%2 != 0 {
		return nil, 0, fmt.Errorf("OPB terms in %q: odd token count", line)
	}
	var terms []sat.PBTerm
	for i := 0; i < len(tok); i += 2 {
		coef, err := strconv.ParseInt(tok[i], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("OPB coefficient in %q: %v", line, err)
		}
		name, neg := strings.CutPrefix(tok[i+1], "~")
		idx, err := strconv.Atoi(strings.TrimPrefix(name, "x"))
		if err != nil || !strings.HasPrefix(name, "x") || idx < 1 {
			return nil, 0, fmt.Errorf("OPB variable %q in %q", tok[i+1], line)
		}
		terms = append(terms, sat.PBTerm{Coef: coef, Lit: sat.MkLit(sat.Var(idx), neg)})
	}
	return terms, bound, nil
}

// pbClauses returns the minimal clauses equivalent to Σ coef·lit ≥ bound
// (positive coefficients): a set F of literals forms an implied clause
// exactly when the coefficients outside F sum to less than the bound, and
// the minimal such sets together are equivalent to the constraint. The
// blaster's constraints have at most four terms, so enumeration is cheap.
func pbClauses(terms []sat.PBTerm, bound int64) [][]sat.Lit {
	n := len(terms)
	if n > 16 {
		panic(fmt.Sprintf("pbClauses: %d terms is too many to enumerate", n))
	}
	var total int64
	for _, t := range terms {
		total += t.Coef
	}
	implied := func(mask int) bool {
		rest := total
		for i, t := range terms {
			if mask&(1<<i) != 0 {
				rest -= t.Coef
			}
		}
		return rest < bound
	}
	var out [][]sat.Lit
	for mask := 0; mask < 1<<n; mask++ {
		if !implied(mask) {
			continue
		}
		minimal := true
		for i := 0; i < n && minimal; i++ {
			if mask&(1<<i) != 0 && implied(mask&^(1<<i)) {
				minimal = false
			}
		}
		if !minimal {
			continue
		}
		var cl []sat.Lit
		for i, t := range terms {
			if mask&(1<<i) != 0 {
				cl = append(cl, t.Lit)
			}
		}
		out = append(out, cl)
	}
	return out
}
