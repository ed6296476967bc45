// Package pred implements the predicate language of A+ index views and
// queries: conjunctions of comparisons over properties of the adjacent edge,
// its endpoint vertices, and (for 2-hop views) the bound edge. A predicate
// is evaluated by compiling it against one graph's property columns
// (Compile), which binds every operand once so per-entry evaluation does no
// name lookup. The package also implements the two predicate-subsumption
// checks the paper's optimizer uses to decide whether an index can answer a
// query extension (Section IV-A): conjunctive subsumption and range
// subsumption.
package pred

import (
	"fmt"
	"strings"

	"github.com/aplusdb/aplus/internal/storage"
)

// Var identifies which entity a term's operand belongs to, using the
// paper's reserved keywords.
type Var uint8

const (
	// VarNone marks a constant operand.
	VarNone Var = iota
	// VarAdj is the adjacent edge (the paper's "eadj").
	VarAdj
	// VarNbr is the neighbour vertex ("vnbr").
	VarNbr
	// VarSrc is the source vertex of the adjacent edge ("vs").
	VarSrc
	// VarDst is the destination vertex of the adjacent edge ("vd").
	VarDst
	// VarBound is the bound edge of a 2-hop view ("eb").
	VarBound
)

// String implements fmt.Stringer.
func (v Var) String() string {
	switch v {
	case VarAdj:
		return "eadj"
	case VarNbr:
		return "vnbr"
	case VarSrc:
		return "vs"
	case VarDst:
		return "vd"
	case VarBound:
		return "eb"
	default:
		return "const"
	}
}

// PropLabel is the pseudo-property that resolves to the entity's label.
const PropLabel = "label"

// PropID is the pseudo-property that resolves to the entity's ID.
const PropID = "ID"

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Flip returns the operator with sides exchanged (a < b  <=>  b > a).
func (o Op) Flip() Op {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return o
}

// Ref names one side of a comparison: a property of a variable.
type Ref struct {
	Var  Var
	Prop string
}

// String implements fmt.Stringer.
func (r Ref) String() string { return r.Var.String() + "." + r.Prop }

// Term is a single comparison. Either Right (a variable reference) or Const
// is the right operand; Right.Var == VarNone selects Const. Shift adds a
// constant to the right variable's numeric value, supporting the paper's
// banded predicates like "eb.amt < eadj.amt + α".
type Term struct {
	Left  Ref
	Op    Op
	Right Ref
	Const storage.Value
	Shift int64
}

// ConstTerm builds a variable-vs-constant comparison.
func ConstTerm(v Var, prop string, op Op, c storage.Value) Term {
	return Term{Left: Ref{v, prop}, Op: op, Const: c}
}

// VarTerm builds a variable-vs-variable comparison.
func VarTerm(lv Var, lprop string, op Op, rv Var, rprop string) Term {
	return Term{Left: Ref{lv, lprop}, Op: op, Right: Ref{rv, rprop}}
}

// VarTermShift builds a banded variable-vs-variable comparison:
// left op (right + shift).
func VarTermShift(lv Var, lprop string, op Op, rv Var, rprop string, shift int64) Term {
	return Term{Left: Ref{lv, lprop}, Op: op, Right: Ref{rv, rprop}, Shift: shift}
}

// IsConst reports whether the right operand is a constant.
func (t Term) IsConst() bool { return t.Right.Var == VarNone }

// UsesBound reports whether the term references the bound edge — required
// of every edge-partitioned view predicate (Section III-B2).
func (t Term) UsesBound() bool {
	return t.Left.Var == VarBound || t.Right.Var == VarBound
}

// Normalize rewrites the term so constants sit on the right and, for
// variable-variable terms, the lower (Var, Prop) reference sits on the
// left. Subsumption and equality checks assume normalized terms.
// Flipping moves the shift to the other side with its sign negated:
// L op R+s  <=>  R op' L-s.
func (t Term) Normalize() Term {
	if t.IsConst() {
		return t
	}
	if t.Right.Var < t.Left.Var || (t.Right.Var == t.Left.Var && t.Right.Prop < t.Left.Prop) {
		return Term{Left: t.Right, Op: t.Op.Flip(), Right: t.Left, Shift: -t.Shift}
	}
	return t
}

// String implements fmt.Stringer.
func (t Term) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%s %s %s", t.Left, t.Op, t.Const)
	}
	if t.Shift != 0 {
		return fmt.Sprintf("%s %s %s%+d", t.Left, t.Op, t.Right, t.Shift)
	}
	return fmt.Sprintf("%s %s %s", t.Left, t.Op, t.Right)
}

// Predicate is a conjunction of terms. The zero value is the always-true
// predicate.
type Predicate struct {
	Terms []Term
}

// And returns a predicate with t appended.
func (p Predicate) And(t Term) Predicate {
	terms := make([]Term, len(p.Terms)+1)
	copy(terms, p.Terms)
	terms[len(p.Terms)] = t.Normalize()
	return Predicate{Terms: terms}
}

// IsTrue reports whether the predicate has no terms.
func (p Predicate) IsTrue() bool { return len(p.Terms) == 0 }

// String implements fmt.Stringer.
func (p Predicate) String() string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " AND ")
}

// ApplyShift adds a constant to a numeric value (NULL and non-numeric
// values pass through and will fail the comparison).
func ApplyShift(v storage.Value, shift int64) storage.Value {
	if shift == 0 {
		return v
	}
	switch v.Kind {
	case storage.KindInt:
		return storage.Int(v.I + shift)
	case storage.KindFloat:
		return storage.Float(v.F + float64(shift))
	default:
		return v
	}
}

// Compare applies op to two values with NULL-strict semantics.
func Compare(l storage.Value, op Op, r storage.Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := l.Compare(r)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// ResolveNbr rewrites VarNbr references to the concrete endpoint var: VarDst
// when the adjacency is forward (neighbour is the edge's destination) or
// VarSrc when backward. Index definitions keep VarNbr; evaluation paths use
// the resolved form.
func (p Predicate) ResolveNbr(forward bool) Predicate {
	target := VarDst
	if !forward {
		target = VarSrc
	}
	out := Predicate{Terms: make([]Term, len(p.Terms))}
	for i, t := range p.Terms {
		if t.Left.Var == VarNbr {
			t.Left.Var = target
		}
		if t.Right.Var == VarNbr {
			t.Right.Var = target
		}
		out.Terms[i] = t.Normalize()
	}
	return out
}
