package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Operand names one side of a query term as a plan keeps it: a property of
// a bound query vertex or edge slot, by name, or a constant. A cached plan
// is shared by every snapshot of its store, so it never holds a column:
// each pipeline binds its operands once against its runtime's graph
// (pred.SlotRef, pred.Compile) and evaluates them through the same compiled
// terms as a view predicate.
type Operand struct {
	IsConst bool
	Const   storage.Value
	IsEdge  bool
	Slot    int
	Prop    string
}

// ConstOperand builds a constant operand.
func ConstOperand(v storage.Value) Operand { return Operand{IsConst: true, Const: v} }

// VertexOperand builds an operand reading a vertex slot's property.
func VertexOperand(slot int, prop string) Operand { return Operand{Slot: slot, Prop: prop} }

// EdgeOperand builds an operand reading an edge slot's property.
func EdgeOperand(slot int, prop string) Operand { return Operand{IsEdge: true, Slot: slot, Prop: prop} }

// ref returns the binding-slot reference of a variable operand.
func (o *Operand) ref() pred.Ref { return pred.SlotRef(o.IsEdge, o.Slot, o.Prop) }

// String implements fmt.Stringer.
func (o *Operand) String() string {
	if o.IsConst {
		return o.Const.String()
	}
	kind := "v"
	if o.IsEdge {
		kind = "e"
	}
	return fmt.Sprintf("%s%d.%s", kind, o.Slot, o.Prop)
}

// CompiledTerm is one comparison of a plan, Left Op Right+Shift: Left is a
// variable operand, Right a variable or a constant, and Shift is added to
// the right operand (banded predicates). Terms are NULL-strict and compare
// as pred.Compare does.
type CompiledTerm struct {
	Left  Operand
	Op    pred.Op
	Right Operand
	Shift int64
}

// term returns t as a predicate term over binding slots.
func (t *CompiledTerm) term() pred.Term {
	if t.Left.IsConst {
		panic("exec: a term's left operand must be a variable")
	}
	pt := pred.Term{Left: t.Left.ref(), Op: t.Op}
	if t.Right.IsConst {
		pt.Const = pred.ApplyShift(t.Right.Const, t.Shift)
	} else {
		pt.Right, pt.Shift = t.Right.ref(), t.Shift
	}
	return pt
}

// String implements fmt.Stringer.
func (t *CompiledTerm) String() string {
	return fmt.Sprintf("%s %s %s", t.Left.String(), t.Op, t.Right.String())
}

// bindTerms compiles an operator's terms against g, once per pipeline.
func bindTerms(g *storage.Graph, terms []CompiledTerm) *pred.Compiled {
	p := pred.Predicate{Terms: make([]pred.Term, len(terms))}
	for i := range terms {
		p.Terms[i] = terms[i].term()
	}
	return pred.Compile(p, g)
}

// evalAll reports whether the binding satisfies an operator's bound terms,
// counting one predicate evaluation per term evaluated: terms run in order
// and stop at the first false one.
func evalAll(rt *Runtime, b *Binding, terms *pred.Compiled) bool {
	ok, n := terms.EvalBinding(b.V, b.E)
	rt.PredEvals += n
	return ok
}
