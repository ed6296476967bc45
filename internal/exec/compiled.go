package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Operand names one side of a compiled comparison: a property of a bound
// query vertex or edge, or a constant. Shift adds a constant to numeric
// variable operands (banded predicates).
type Operand struct {
	IsConst bool
	Const   storage.Value
	IsEdge  bool
	Slot    int
	Prop    string
	Shift   int64
}

// ConstOperand builds a constant operand.
func ConstOperand(v storage.Value) Operand { return Operand{IsConst: true, Const: v} }

// VertexOperand builds an operand reading a vertex slot's property.
func VertexOperand(slot int, prop string) Operand { return Operand{Slot: slot, Prop: prop} }

// EdgeOperand builds an operand reading an edge slot's property.
func EdgeOperand(slot int, prop string) Operand { return Operand{IsEdge: true, Slot: slot, Prop: prop} }

// Value resolves the operand under a binding.
func (o *Operand) Value(rt *Runtime, b *Binding) storage.Value {
	var v storage.Value
	switch {
	case o.IsConst:
		v = o.Const
	case o.IsEdge:
		e := b.E[o.Slot]
		switch o.Prop {
		case pred.PropID:
			v = storage.Int(int64(e))
		case pred.PropLabel:
			v = storage.Str(rt.G.Catalog().EdgeLabelName(rt.G.EdgeLabel(e)))
		default:
			v = rt.G.EdgeProp(e, o.Prop)
		}
	default:
		u := b.V[o.Slot]
		switch o.Prop {
		case pred.PropID:
			v = storage.Int(int64(u))
		case pred.PropLabel:
			v = storage.Str(rt.G.Catalog().VertexLabelName(rt.G.VertexLabel(u)))
		default:
			v = rt.G.VertexProp(u, o.Prop)
		}
	}
	if o.Shift != 0 {
		v = pred.ApplyShift(v, o.Shift)
	}
	return v
}

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

// CompiledTerm is a comparison ready to evaluate against bindings.
type CompiledTerm struct {
	Left  Operand
	Op    pred.Op
	Right Operand
}

// Eval evaluates the term; it also counts one predicate evaluation.
func (t *CompiledTerm) Eval(rt *Runtime, b *Binding) bool {
	rt.PredEvals++
	return pred.Compare(t.Left.Value(rt, b), t.Op, t.Right.Value(rt, b))
}

// String implements fmt.Stringer.
func (t *CompiledTerm) String() string {
	return fmt.Sprintf("%s %s %s", t.Left.String(), t.Op, t.Right.String())
}

func evalAll(rt *Runtime, b *Binding, terms []CompiledTerm) bool {
	for i := range terms {
		if !terms[i].Eval(rt, b) {
			return false
		}
	}
	return true
}
