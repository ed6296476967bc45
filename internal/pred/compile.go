package pred

import "github.com/aplusdb/aplus/internal/storage"

// Compiled is a predicate bound to one graph. Compile resolves every operand
// once — to a property column, the ID or label pseudo-property, or a
// constant — so evaluating an adjacency entry does no name or map lookup, and
// int-against-int terms read their operands unboxed.
//
// A Compiled reads the columns the graph held when it was compiled. Columns
// are copied on write per snapshot, so compile once per build or fold,
// against the graph that call reads, and never keep the result on a
// published index or a cached plan.
//
// Every term is NULL-strict: when either operand is NULL — a property with no
// column, an unset cell, the bound edge when there is none, or a NULL
// constant — the term is false whatever its operator, NE included.
// Otherwise the operands compare as storage.Value.Compare orders them:
// numbers (int, float, ID) numerically through float64, strings and bools
// within their kind, and values of different non-numeric kinds by kind.
// A term's Shift is added to its right variable operand before comparing.
type Compiled struct {
	g     *storage.Graph
	terms []compiledTerm
}

// source says where an operand's value comes from.
type source uint8

const (
	// srcNull is always NULL: a missing column or a const-less VarNone.
	srcNull source = iota
	srcConst
	srcID
	srcLabel
	// srcInt is an int column, read unboxed by int-against-int terms.
	srcInt
	// srcColumn is any other column (float, string, bool), read as a Value.
	srcColumn
	// srcNbr is an unresolved vnbr reference; reading it panics.
	srcNbr
)

type operand struct {
	v   Var
	src source
	col *storage.Column
	c   storage.Value
}

// integer reports whether the operand always reads as an int64 or NULL.
func (o operand) integer() bool {
	switch o.src {
	case srcID, srcInt:
		return true
	case srcConst:
		return o.c.Kind == storage.KindInt
	}
	return false
}

// termKind selects a term's evaluation path.
type termKind uint8

const (
	// kindValue reads both operands as Values and applies Compare.
	kindValue termKind = iota
	// kindInt reads both operands as unboxed int64s, the typical view
	// predicate over date or amount columns.
	kindInt
	// kindFalse has a statically NULL operand.
	kindFalse
	// kindPanic references an unresolved vnbr.
	kindPanic
)

type compiledTerm struct {
	kind termKind
	op   Op
	// accept[c+1] says whether the three-way comparison result c
	// satisfies op, for kindInt.
	accept      [3]bool
	shift       int64
	left, right operand
}

// Compile binds p to g's columns. p must have its vnbr references resolved
// (ResolveNbr); a term that still names vnbr panics when evaluated, as it
// cannot know which endpoint is the neighbour.
func Compile(p Predicate, g *storage.Graph) *Compiled {
	c := &Compiled{g: g}
	if len(p.Terms) > 0 {
		c.terms = make([]compiledTerm, len(p.Terms))
	}
	for i, t := range p.Terms {
		ct := compiledTerm{op: t.Op, left: bind(g, t.Left)}
		for r := -1; r <= 1; r++ {
			ct.accept[r+1] = Compare(storage.Int(int64(r)), t.Op, storage.Int(0))
		}
		if t.IsConst() {
			ct.right = operand{src: srcConst, c: t.Const}
			if t.Const.IsNull() {
				ct.right.src = srcNull
			}
		} else {
			ct.right = bind(g, t.Right)
			ct.shift = t.Shift
		}
		switch {
		case ct.left.src == srcNbr || ct.right.src == srcNbr:
			ct.kind = kindPanic
		case ct.left.src == srcNull || ct.right.src == srcNull:
			ct.kind = kindFalse
		case ct.left.integer() && ct.right.integer():
			ct.kind = kindInt
		default:
			ct.kind = kindValue
		}
		c.terms[i] = ct
	}
	return c
}

// bind resolves a variable reference to its source.
func bind(g *storage.Graph, r Ref) operand {
	o := operand{v: r.Var}
	var edge bool
	switch r.Var {
	case VarAdj, VarBound:
		edge = true
	case VarSrc, VarDst:
	case VarNbr:
		o.src = srcNbr
		return o
	default:
		return o
	}
	switch r.Prop {
	case PropID:
		o.src = srcID
		return o
	case PropLabel:
		o.src = srcLabel
		return o
	}
	var ok bool
	if edge {
		o.col, ok = g.EdgeColumn(r.Prop)
	} else {
		o.col, ok = g.VertexColumn(r.Prop)
	}
	switch {
	case !ok:
		o.src = srcNull
	case o.col.Kind == storage.KindInt:
		o.src = srcInt
	default:
		o.src = srcColumn
	}
	return o
}

// Eval reports whether the adjacency entry adj satisfies the predicate.
// bound is the bound edge of a 2-hop view; when hasBound is false every
// operand on eb is NULL.
func (c *Compiled) Eval(adj, bound storage.EdgeID, hasBound bool) bool {
	for i := range c.terms {
		t := &c.terms[i]
		switch t.kind {
		case kindInt:
			l, ok := t.left.int(c.g, adj, bound, hasBound)
			if !ok {
				return false
			}
			r, ok := t.right.int(c.g, adj, bound, hasBound)
			// Value.Compare compares ints through float64, so ints beyond
			// 2^53 that share a float64 compare equal here too.
			if !ok || !t.accept[compareFloat(float64(l), float64(r+t.shift))+1] {
				return false
			}
		case kindValue:
			l := t.left.value(c.g, adj, bound, hasBound)
			r := ApplyShift(t.right.value(c.g, adj, bound, hasBound), t.shift)
			if !Compare(l, t.op, r) {
				return false
			}
		case kindFalse:
			return false
		case kindPanic:
			panic("pred: unresolved vnbr reference; resolve direction first")
		}
	}
	return true
}

// entity returns the ID of the edge or vertex the operand reads; ok is
// false for the bound edge when there is none.
func (o *operand) entity(g *storage.Graph, adj, bound storage.EdgeID, hasBound bool) (uint64, bool) {
	switch o.v {
	case VarAdj:
		return uint64(adj), true
	case VarBound:
		return uint64(bound), hasBound
	case VarSrc:
		return uint64(g.Src(adj)), true
	default: // VarDst
		return uint64(g.Dst(adj)), true
	}
}

// int reads an integer operand; ok is false for NULL.
func (o *operand) int(g *storage.Graph, adj, bound storage.EdgeID, hasBound bool) (int64, bool) {
	if o.src == srcConst {
		return o.c.I, true
	}
	id, ok := o.entity(g, adj, bound, hasBound)
	if !ok {
		return 0, false
	}
	if o.src == srcID {
		return int64(id), true
	}
	return o.col.IntAt(int(id))
}

// value reads an operand as a Value (NULL when absent).
func (o *operand) value(g *storage.Graph, adj, bound storage.EdgeID, hasBound bool) storage.Value {
	if o.src == srcConst {
		return o.c
	}
	id, ok := o.entity(g, adj, bound, hasBound)
	if !ok {
		return storage.NullValue
	}
	switch o.src {
	case srcID:
		return storage.Int(int64(id))
	case srcLabel:
		if o.v == VarAdj || o.v == VarBound {
			return storage.Str(g.Catalog().EdgeLabelName(g.EdgeLabel(storage.EdgeID(id))))
		}
		return storage.Str(g.Catalog().VertexLabelName(g.VertexLabel(storage.VertexID(id))))
	default: // srcInt, srcColumn
		return o.col.Get(int(id))
	}
}

// compareFloat orders two numbers as storage.Value.Compare orders numeric
// values.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
