package pred

import "github.com/aplusdb/aplus/internal/storage"

// Compiled is a predicate bound to one graph. Compile resolves every operand
// once — to a property column, the ID or label pseudo-property, or a
// constant — so evaluating a term does no name or map lookup. View
// predicates read an adjacency entry (Eval); query terms read the slots of
// a query binding (EvalBinding). Both run the same compiled terms:
// int-against-int terms read their operands unboxed, a string column
// against a string constant or against itself compares dictionary codes
// (EQ, NE), and a label against a string constant compares label IDs
// (EQ, NE). Every other term compares Values.
//
// A Compiled reads the columns the graph held when it was compiled. Columns
// are copied on write per snapshot, so compile once per build, fold or
// query pipeline, against the graph that call reads, and never keep the
// result on a published index or a cached plan.
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
	v    Var
	slot int
	src  source
	col  *storage.Column
	c    storage.Value
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

// edge reports whether the operand reads an edge rather than a vertex.
func (o operand) edge() bool {
	return o.v == VarAdj || o.v == VarBound || o.v == VarEdgeSlot
}

// stringColumn reports whether the operand reads a string column.
func (o operand) stringColumn() bool {
	return o.src == srcColumn && o.col.Kind == storage.KindString
}

// termKind selects a term's evaluation path.
type termKind uint8

const (
	// kindValue reads both operands as Values and applies Compare.
	kindValue termKind = iota
	// kindInt reads both operands as unboxed int64s, the typical view
	// predicate over date or amount columns.
	kindInt
	// kindCode compares dictionary codes for EQ/NE: two operands on one
	// string column, or a string column against the constant whose code
	// (if the column has it) is in code/hasCode.
	kindCode
	// kindLabel compares label IDs for EQ/NE: a label against the
	// constant label whose ID (if the catalog has it) is in code/hasCode.
	kindLabel
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
	// code is the right constant's dictionary code or label ID when
	// hasCode, for kindCode against a constant and kindLabel.
	code    uint32
	hasCode bool
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
		c.terms[i] = compileTerm(t, g)
	}
	return c
}

func compileTerm(t Term, g *storage.Graph) compiledTerm {
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
	l, r := &ct.left, &ct.right
	eqne := t.Op == EQ || t.Op == NE
	switch {
	case l.src == srcNbr || r.src == srcNbr:
		ct.kind = kindPanic
	case l.src == srcNull || r.src == srcNull:
		ct.kind = kindFalse
	case l.integer() && r.integer():
		ct.kind = kindInt
	case eqne && l.stringColumn() && r.src == srcColumn && r.col == l.col:
		// One column, one dictionary: codes are equal iff the strings are.
		// A shift leaves strings as they are.
		ct.kind = kindCode
	case eqne && l.stringColumn() && r.src == srcConst && r.c.Kind == storage.KindString:
		ct.kind = kindCode
		ct.code, ct.hasCode = l.col.Dict().Lookup(r.c.S)
	case eqne && l.src == srcLabel && r.src == srcConst && r.c.Kind == storage.KindString:
		ct.kind = kindLabel
		var id storage.LabelID
		if l.edge() {
			id, ct.hasCode = g.Catalog().LookupEdgeLabel(r.c.S)
		} else {
			id, ct.hasCode = g.Catalog().LookupVertexLabel(r.c.S)
		}
		ct.code = uint32(id)
	default:
		ct.kind = kindValue
	}
	return ct
}

// Operand is one variable reference bound to a graph's columns: a compiled
// term's operand on its own, through which a query reads a segment's
// dynamic bound.
type Operand struct {
	g *storage.Graph
	o operand
}

// BindOperand resolves a variable reference against g's columns.
func BindOperand(g *storage.Graph, r Ref) Operand { return Operand{g: g, o: bind(g, r)} }

// ValueIn reads the operand under a query binding (NULL when absent).
func (o *Operand) ValueIn(v []storage.VertexID, e []storage.EdgeID) storage.Value {
	return o.o.value(o.g, &env{v: v, e: e})
}

// bind resolves a variable reference to its source.
func bind(g *storage.Graph, r Ref) operand {
	o := operand{v: r.Var, slot: r.Slot}
	var edge bool
	switch r.Var {
	case VarAdj, VarBound, VarEdgeSlot:
		edge = true
	case VarSrc, VarDst, VarVertexSlot:
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

// env is what a compiled term reads its entities from: an adjacency entry
// (adj, and the bound edge when hasBound) for view predicates, or the
// vertex and edge slots of a query binding for query terms.
type env struct {
	adj, bound storage.EdgeID
	hasBound   bool
	v          []storage.VertexID
	e          []storage.EdgeID
}

// Eval reports whether the adjacency entry adj satisfies the predicate.
// bound is the bound edge of a 2-hop view; when hasBound is false every
// operand on eb is NULL.
func (c *Compiled) Eval(adj, bound storage.EdgeID, hasBound bool) bool {
	return c.eval(&env{adj: adj, bound: bound, hasBound: hasBound}) == len(c.terms)
}

// EvalBinding reports whether a query binding's vertex slots v and edge
// slots e satisfy the predicate. Terms run in order and stop at the first
// false one; evals is the number evaluated, the false one included.
func (c *Compiled) EvalBinding(v []storage.VertexID, e []storage.EdgeID) (ok bool, evals int64) {
	n := c.eval(&env{v: v, e: e})
	if n == len(c.terms) {
		return true, int64(n)
	}
	return false, int64(n + 1)
}

// eval returns the index of the first term that does not hold, or
// len(c.terms) when all do.
func (c *Compiled) eval(en *env) int {
	for i := range c.terms {
		if !c.terms[i].holds(c.g, en) {
			return i
		}
	}
	return len(c.terms)
}

func (t *compiledTerm) holds(g *storage.Graph, en *env) bool {
	switch t.kind {
	case kindInt:
		l, ok := t.left.int(g, en)
		if !ok {
			return false
		}
		r, ok := t.right.int(g, en)
		// Value.Compare compares ints through float64, so ints beyond
		// 2^53 that share a float64 compare equal here too.
		return ok && t.accept[compareFloat(float64(l), float64(r+t.shift))+1]
	case kindCode:
		l, ok := t.left.code(g, en)
		if !ok {
			return false
		}
		eq := t.hasCode && l == t.code
		if t.right.src != srcConst {
			var r uint32
			if r, ok = t.right.code(g, en); !ok {
				return false
			}
			eq = l == r
		}
		return eq == (t.op == EQ)
	case kindLabel:
		l, ok := t.left.label(g, en)
		if !ok {
			return false
		}
		return (t.hasCode && uint32(l) == t.code) == (t.op == EQ)
	case kindValue:
		l := t.left.value(g, en)
		r := ApplyShift(t.right.value(g, en), t.shift)
		return Compare(l, t.op, r)
	case kindPanic:
		panic("pred: unresolved vnbr reference; resolve direction first")
	}
	return false // kindFalse
}

// entity returns the ID of the edge or vertex the operand reads; ok is
// false for the bound edge when there is none.
func (o *operand) entity(g *storage.Graph, en *env) (uint64, bool) {
	switch o.v {
	case VarAdj:
		return uint64(en.adj), true
	case VarBound:
		return uint64(en.bound), en.hasBound
	case VarSrc:
		return uint64(g.Src(en.adj)), true
	case VarDst:
		return uint64(g.Dst(en.adj)), true
	case VarVertexSlot:
		return uint64(en.v[o.slot]), true
	default: // VarEdgeSlot
		return uint64(en.e[o.slot]), true
	}
}

// int reads an integer operand; ok is false for NULL.
func (o *operand) int(g *storage.Graph, en *env) (int64, bool) {
	if o.src == srcConst {
		return o.c.I, true
	}
	id, ok := o.entity(g, en)
	if !ok {
		return 0, false
	}
	if o.src == srcID {
		return int64(id), true
	}
	return o.col.IntAt(int(id))
}

// code reads a string-column operand's dictionary code; ok is false for
// NULL.
func (o *operand) code(g *storage.Graph, en *env) (uint32, bool) {
	id, ok := o.entity(g, en)
	if !ok {
		return 0, false
	}
	return o.col.Code(int(id))
}

// label reads a label operand's label ID; ok is false for the bound edge
// when there is none.
func (o *operand) label(g *storage.Graph, en *env) (storage.LabelID, bool) {
	id, ok := o.entity(g, en)
	if !ok {
		return 0, false
	}
	if o.edge() {
		return g.EdgeLabel(storage.EdgeID(id)), true
	}
	return g.VertexLabel(storage.VertexID(id)), true
}

// value reads an operand as a Value (NULL when absent).
func (o *operand) value(g *storage.Graph, en *env) storage.Value {
	switch o.src {
	case srcConst:
		return o.c
	case srcNull:
		return storage.NullValue
	}
	id, ok := o.entity(g, en)
	if !ok {
		return storage.NullValue
	}
	switch o.src {
	case srcID:
		return storage.Int(int64(id))
	case srcLabel:
		if o.edge() {
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
