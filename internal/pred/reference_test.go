package pred

import (
	"math"
	"math/rand"
	"testing"

	"github.com/aplusdb/aplus/internal/storage"
)

// The interpreted evaluator below is the reference semantics of a
// predicate: every operand is looked up by name, boxed, and compared with
// Compare. Compiled evaluation must agree with it on every entry.

// EdgeCtx supplies the entity bindings needed to evaluate a predicate
// against one adjacency entry, or against the slots of a query binding.
type EdgeCtx struct {
	G   *storage.Graph
	Adj storage.EdgeID
	// Bound is the bound edge for 2-hop views; HasBound gates it.
	Bound    storage.EdgeID
	HasBound bool
	// V and E are a query binding's vertex and edge slots.
	V []storage.VertexID
	E []storage.EdgeID
}

// value resolves a variable reference.
func (c EdgeCtx) value(r Ref) storage.Value {
	switch r.Var {
	case VarAdj:
		return edgeValue(c.G, c.Adj, r.Prop)
	case VarBound:
		if !c.HasBound {
			return storage.NullValue
		}
		return edgeValue(c.G, c.Bound, r.Prop)
	case VarSrc:
		return vertexValue(c.G, c.G.Src(c.Adj), r.Prop)
	case VarDst:
		return vertexValue(c.G, c.G.Dst(c.Adj), r.Prop)
	case VarNbr:
		panic("pred: unresolved vnbr reference; resolve direction first")
	case VarVertexSlot:
		return vertexValue(c.G, c.V[r.Slot], r.Prop)
	case VarEdgeSlot:
		return edgeValue(c.G, c.E[r.Slot], r.Prop)
	}
	return storage.NullValue
}

func edgeValue(g *storage.Graph, e storage.EdgeID, prop string) storage.Value {
	switch prop {
	case PropLabel:
		return storage.Str(g.Catalog().EdgeLabelName(g.EdgeLabel(e)))
	case PropID:
		return storage.Int(int64(e))
	default:
		return g.EdgeProp(e, prop)
	}
}

func vertexValue(g *storage.Graph, v storage.VertexID, prop string) storage.Value {
	switch prop {
	case PropLabel:
		return storage.Str(g.Catalog().VertexLabelName(g.VertexLabel(v)))
	case PropID:
		return storage.Int(int64(v))
	default:
		return g.VertexProp(v, prop)
	}
}

// refEval evaluates p under ctx with the interpreter.
func refEval(p Predicate, ctx EdgeCtx) bool {
	ok, _ := refEvalCounted(p, ctx)
	return ok
}

// refEvalCounted is refEval that also counts the terms evaluated: they run
// in order and stop at the first false one, which counts.
func refEvalCounted(p Predicate, ctx EdgeCtx) (bool, int64) {
	for i, t := range p.Terms {
		if !evalTerm(t, ctx) {
			return false, int64(i + 1)
		}
	}
	return true, int64(len(p.Terms))
}

func evalTerm(t Term, ctx EdgeCtx) bool {
	l := ctx.value(t.Left)
	var r storage.Value
	if t.IsConst() {
		r = t.Const
	} else {
		r = ApplyShift(ctx.value(t.Right), t.Shift)
	}
	return Compare(l, t.Op, r)
}

const big = int64(1) << 53

// parityGraph builds a small graph whose vertices and edges carry int,
// float, string and bool columns with NULL cells, an int column straddling
// 2^53, and a property whose kind differs between vertices and edges.
func parityGraph(rng *rand.Rand) *storage.Graph {
	g := storage.NewGraph()
	const nv, ne = 12, 40
	for i := 0; i < nv; i++ {
		g.AddVertex([]string{"A", "B"}[rng.Intn(2)])
	}
	for i := 0; i < ne; i++ {
		if _, err := g.AddEdge(storage.VertexID(rng.Intn(nv)), storage.VertexID(rng.Intn(nv)), []string{"L0", "L1", "L2"}[rng.Intn(3)]); err != nil {
			panic(err)
		}
	}
	set := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// Each cell is NULL with probability 1/4.
	present := func() bool { return rng.Intn(4) != 0 }
	for e := 0; e < ne; e++ {
		id := storage.EdgeID(e)
		if present() {
			set(g.SetEdgeProp(id, "i", storage.Int(int64(rng.Intn(8)-2))))
		}
		if present() {
			set(g.SetEdgeProp(id, "f", randFloat(rng)))
		}
		if present() {
			set(g.SetEdgeProp(id, "s", storage.Str(randString(rng))))
		}
		if present() {
			set(g.SetEdgeProp(id, "b", storage.Bool(rng.Intn(2) == 0)))
		}
		if present() {
			set(g.SetEdgeProp(id, "big", storage.Int(randBig(rng))))
		}
		if present() {
			set(g.SetEdgeProp(id, "x", storage.Int(int64(rng.Intn(4)))))
		}
	}
	for v := 0; v < nv; v++ {
		id := storage.VertexID(v)
		if present() {
			set(g.SetVertexProp(id, "i", storage.Int(int64(rng.Intn(8)-2))))
		}
		if present() {
			set(g.SetVertexProp(id, "f", randFloat(rng)))
		}
		if present() {
			set(g.SetVertexProp(id, "s", storage.Str(randString(rng))))
		}
		if present() {
			set(g.SetVertexProp(id, "b", storage.Bool(rng.Intn(2) == 0)))
		}
		if present() {
			set(g.SetVertexProp(id, "big", storage.Int(randBig(rng))))
		}
		if present() {
			set(g.SetVertexProp(id, "x", storage.Str(randString(rng))))
		}
	}
	return g
}

func randFloat(rng *rand.Rand) storage.Value {
	fs := []float64{-1.5, 0, 0.5, 1, 2.5, 3, math.NaN(), float64(big), float64(big) + 2}
	return storage.Float(fs[rng.Intn(len(fs))])
}

func randString(rng *rand.Rand) string {
	ss := []string{"a", "b", "c", "A", "L0", "L1"}
	return ss[rng.Intn(len(ss))]
}

// randBig draws ints around ±2^53, where distinct int64s share a float64.
func randBig(rng *rand.Rand) int64 {
	v := big + int64(rng.Intn(5)) - 1
	if rng.Intn(4) == 0 {
		v = -v
	}
	return v
}

func randConst(rng *rand.Rand) storage.Value {
	switch rng.Intn(6) {
	case 0:
		return storage.NullValue
	case 1:
		return storage.Int(int64(rng.Intn(10) - 2))
	case 2:
		return randFloat(rng)
	case 3:
		return storage.Str(randString(rng))
	case 4:
		return storage.Bool(rng.Intn(2) == 0)
	default:
		return storage.Int(randBig(rng))
	}
}

func randRef(rng *rand.Rand, nbr bool) Ref {
	vars := []Var{VarAdj, VarBound, VarSrc, VarDst, VarAdj, VarBound, VarNone}
	if nbr {
		vars = append(vars, VarNbr)
	}
	props := []string{"i", "f", "s", "b", "big", "x", "missing", PropLabel, PropID}
	return Ref{Var: vars[rng.Intn(len(vars))], Prop: props[rng.Intn(len(props))]}
}

func randTerm(rng *rand.Rand, nbr bool) Term {
	t := Term{Left: randRef(rng, nbr), Op: Op(rng.Intn(6))}
	if rng.Intn(3) == 0 {
		t.Const = randConst(rng)
		return t
	}
	t.Right = randRef(rng, nbr)
	if t.Right.Var == VarNone {
		t.Right.Var = VarAdj
	}
	shifts := []int64{0, 0, 1, -1, 3, -2, big, -big}
	t.Shift = shifts[rng.Intn(len(shifts))]
	return t
}

// Query binding shape of the slot-operand parity check.
const paritySlots = 3

// randSlotRef draws a reference to a query binding's vertex or edge slot.
func randSlotRef(rng *rand.Rand) Ref {
	props := []string{"i", "f", "s", "b", "big", "x", "missing", PropLabel, PropID}
	return SlotRef(rng.Intn(2) == 0, rng.Intn(paritySlots), props[rng.Intn(len(props))])
}

// randSlotTerm draws a query term over binding slots: a constant or a slot
// on the right, with a shift on a variable right operand.
func randSlotTerm(rng *rand.Rand) Term {
	t := Term{Left: randSlotRef(rng), Op: Op(rng.Intn(6))}
	if rng.Intn(3) == 0 {
		t.Const = randConst(rng)
		return t
	}
	t.Right = randSlotRef(rng)
	shifts := []int64{0, 0, 0, 1, -1, 3, big, -big}
	t.Shift = shifts[rng.Intn(len(shifts))]
	return t
}

// slotPairs are the operand pairs the slot-operand parity check runs under
// every operator: IDs, labels of one and of both entity kinds, label and
// string constants present and absent, missing columns, same-column and
// cross-column strings, int against int, float and bool, and shifts.
func slotPairs() []Term {
	v := func(slot int, prop string) Ref { return SlotRef(false, slot, prop) }
	e := func(slot int, prop string) Ref { return SlotRef(true, slot, prop) }
	vars := [][2]Ref{
		{v(0, PropID), v(1, PropID)},
		{e(0, PropID), v(1, "i")},
		{v(0, PropLabel), v(1, PropLabel)},
		{e(0, PropLabel), e(1, PropLabel)},
		{v(0, PropLabel), e(1, PropLabel)},
		{v(0, "s"), v(1, "s")},
		{e(0, "s"), e(1, "s")},
		{v(0, "s"), e(1, "s")},
		{v(0, "s"), v(1, "x")},
		{v(0, "i"), v(1, "i")},
		{e(0, "i"), v(1, "f")},
		{v(0, "f"), e(1, "i")},
		{v(0, "big"), e(1, "big")},
		{v(0, "i"), v(1, "b")},
		{v(0, "missing"), v(1, "i")},
		{v(0, "i"), e(1, "missing")},
	}
	consts := []struct {
		r Ref
		c storage.Value
	}{
		{v(0, PropLabel), storage.Str("A")},
		{e(0, PropLabel), storage.Str("L1")},
		{e(0, PropLabel), storage.Str("nope")},
		{v(0, PropLabel), storage.Int(1)},
		{v(0, "s"), storage.Str("b")},
		{v(0, "s"), storage.Str("nope")},
		{e(0, "s"), storage.Int(2)},
		{v(0, "i"), storage.Float(0.5)},
		{e(0, "f"), storage.Int(1)},
		{v(0, "missing"), storage.Int(1)},
		{v(0, "i"), storage.NullValue},
		{e(0, PropID), storage.Int(3)},
	}
	var out []Term
	for op := EQ; op <= GE; op++ {
		for _, p := range vars {
			for _, shift := range []int64{0, 2} {
				out = append(out, Term{Left: p[0], Op: op, Right: p[1], Shift: shift})
			}
		}
		for _, c := range consts {
			out = append(out, Term{Left: c.r, Op: op, Const: c.c})
		}
	}
	return out
}

// checkSlots compares EvalBinding with the interpreter, verdict and
// evaluation count, on random slot assignments of g.
func checkSlots(t *testing.T, rng *rand.Rand, g *storage.Graph, p Predicate) {
	t.Helper()
	c := Compile(p, g)
	ctx := EdgeCtx{G: g, V: make([]storage.VertexID, paritySlots), E: make([]storage.EdgeID, paritySlots)}
	for k := 0; k < 40; k++ {
		for s := 0; s < paritySlots; s++ {
			ctx.V[s] = storage.VertexID(rng.Intn(g.NumVertices()))
			ctx.E[s] = storage.EdgeID(rng.Intn(g.NumEdges()))
		}
		want, wantN := refEvalCounted(p, ctx)
		got, gotN := c.EvalBinding(ctx.V, ctx.E)
		if got != want || gotN != wantN {
			t.Fatalf("%v on v=%v e=%v: compiled (%v, %d evals), interpreter (%v, %d evals)",
				p, ctx.V, ctx.E, got, gotN, want, wantN)
		}
	}
}

// evalOrPanic runs f and reports whether it panicked.
func evalOrPanic(f func() bool) (res, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// TestCompiledMatchesInterpreter checks compiled evaluation against the
// interpreter on random predicates over every (adj, bound, hasBound) of a
// random graph: int, float, string and bool columns, NULL cells, missing
// properties, label and ID pseudo-properties, shifts on ints and floats,
// ints beyond 2^53, NULL constants, all six operators, and unresolved vnbr
// references, which must panic exactly when the interpreter does. Query
// terms over binding slots (EvalBinding) must agree too, in their verdict
// and in how many terms they evaluate: every operand pair of slotPairs
// under every operator, then random conjunctions.
func TestCompiledMatchesInterpreter(t *testing.T) {
	preds := 300
	if testing.Short() {
		preds = 60
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := parityGraph(rng)
		ne := g.NumEdges()
		for n := 0; n < preds; n++ {
			var p Predicate
			nbr := rng.Intn(8) == 0
			for k := 1 + rng.Intn(3); k > 0; k-- {
				// Raw terms (not Normalize'd) keep left/right placement
				// random, so shifts land on every kind of right operand.
				p.Terms = append(p.Terms, randTerm(rng, nbr))
			}
			c := Compile(p, g)
			for adj := 0; adj < ne; adj++ {
				for bound := 0; bound < ne; bound += 1 + rng.Intn(4) {
					for _, hasBound := range []bool{true, false} {
						ctx := EdgeCtx{G: g, Adj: storage.EdgeID(adj), Bound: storage.EdgeID(bound), HasBound: hasBound}
						want, wantPanic := evalOrPanic(func() bool { return refEval(p, ctx) })
						got, gotPanic := evalOrPanic(func() bool { return c.Eval(ctx.Adj, ctx.Bound, hasBound) })
						if got != want || gotPanic != wantPanic {
							t.Fatalf("seed %d: %v on adj=%d bound=%d hasBound=%v: compiled (%v, panic=%v), interpreter (%v, panic=%v)",
								seed, p, adj, bound, hasBound, got, gotPanic, want, wantPanic)
						}
					}
				}
			}
		}
		for _, term := range slotPairs() {
			checkSlots(t, rng, g, Predicate{Terms: []Term{term}})
		}
		for n := 0; n < preds; n++ {
			var p Predicate
			for k := 1 + rng.Intn(3); k > 0; k-- {
				p.Terms = append(p.Terms, randSlotTerm(rng))
			}
			checkSlots(t, rng, g, p)
		}
	}
}

// TestCompiledBigIntsCompareAsFloat pins the float64 comparison of ints
// beyond 2^53: 2^53 and 2^53+1 are one float64, so they compare equal, as
// storage.Value.Compare has them.
func TestCompiledBigIntsCompareAsFloat(t *testing.T) {
	g := storage.NewGraph()
	g.AddVertex("A")
	for i := 0; i < 2; i++ {
		if _, err := g.AddEdge(0, 0, "L"); err != nil {
			t.Fatal(err)
		}
	}
	for e, v := range []int64{big, big + 1} {
		if err := g.SetEdgeProp(storage.EdgeID(e), "n", storage.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []Op{EQ, NE, LT, LE, GT, GE} {
		p := Predicate{}.And(VarTerm(VarBound, "n", op, VarAdj, "n"))
		ctx := EdgeCtx{G: g, Adj: 1, Bound: 0, HasBound: true}
		want := refEval(p, ctx)
		if got := Compile(p, g).Eval(1, 0, true); got != want {
			t.Errorf("%v: compiled %v, interpreter %v", op, got, want)
		}
		if want != (op == EQ || op == LE || op == GE) {
			t.Errorf("%v: 2^53 vs 2^53+1 should compare equal, got %v", op, want)
		}
	}
}
