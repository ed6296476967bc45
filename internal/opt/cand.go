package opt

import (
	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/storage"
)

// cand is one way to read the adjacency list for a query-edge extension.
type cand struct {
	ref  exec.ListRef
	size float64
	// sig is the effective remaining sort signature after any equality
	// segment: "vnbr.ID" for neighbour-sorted lists, "vnbr.<p>" etc.
	sig string
	// guaranteed are query-predicate indices this access path already
	// enforces (via the view predicate, partition codes or segments).
	guaranteed []int
	// labelFilter holds residual label checks the access path does not
	// enforce (the edge's label, and possibly the target vertex's).
	labelFilter []exec.CompiledTerm
	// empty marks a provably empty list (a partition value that occurs
	// nowhere in the graph).
	empty bool
}

// qterm is a query predicate translated into the extension-local variable
// space (VarAdj / VarSrc / VarDst / VarBound).
type qterm struct {
	term  pred.Term
	qpred int // index into q.Preds, or -1 for label constraints
}

// idxDesc abstracts over the three index kinds for candidate construction.
type idxDesc struct {
	kind     exec.ListKind
	dir      index.Direction // list direction (resolves vnbr)
	vp       *index.VertexPartitioned
	ep       *index.EdgePartitioned
	resolved pred.Predicate // index predicate in resolved space
	parts    []index.PartitionKey
	sorts    []index.SortKey
	cards    []int
	baseSize float64
	resolve  func(vals []storage.Value) ([]uint16, bool)

	ownerVSlot int
	ownerESlot int
}

// nbrVar returns the resolved variable of the neighbour for this list.
func (d idxDesc) nbrVar() pred.Var {
	if d.dir == index.FW {
		return pred.VarDst
	}
	return pred.VarSrc
}

// ownerVar returns the resolved variable of the owner-side endpoint.
func (d idxDesc) ownerVar() pred.Var {
	if d.dir == index.FW {
		return pred.VarSrc
	}
	return pred.VarDst
}

// localTerms translates the query predicates relevant to extending query
// edge qe from bound vertex u to target w into resolved-space terms.
// boundQE >= 0 adds the bound edge's terms for edge-partitioned candidates.
func (pl *planner) localTerms(qe, w, u int, d idxDesc, boundQE int) []qterm {
	q := pl.q
	var out []qterm
	e := q.Edges[qe]
	if e.Label != "" {
		out = append(out, qterm{pred.ConstTerm(pred.VarAdj, pred.PropLabel, pred.EQ, storage.Str(e.Label)), -1})
	}
	if q.Vertices[w].Label != "" {
		out = append(out, qterm{pred.ConstTerm(d.nbrVar(), pred.PropLabel, pred.EQ, storage.Str(q.Vertices[w].Label)), -1})
	}
	for pi, p := range q.Preds {
		if !p.IsConst() {
			if boundQE >= 0 {
				// Inter-edge predicates between the bound edge and qe.
				if t, ok := interEdgeTerm(p, q, boundQE, qe); ok {
					out = append(out, qterm{t, pi})
				}
			}
			continue
		}
		prop := normalizeProp(p.LeftProp)
		switch p.LeftVar {
		case e.Name:
			out = append(out, qterm{pred.ConstTerm(pred.VarAdj, prop, p.Op, p.Const), pi})
		case q.Vertices[w].Name:
			out = append(out, qterm{pred.ConstTerm(d.nbrVar(), prop, p.Op, p.Const), pi})
		case q.Vertices[u].Name:
			out = append(out, qterm{pred.ConstTerm(d.ownerVar(), prop, p.Op, p.Const), pi})
		default:
			if boundQE >= 0 && p.LeftVar == q.Edges[boundQE].Name {
				out = append(out, qterm{pred.ConstTerm(pred.VarBound, prop, p.Op, p.Const), pi})
			}
		}
	}
	return out
}

// interEdgeTerm translates a variable-variable query predicate between the
// bound query edge and the adjacent query edge into (VarBound, VarAdj)
// space.
func interEdgeTerm(p query.Pred, q *query.Graph, boundQE, qe int) (pred.Term, bool) {
	bName, aName := q.Edges[boundQE].Name, q.Edges[qe].Name
	lp, rp := normalizeProp(p.LeftProp), normalizeProp(p.RightProp)
	switch {
	case p.LeftVar == bName && p.RightVar == aName:
		return pred.VarTermShift(pred.VarBound, lp, p.Op, pred.VarAdj, rp, p.RightShift), true
	case p.LeftVar == aName && p.RightVar == bName:
		return pred.VarTermShift(pred.VarAdj, lp, p.Op, pred.VarBound, rp, p.RightShift), true
	}
	return pred.Term{}, false
}

func normalizeProp(p string) string {
	if p == "eID" || p == "vID" {
		return pred.PropID
	}
	return p
}

// buildCand assembles a candidate for one index access path, or reports it
// unusable (the index's predicate is not subsumed by the query's).
func (pl *planner) buildCand(st *state, d idxDesc, qts []qterm, qe, w int) (cand, bool) {
	var qctx pred.Predicate
	for _, qt := range qts {
		qctx.Terms = append(qctx.Terms, qt.term)
	}
	if !pred.Subsumes(d.resolved, qctx) {
		return cand{}, false
	}
	c := cand{size: d.baseSize, sig: "vnbr.ID"}
	guaranteedSet := make(map[int]bool)
	edgeLabelOK := pl.q.Edges[qe].Label == ""
	vtxLabelOK := pl.q.Vertices[w].Label == ""

	markGuaranteed := func(qt qterm) {
		if qt.qpred >= 0 {
			guaranteedSet[qt.qpred] = true
		} else if qt.term.Left.Var == pred.VarAdj && qt.term.Left.Prop == pred.PropLabel {
			edgeLabelOK = true
		} else if qt.term.Left.Prop == pred.PropLabel {
			vtxLabelOK = true
		}
	}

	// Terms already enforced by the view predicate.
	for _, qt := range qts {
		if d.resolved.Implies(qt.term) {
			markGuaranteed(qt)
		}
	}

	// Consume partition levels with equality terms.
	var vals []storage.Value
	for _, key := range d.parts {
		keyVar := pred.VarAdj
		if key.Var == pred.VarNbr {
			keyVar = d.nbrVar()
		}
		found := false
		for _, qt := range qts {
			t := qt.term
			if t.Op == pred.EQ && t.IsConst() && t.Left.Var == keyVar && t.Left.Prop == key.Prop {
				vals = append(vals, t.Const)
				markGuaranteed(qt)
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	codes, ok := d.resolve(vals)
	if !ok {
		c.empty = true
		return c, true
	}
	c.ref = exec.ListRef{
		Kind: d.kind, Dir: d.dir, VP: d.vp, EP: d.ep,
		OwnerVertexSlot: d.ownerVSlot, OwnerEdgeSlot: d.ownerESlot,
		Codes: codes, EdgeSlot: qe,
	}
	if len(codes) < len(d.cards) {
		c.ref.Expand = exec.ExpandChoices(codes, d.cards)
	}
	// Refine the size for consumed levels.
	for i := range vals {
		if d.parts[i].Var == pred.VarAdj && d.parts[i].Prop == pred.PropLabel && d.kind == exec.ListPrimary {
			if lid, okL := pl.g.Catalog().LookupEdgeLabel(pl.q.Edges[qe].Label); okL {
				c.size = pl.stats.avgPrimaryList(true, lid)
			}
		} else {
			c.size *= selPartitionLevel
		}
	}

	// Segment on the first sort key.
	segEq := false
	if !pl.mode.DisableSegments && len(d.sorts) > 0 {
		seg, eq, used := pl.buildSegment(st, d, qts, w, guaranteedSet)
		if used != nil {
			c.ref.Seg = seg
			segEq = eq
			if eq {
				c.size *= selSegmentEq
			} else {
				c.size *= selSegmentRange
			}
			for _, qt := range used {
				markGuaranteed(qt)
			}
		}
	}

	// Remaining sort signature.
	switch {
	case len(d.sorts) == 0:
		c.sig = "vnbr.ID"
	case segEq && len(d.sorts) == 1:
		c.sig = "vnbr.ID"
	case segEq:
		c.sig = d.sorts[1].String()
	default:
		c.sig = d.sorts[0].String()
	}

	for pi := range guaranteedSet {
		c.guaranteed = append(c.guaranteed, pi)
	}
	if !edgeLabelOK {
		if lid, okL := pl.g.Catalog().LookupEdgeLabel(pl.q.Edges[qe].Label); okL {
			c.labelFilter = append(c.labelFilter, exec.CompiledTerm{
				Left: exec.EdgeOperand(qe, pred.PropLabel), Op: pred.EQ,
				Right: exec.ConstOperand(storage.Str(pl.g.Catalog().EdgeLabelName(lid))),
			})
		} else {
			c.empty = true // label occurs nowhere
		}
	}
	if !vtxLabelOK {
		if _, okL := pl.g.Catalog().LookupVertexLabel(pl.q.Vertices[w].Label); okL {
			c.labelFilter = append(c.labelFilter, exec.CompiledTerm{
				Left: exec.VertexOperand(w, pred.PropLabel), Op: pred.EQ,
				Right: exec.ConstOperand(storage.Str(pl.q.Vertices[w].Label)),
			})
		} else {
			c.empty = true
		}
	}
	return c, true
}

// buildSegment derives a static or dynamic segment on the first sort key
// from the local terms and the query's variable-variable equalities.
// Returns the segment, whether it pins a single key value, and the terms it
// makes redundant (nil segment when nothing applies).
func (pl *planner) buildSegment(st *state, d idxDesc, qts []qterm, w int, already map[int]bool) (*exec.Segment, bool, []qterm) {
	k0 := d.sorts[0]
	keyVar := pred.VarAdj
	if k0.Var == pred.VarNbr {
		keyVar = d.nbrVar()
	}
	// Dynamic equality: w.p = x.p with x bound (vertex sort keys only).
	if k0.Var == pred.VarNbr {
		for pi, p := range pl.q.Preds {
			if already[pi] || p.IsConst() || p.Op != pred.EQ {
				continue
			}
			wName := pl.q.Vertices[w].Name
			var other string
			var otherProp string
			if p.LeftVar == wName && normalizeProp(p.LeftProp) == k0.Prop {
				other, otherProp = p.RightVar, normalizeProp(p.RightProp)
			} else if p.RightVar == wName && normalizeProp(p.RightProp) == k0.Prop {
				other, otherProp = p.LeftVar, normalizeProp(p.LeftProp)
			} else {
				continue
			}
			oi, isV := pl.q.VertexIndex(other)
			if !isV || !st.boundV(oi) {
				continue
			}
			op := exec.VertexOperand(oi, otherProp)
			seg := &exec.Segment{Key: k0, DynEq: &op}
			return seg, true, []qterm{{pred.Term{}, pi}}
		}
	}
	// Static bounds from constant terms on the sort key.
	var seg exec.Segment
	seg.Key = k0
	var used []qterm
	eq := false
	for _, qt := range qts {
		t := qt.term
		if !t.IsConst() || t.Left.Var != keyVar || t.Left.Prop != k0.Prop {
			continue
		}
		if qt.qpred >= 0 && already[qt.qpred] {
			continue
		}
		// The value stays on the segment; each pipeline maps it to an
		// ordinal in its own snapshot (exec.boundSegment).
		if _, ok := index.OrdinalOfValue(pl.g, k0, t.Const); !ok {
			continue
		}
		switch t.Op {
		case pred.EQ:
			eq = true
		case pred.LT, pred.LE, pred.GT, pred.GE:
		default:
			continue
		}
		seg.Bounds = append(seg.Bounds, exec.Bound{Op: t.Op, Value: t.Const})
		used = append(used, qt)
	}
	if len(used) == 0 {
		return nil, false, nil
	}
	return &seg, eq, used
}
