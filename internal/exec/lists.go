package exec

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// ListKind selects which index a ListRef reads.
type ListKind uint8

const (
	// ListPrimary reads a primary A+ index list.
	ListPrimary ListKind = iota
	// ListVP reads a secondary vertex-partitioned index list.
	ListVP
	// ListEP reads a secondary edge-partitioned index list.
	ListEP
)

// Segment restricts a fetched list to the entries whose first sort-key
// value satisfies every one of Bounds, located by binary search — the
// paper's "binary searches inside lists" access path (e.g. a
// neighbour-label segment under Ds, or a time-prefix under VPt).
//
// DynEq, when set, narrows the segment at runtime to entries whose sort-key
// value equals a bound variable's property (e.g. a2.city = a1.city with a1
// already matched); Bounds is empty in that case. DynEq is a variable
// operand, never a constant: constants become Bounds.
//
// Like Operand, a Segment names its key, bound values and operand; each
// pipeline binds them against its runtime's graph into the list position's
// slot (boundSegment), so a probe reads columns by position. Bounds keep
// their values, not ordinals: a cached plan serves every snapshot of its
// store, and a snapshot that interned a new string ranks the key's strings
// differently from the graph the plan was built on.
type Segment struct {
	Key    index.SortKey
	Bounds []Bound
	DynEq  *Operand
}

// Bound is one constant term on a segment's sort key: key Op Value, with Op
// one of EQ, LT, LE, GT, GE.
type Bound struct {
	Op    pred.Op
	Value storage.Value
}

// ListRef describes one adjacency list access in a plan: which index, which
// owner (a bound vertex slot for vertex-partitioned lists or a bound edge
// slot for edge-partitioned lists), the resolved partition-bucket prefix,
// an optional sorted segment, and the edge slot the matched edge binds to.
//
// A ListRef is immutable plan state shared by every worker: its methods take
// pointer receivers so no fetch copies it, and a fetch writes into the
// calling operator's scratch slot (opScratch.slots), never into the ListRef.
type ListRef struct {
	Kind ListKind
	Dir  index.Direction          // list direction (primary and VP)
	VP   *index.VertexPartitioned // when Kind == ListVP
	EP   *index.EdgePartitioned   // when Kind == ListEP

	OwnerVertexSlot int // owner binding slot (vertex-partitioned kinds)
	OwnerEdgeSlot   int // owner binding slot (edge-partitioned kind)

	Codes    []uint16 // resolved partition codes (prefix)
	Seg      *Segment
	EdgeSlot int // where the matched edge is bound

	// Expand lists the innermost-bucket code completions of Codes. Sorted
	// access (segments and intersections) is only meaningful inside one
	// innermost bucket; when Codes is a strict prefix of the partition
	// levels, the optimizer expands the remaining levels here and the
	// operators process each bucket combination separately.
	Expand [][]uint16
}

// ExpandChoices enumerates every completion of prefix across the remaining
// partition-level cardinalities (including the null buckets).
func ExpandChoices(prefix []uint16, cards []int) [][]uint16 {
	rest := cards[len(prefix):]
	out := [][]uint16{append([]uint16(nil), prefix...)}
	for _, card := range rest {
		var next [][]uint16
		for _, p := range out {
			for c := 0; c < card; c++ {
				next = append(next, append(append([]uint16(nil), p...), uint16(c)))
			}
		}
		out = next
	}
	return out
}

// fetchBase points dst at the list resolved from the indexes under the
// current binding, without segment restriction, delta splicing, or i-cost
// accounting.
func (r *ListRef) fetchBase(rt *Runtime, b *Binding, codes []uint16, dst *index.AdjList) {
	switch r.Kind {
	case ListPrimary:
		rt.Store.Primary().ListInto(r.Dir, b.V[r.OwnerVertexSlot], codes, dst)
	case ListVP:
		r.VP.ListInto(r.Dir, b.V[r.OwnerVertexSlot], codes, dst)
	case ListEP:
		r.EP.ListInto(b.E[r.OwnerEdgeSlot], codes, dst)
	}
}

// fetchSpliced fetches the list under the current binding into list
// position li's slot and returns a pointer to it, without segment
// restriction or i-cost accounting: the descriptor never crosses a call by
// value. Primary fetches splice the pinned snapshot's delta overlay into
// the slot's reusable splice buffer and repoint the slot at it, so
// steady-state fetches stay allocation-free. Fetching the same (binding,
// codes) twice — e.g. a thief re-materializing a stolen sub-morsel's list —
// yields identical entries. Secondary-index fetches never need splicing:
// the planner hides secondary indexes while a snapshot carries a non-empty
// delta.
func (r *ListRef) fetchSpliced(rt *Runtime, sc *opScratch, li int, b *Binding, codes []uint16) *index.AdjList {
	slot := &sc.slots[li]
	r.fetchBase(rt, b, codes, &slot.adj)
	if rt.Delta != nil && r.Kind == ListPrimary {
		owner := uint32(b.V[r.OwnerVertexSlot])
		if rt.Delta.Touches(r.Dir, owner) {
			buf := &slot.splice
			buf.nbrs, buf.eids = rt.Delta.SpliceInto(rt.Store.Primary(), r.Dir, owner, codes, &slot.adj, buf.nbrs, buf.eids)
		}
	}
	return &slot.adj
}

// fetchWith is fetchSpliced plus the sorted-segment restriction (narrowing
// the slot in place) and the i-cost charge for the resulting length — the
// normal operator fetch path. The segment is the one bound into the slot
// when the pipeline was built.
func (r *ListRef) fetchWith(rt *Runtime, sc *opScratch, li int, b *Binding, codes []uint16) *index.AdjList {
	l := r.fetchSpliced(rt, sc, li, b, codes)
	if r.Seg != nil {
		seg := &sc.slots[li].seg
		if seg.src != r.Seg {
			panic("exec: list segment fetched without being bound")
		}
		seg.narrow(b, l)
	}
	rt.ICost += int64(l.NumEntries())
	return l
}

// FetchLen returns the length fetching this list would produce — including
// the delta overlay, but without materializing the merged entries — and
// charges that length to the runtime's i-cost exactly as a fetch would.
// This is the count-pushdown fold path, which multiplies lengths instead of
// enumerating; fold refs never carry segments.
func (r *ListRef) FetchLen(rt *Runtime, sc *opScratch, b *Binding) int {
	sc.ensureLists(1)
	l := &sc.slots[0].adj
	r.fetchBase(rt, b, r.Codes, l)
	n := l.NumEntries()
	if rt.Delta != nil && r.Kind == ListPrimary {
		owner := uint32(b.V[r.OwnerVertexSlot])
		if rt.Delta.Touches(r.Dir, owner) {
			n = rt.Delta.SpliceLen(r.Dir, owner, r.Codes, n)
		}
	}
	rt.ICost += int64(n)
	return n
}

// boundSegment is a Segment bound against one pipeline's graph: the sort
// key reads ordinals by position, the bounds are ordinals [lo, hi) in the
// graph's ordinal space, and a dynamic equality reads its operand by
// position. It lives in the list position's slot.
type boundSegment struct {
	src          *Segment
	key          index.BoundSortKey
	lo, hi       uint64
	hasLo, hasHi bool
	// dyn is a DynEq operand bound against the graph. sameKey marks one
	// that reads the sort key's own vertex property: its ordinal is the
	// key's ordinal of the bound vertex dynSlot, with no Value in between.
	dyn     pred.Operand
	sameKey bool
	dynSlot int
}

// bind binds seg (nil for an unsegmented list) against g.
func (s *boundSegment) bind(g *storage.Graph, seg *Segment) {
	*s = boundSegment{src: seg}
	if seg == nil {
		return
	}
	s.key = index.BindSortKey(g, seg.Key)
	for _, bd := range seg.Bounds {
		// The planner keeps only bounds the store's graph can map, and a
		// snapshot's dictionaries and label catalog only grow from it; a
		// value the key cannot hold matches nothing.
		ord, ok := s.key.OrdinalOf(bd.Value)
		if !ok {
			s.tightenLo(1)
			s.tightenHi(0)
			continue
		}
		switch bd.Op {
		case pred.EQ:
			s.tightenLo(ord)
			s.tightenHi(ord + 1)
		case pred.LT:
			s.tightenHi(ord)
		case pred.LE:
			s.tightenHi(ord + 1)
		case pred.GT:
			s.tightenLo(ord + 1)
		case pred.GE:
			s.tightenLo(ord)
		}
	}
	d := seg.DynEq
	switch {
	case d == nil:
	case !d.IsEdge && seg.Key.Var == pred.VarNbr && d.Prop == seg.Key.Prop:
		s.sameKey, s.dynSlot = true, d.Slot
	default:
		s.dyn = pred.BindOperand(g, d.ref())
	}
}

func (s *boundSegment) tightenLo(ord uint64) {
	if !s.hasLo || ord > s.lo {
		s.lo, s.hasLo = ord, true
	}
}

func (s *boundSegment) tightenHi(ord uint64) {
	if !s.hasHi || ord < s.hi {
		s.hi, s.hasHi = ord, true
	}
}

// narrow narrows l in place to the [lo, hi) ordinal range of the first sort
// key, located by binary search inside a list sorted on it.
func (s *boundSegment) narrow(b *Binding, l *index.AdjList) {
	n := l.NumEntries()
	segLo, segHi := s.lo, s.hi
	hasLo, hasHi := s.hasLo, s.hasHi
	if s.src.DynEq != nil {
		// NULL matches nothing, nor does a value the key cannot hold. The
		// NULL ordinal ^0 is refused too, and with it a non-NULL value
		// whose ordinal is ^0 (the largest int): [ord, ord+1) cannot hold
		// it, as ord+1 wraps.
		var ord uint64
		ok := true
		if s.sameKey {
			ord = s.key.Ordinal(0, b.V[s.dynSlot])
		} else if v := s.dyn.ValueIn(b.V, b.E); v.IsNull() {
			ok = false
		} else {
			ord, ok = s.key.OrdinalOf(v)
		}
		if !ok || ord == ^uint64(0) {
			l.Narrow(0, 0)
			return
		}
		segLo, segHi = ord, ord+1
		hasLo, hasHi = true, true
	}
	lo := 0
	if hasLo {
		lo = s.search(l, n, segLo)
	}
	hi := n
	if hasHi {
		hi = s.search(l, n, segHi)
	}
	if lo > hi {
		lo = hi
	}
	l.Narrow(lo, hi)
}

// search returns the first position in [0, n) whose sort-key ordinal is
// >= target (n when none is). It is hand-rolled (no sort.Search) so the
// per-fetch path allocates no closures.
func (s *boundSegment) search(l *index.AdjList, n int, target uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		nbr, e := l.Get(mid)
		if s.key.Ordinal(e, nbr) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// String implements fmt.Stringer (used by plan explanations).
func (r *ListRef) String() string {
	var base string
	switch r.Kind {
	case ListPrimary:
		base = fmt.Sprintf("primary.%v(v%d)", r.Dir, r.OwnerVertexSlot)
	case ListVP:
		base = fmt.Sprintf("%s.%v(v%d)", r.VP.Name(), r.Dir, r.OwnerVertexSlot)
	case ListEP:
		base = fmt.Sprintf("%s(e%d)", r.EP.Name(), r.OwnerEdgeSlot)
	}
	if len(r.Codes) > 0 {
		base += fmt.Sprintf("/buckets%v", r.Codes)
	}
	if r.Seg != nil {
		base += fmt.Sprintf("/seg(%s)", r.Seg.Key)
	}
	return base
}
