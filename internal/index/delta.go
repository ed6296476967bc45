package index

import (
	"math/bits"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Delta is an immutable overlay of committed-but-unmerged writes over a
// frozen base Store: per-owner, per-direction insert runs (kept in full
// index order, mirroring the primary's offset-list layout) plus per-owner
// delete records and a global pending-delete set. A snapshot pairs one
// Delta with one frozen base; readers splice the overlay into primary list
// fetches (Splice) without any locking, and a background merger eventually
// folds the overlay back into block-packed CSR form.
//
// Runs and delete records live in ownerTables and the pending-delete set in
// an edgeSet: persistent arrays of fixed-size chunks indexed by owner or
// edge ID. A published Delta is never mutated. Commits derive a successor
// with DeltaBuilder, which copies each table's top-level chunk slice once,
// each chunk the first time it writes into it, and each owner slice the
// first time it writes to that owner, so a commit costs O(V/64 + chunks
// touched) however many ops are pending; the append-only op log shares
// backing with the parent (a serialized writer only appends past the
// parent's LogLen).
type Delta struct {
	runs    [2]ownerTable[bufEntry]
	dels    [2]ownerTable[delRec]
	deleted edgeSet

	// log records every op since the last merge, in commit order, so a
	// merger that folded an older snapshot can rebase the suffix committed
	// during its build onto the new base (RebaseDelta).
	log    []deltaOp
	logLen int

	inserts, deletes int
}

const (
	ownerChunkShift = 6
	ownerChunkSize  = 1 << ownerChunkShift // owners per ownerTable chunk
	edgeChunkShift  = 12
	edgeChunkWords  = 1 << edgeChunkShift / 64 // words per edgeSet chunk (4,096 edges)
)

// ownerTable maps a dense owner vertex ID to that owner's pending slice,
// ownerChunkSize owners per chunk; a nil chunk holds only empty slices.
type ownerTable[T any] []*[ownerChunkSize][]T

func (t ownerTable[T]) get(owner uint32) []T {
	if c := int(owner >> ownerChunkShift); c < len(t) && t[c] != nil {
		return t[c][owner%ownerChunkSize]
	}
	return nil
}

// each calls fn for every owner with a non-empty slice, ascending.
func (t ownerTable[T]) each(fn func(owner uint32, s []T)) {
	for c, ch := range t {
		if ch == nil {
			continue
		}
		for i, s := range ch {
			if len(s) > 0 {
				fn(uint32(c<<ownerChunkShift+i), s)
			}
		}
	}
}

// edgeSet is a bitset over edge IDs in chunks of 64 words; a nil chunk
// holds no edge.
type edgeSet []*[edgeChunkWords]uint64

func (s edgeSet) has(e storage.EdgeID) bool {
	if c := int(e >> edgeChunkShift); c < len(s) && s[c] != nil {
		return s[c][e%(1<<edgeChunkShift)/64]&(1<<(e%64)) != 0
	}
	return false
}

// each calls fn for every edge in the set, ascending.
func (s edgeSet) each(fn func(e storage.EdgeID)) {
	for c, ch := range s {
		if ch == nil {
			continue
		}
		for w, word := range ch {
			for ; word != 0; word &= word - 1 {
				fn(storage.EdgeID(c<<edgeChunkShift + w*64 + bits.TrailingZeros64(word)))
			}
		}
	}
}

// cow records what one builder has copied out of one chunked array: the
// top-level slice, and per copied chunk a mask of the owner slots whose
// slices it copied (unused for edgeSet chunks).
type cow struct {
	top    bool
	chunks map[int]uint64
}

// writableChunk returns chunk c of *top for writing, copying the top-level
// slice (grown to cover c) on the builder's first write and the chunk on
// its first write into it, so no chunk or slice a published Delta can
// reach is ever written.
func writableChunk[C any](top *[]*C, c int, w *cow) *C {
	if !w.top {
		*top = append(make([]*C, 0, max(len(*top), c+1)), *top...)
		w.top = true
		w.chunks = map[int]uint64{}
	}
	for len(*top) <= c {
		*top = append(*top, nil)
	}
	if _, ok := w.chunks[c]; !ok {
		nc := new(C)
		if old := (*top)[c]; old != nil {
			*nc = *old
		}
		(*top)[c] = nc
		w.chunks[c] = 0
	}
	return (*top)[c]
}

// writableSlot returns owner's slice in t for writing, copied on the
// builder's first write to that owner.
func writableSlot[T any](t *ownerTable[T], owner uint32, w *cow) *[]T {
	c := int(owner >> ownerChunkShift)
	s := &writableChunk((*[]*[ownerChunkSize][]T)(t), c, w)[owner%ownerChunkSize]
	if bit := uint64(1) << (owner % ownerChunkSize); w.chunks[c]&bit == 0 {
		*s = append(make([]T, 0, len(*s)+4), *s...)
		w.chunks[c] |= bit
	}
	return s
}

// deltaOp is one logged write (endpoints and values are read back from the
// snapshot graph at rebase time).
type deltaOp struct {
	del bool
	e   storage.EdgeID
}

// bufEntry is one inserted edge in an owner's delta run, carrying what
// index order compares: bucket codes, sort ordinals, neighbour, edge.
type bufEntry struct {
	nbr   uint32
	eid   uint64
	sort  [2]uint64
	codes []uint16
}

// delRec marks one base edge deleted from one owner's list, carrying the
// edge's partition codes so prefix-restricted length math stays exact.
type delRec struct {
	eid   uint64
	codes []uint16
}

// NewDelta returns an empty overlay.
func NewDelta() *Delta { return &Delta{} }

// Empty reports whether the overlay carries no pending writes.
func (d *Delta) Empty() bool { return d == nil || (d.inserts == 0 && d.deletes == 0) }

// Pending returns the number of buffered ops (inserts + deletes), the
// quantity merge thresholds are expressed in.
func (d *Delta) Pending() int {
	if d == nil {
		return 0
	}
	return d.inserts + d.deletes
}

// Deletes returns the number of pending edge deletions.
func (d *Delta) Deletes() int {
	if d == nil {
		return 0
	}
	return d.deletes
}

// LogLen returns the length of the op log (the rebase cursor for mergers).
func (d *Delta) LogLen() int {
	if d == nil {
		return 0
	}
	return d.logLen
}

// EdgeDeleted reports whether e has a pending (unmerged) delete. Scans must
// consult this in addition to the graph's own tombstones.
func (d *Delta) EdgeDeleted(e storage.EdgeID) bool {
	if d == nil {
		return false
	}
	return d.deleted.has(e)
}

// DeletedEdges returns the pending delete set in ascending ID order (for
// mergers folding it into a fresh base's tombstones).
func (d *Delta) DeletedEdges() []storage.EdgeID {
	if d == nil || d.deletes == 0 {
		return nil
	}
	out := make([]storage.EdgeID, 0, d.deletes)
	d.deleted.each(func(e storage.EdgeID) { out = append(out, e) })
	return out
}

// Touches reports whether fetching (dir, owner) requires splicing: the
// owner has pending inserts or deletes in that direction.
func (d *Delta) Touches(dir Direction, owner uint32) bool {
	if d == nil {
		return false
	}
	return len(d.runs[dir].get(owner)) > 0 || len(d.dels[dir].get(owner)) > 0
}

// SpliceLen returns the length Splice would produce for (dir, owner)
// restricted to the codes prefix, given the base list's length — the
// count-pushdown fold path needs lengths without materializing entries.
func (d *Delta) SpliceLen(dir Direction, owner uint32, codes []uint16, baseLen int) int {
	n := baseLen
	for _, dr := range d.dels[dir].get(owner) {
		if prefixMatches(dr.codes, codes) {
			n--
		}
	}
	run := d.runs[dir].get(owner)
	for i := range run {
		if prefixMatches(run[i].codes, codes) {
			n++
		}
	}
	return n
}

// nextRunMatch advances i to the next run entry whose codes start with the
// prefix (len(run) when none remains).
func nextRunMatch(run []bufEntry, i int, prefix []uint16) int {
	for i < len(run) && !prefixMatches(run[i].codes, prefix) {
		i++
	}
	return i
}

// delContains reports whether the (eid-sorted) delete records cover eid.
func delContains(dels []delRec, eid uint64) bool {
	lo, hi := 0, len(dels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dels[mid].eid < eid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(dels) && dels[lo].eid == eid
}

// SpliceInto merges the overlay for (dir, owner), restricted to the codes
// prefix, into the base list l fetched from the frozen primary p: pending
// inserts are interleaved in full index order (bucket codes, sort-key
// ordinals, neighbour ID, edge ID — the order the base CSR itself is built
// in) and pending deletes are dropped. The merged entries are written into
// the caller's reusable nbrs/eids buffers, which are grown only when
// capacity is insufficient, so a warm caller splices with zero heap
// allocations; l is then repointed at them in place, and the buffers are
// returned for the caller to keep.
func (d *Delta) SpliceInto(p *Primary, dir Direction, owner uint32, codes []uint16, l *AdjList, nbrs []uint32, eids []uint64) ([]uint32, []uint64) {
	run := d.runs[dir].get(owner)
	dels := d.dels[dir].get(owner)
	n := l.NumEntries()
	if cap(nbrs) < n+len(run) {
		nbrs = make([]uint32, 0, n+len(run))
	}
	if cap(eids) < n+len(run) {
		eids = make([]uint64, 0, n+len(run))
	}
	nbrs, eids = nbrs[:0], eids[:0]
	ri := nextRunMatch(run, 0, codes)
	var cb [8]uint16
	for i := 0; i < n; i++ {
		nb, e := l.Get(i)
		if len(dels) > 0 && delContains(dels, uint64(e)) {
			continue
		}
		if ri < len(run) {
			cur := bufEntry{
				nbr:   uint32(nb),
				eid:   uint64(e),
				sort:  sortOrdinals(p.g, p.cfg.Sorts, e, nb),
				codes: codesFor(p.levels, e, nb, cb[:0]),
			}
			for ri < len(run) && bufLess(run[ri], cur) {
				nbrs = append(nbrs, run[ri].nbr)
				eids = append(eids, run[ri].eid)
				ri = nextRunMatch(run, ri+1, codes)
			}
		}
		nbrs = append(nbrs, uint32(nb))
		eids = append(eids, uint64(e))
	}
	for ri < len(run) {
		nbrs = append(nbrs, run[ri].nbr)
		eids = append(eids, run[ri].eid)
		ri = nextRunMatch(run, ri+1, codes)
	}
	l.setDirect(nbrs, eids)
	return nbrs, eids
}

// Splice is SpliceInto over a base list passed by value, for cold callers.
func (d *Delta) Splice(p *Primary, dir Direction, owner uint32, codes []uint16, base AdjList, nbrs []uint32, eids []uint64) ([]uint32, []uint64) {
	return d.SpliceInto(p, dir, owner, codes, &base, nbrs, eids)
}

// DeltaBuilder derives a successor Delta from a published parent during one
// commit. It starts from the parent's chunk slices and copies on first
// write (see Delta), so repeated writes to one owner mutate the builder's
// own copy in place and the common insert-only commit never touches the
// delete structures; the op log shares backing with the parent under the
// single-serialized-writer discipline. Builders are not safe for
// concurrent use.
type DeltaBuilder struct {
	p *Primary       // frozen base (partition levels, sort keys, edge bound)
	g *storage.Graph // the batch's graph clone (values of fresh entities)
	d *Delta

	// What this builder has copied out of the parent's runs, dels and
	// deleted arrays.
	runsCow, delsCow [2]cow
	deletedCow       cow

	impossible bool
}

// NewDeltaBuilder starts a commit's overlay from parent (nil for empty)
// against the frozen base primary p and the batch's graph clone g.
func NewDeltaBuilder(parent *Delta, p *Primary, g *storage.Graph) *DeltaBuilder {
	if parent == nil {
		parent = NewDelta()
	}
	nd := *parent
	nd.log = parent.log[:parent.logLen]
	return &DeltaBuilder{p: p, g: g, d: &nd}
}

// Impossible reports whether some op could not be expressed as an overlay
// entry (an edge carried a categorical value unknown to the base's
// partition levels). The commit must then fold everything into a fresh
// base instead of publishing this builder's delta.
func (b *DeltaBuilder) Impossible() bool { return b.impossible }

// Insert buffers a freshly added edge (already present in the builder's
// graph clone) in both directions.
func (b *DeltaBuilder) Insert(e storage.EdgeID) {
	src, dst := b.g.Src(e), b.g.Dst(e)
	fwCodes, ok1 := codesForInsert(b.g, b.p.levels, e, dst)
	bwCodes, ok2 := codesForInsert(b.g, b.p.levels, e, src)
	fwSort, ok3 := b.baseSortOrdinals(e, dst)
	bwSort, ok4 := b.baseSortOrdinals(e, src)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		b.impossible = true
		return
	}
	b.insertRun(FW, uint32(src), bufEntry{
		nbr: uint32(dst), eid: uint64(e), sort: fwSort, codes: fwCodes,
	})
	b.insertRun(BW, uint32(dst), bufEntry{
		nbr: uint32(src), eid: uint64(e), sort: bwSort, codes: bwCodes,
	})
	b.d.inserts++
	b.d.log = append(b.d.log, deltaOp{e: e})
}

// baseSortOrdinals computes the sort-key ordinals of a delta entry in the
// FROZEN BASE's ordinal space — the space base entries are compared in
// during Splice and the space the base CSR was built in. Reading the batch
// value and mapping it through OrdinalOfValue(base graph) matters for
// string sort keys: the batch clone's dictionary may have interned new
// strings, which shifts every lexicographic rank in the clone's space. ok
// is false when a value has no base ordinal (e.g. a string the base has
// never seen), in which case the op cannot be buffered and the commit must
// fold to a fresh base.
func (b *DeltaBuilder) baseSortOrdinals(e storage.EdgeID, nbr storage.VertexID) ([2]uint64, bool) {
	var out [2]uint64
	for i, k := range b.p.cfg.Sorts {
		ord, ok := b.baseSortOrdinal(k, e, nbr)
		if !ok {
			return out, false
		}
		out[i] = ord
	}
	return out, true
}

func (b *DeltaBuilder) baseSortOrdinal(k SortKey, e storage.EdgeID, nbr storage.VertexID) (uint64, bool) {
	switch {
	case k.Prop == pred.PropID:
		if k.Var == pred.VarNbr {
			return uint64(nbr), true
		}
		return uint64(e), true
	case k.Prop == pred.PropLabel:
		// Label ids are dense append-only codes ordered by id (not rank),
		// so clone-interned labels extend the space without shifting it.
		if k.Var == pred.VarNbr {
			return uint64(b.g.VertexLabel(nbr)), true
		}
		return uint64(b.g.EdgeLabel(e)), true
	}
	var v storage.Value
	if k.Var == pred.VarNbr {
		v = b.g.VertexProp(nbr, k.Prop)
	} else {
		v = b.g.EdgeProp(e, k.Prop)
	}
	if v.IsNull() {
		return ^uint64(0), true // NULLs sort last in every space
	}
	return OrdinalOfValue(b.p.g, k, v)
}

func (b *DeltaBuilder) insertRun(dir Direction, owner uint32, be bufEntry) {
	s := writableSlot(&b.d.runs[dir], owner, &b.runsCow[dir])
	run := *s
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bufLess(run[mid], be) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	run = append(run, bufEntry{})
	copy(run[lo+1:], run[lo:])
	run[lo] = be
	*s = run
}

// Delete buffers an edge deletion. Deleting an edge that itself postdates
// the base (it lives in a pending insert run) removes the run entry;
// deleting a base edge records a per-owner delete. Already-deleted edges
// are a no-op, matching Graph.DeleteEdge.
func (b *DeltaBuilder) Delete(e storage.EdgeID) {
	if b.g.EdgeDeleted(e) {
		return
	}
	if b.d.deleted.has(e) {
		return
	}
	src, dst := b.g.Src(e), b.g.Dst(e)
	if e >= b.p.EdgeBound() {
		// The edge was inserted after the base was built: unbuffer it.
		b.removeRun(FW, uint32(src), uint64(e))
		b.removeRun(BW, uint32(dst), uint64(e))
	} else {
		fwCodes, _ := codesForInsert(b.g, b.p.levels, e, dst)
		bwCodes, _ := codesForInsert(b.g, b.p.levels, e, src)
		b.insertDel(FW, uint32(src), delRec{eid: uint64(e), codes: fwCodes})
		b.insertDel(BW, uint32(dst), delRec{eid: uint64(e), codes: bwCodes})
	}
	ch := writableChunk((*[]*[edgeChunkWords]uint64)(&b.d.deleted), int(e>>edgeChunkShift), &b.deletedCow)
	ch[e%(1<<edgeChunkShift)/64] |= 1 << (e % 64)
	b.d.deletes++
	b.d.log = append(b.d.log, deltaOp{del: true, e: e})
}

func (b *DeltaBuilder) removeRun(dir Direction, owner uint32, eid uint64) {
	idx := -1
	for i, be := range b.d.runs[dir].get(owner) {
		if be.eid == eid {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	s := writableSlot(&b.d.runs[dir], owner, &b.runsCow[dir])
	*s = append((*s)[:idx], (*s)[idx+1:]...)
}

func (b *DeltaBuilder) insertDel(dir Direction, owner uint32, dr delRec) {
	s := writableSlot(&b.d.dels[dir], owner, &b.delsCow[dir])
	dels := *s
	lo, hi := 0, len(dels)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dels[mid].eid < dr.eid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	dels = append(dels, delRec{})
	copy(dels[lo+1:], dels[lo:])
	dels[lo] = dr
	*s = dels
}

// Freeze seals and returns the built Delta. The builder must not be used
// afterwards.
func (b *DeltaBuilder) Freeze() *Delta {
	b.d.logLen = len(b.d.log)
	return b.d
}

// RebaseDelta rebuilds the overlay for a freshly merged base by replaying
// the ops parent committed after position `from` of its log (the merged
// snapshot's LogLen) against the new primary p and graph g. ok is false
// when some replayed edge carries a categorical value unknown even to the
// new base's levels — the caller must then rebuild from the graph instead.
func RebaseDelta(parent *Delta, from int, p *Primary, g *storage.Graph) (*Delta, bool) {
	b := NewDeltaBuilder(nil, p, g)
	for _, op := range parent.log[from:parent.logLen] {
		if op.del {
			b.Delete(op.e)
		} else {
			b.Insert(op.e)
		}
	}
	if b.Impossible() {
		return nil, false
	}
	return b.Freeze(), true
}

func bufLess(a, b bufEntry) bool {
	for i := 0; i < len(a.codes) && i < len(b.codes); i++ {
		if a.codes[i] != b.codes[i] {
			return a.codes[i] < b.codes[i]
		}
	}
	if a.sort != b.sort {
		return a.sort[0] < b.sort[0] || (a.sort[0] == b.sort[0] && a.sort[1] < b.sort[1])
	}
	if a.nbr != b.nbr {
		return a.nbr < b.nbr
	}
	return a.eid < b.eid
}

func prefixMatches(entryCodes, prefix []uint16) bool {
	for i, c := range prefix {
		if entryCodes[i] != c {
			return false
		}
	}
	return true
}
