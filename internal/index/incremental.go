package index

import (
	"sort"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Incremental delta folds (Section IV-C): a successor base store is
// assembled from a frozen base plus its delta overlay by re-packing only
// the owners the delta touched — clean owners' packed blocks and byte
// ranges are copied wholesale through the csr surgery APIs — so merge cost
// is proportional to the delta, not the graph. The result is
// observationally identical to a full rebuild: the primary CSR arrays are
// element-for-element equal (checkpoint encodings stay bit-identical) and
// every secondary answers exactly as a from-scratch build would.
//
// The incremental path declines (returns ok=false) when a partition
// level's categorical cardinality changed under the new graph (the bucket
// space shifted), since equivalence then cannot be guaranteed cheaply; the
// caller falls back to CloneRebuilt. Deltas that were unbufferable in the
// first place never reach a fold — commits with unknown categorical values
// rebuild synchronously.

// DefaultIncrementalDirtyFraction is the dirty-owner fraction above which
// the snapshot merger prefers a full rebuild: patching nearly every owner
// costs more than one flat build (the copied remainder no longer pays for
// the patcher's bookkeeping).
const DefaultIncrementalDirtyFraction = 0.25

// DirtyOwners returns the number of distinct (direction, owner) lists the
// delta touches — the quantity incremental fold cost is proportional to.
func (d *Delta) DirtyOwners() int {
	if d == nil {
		return 0
	}
	n := 0
	for dir := FW; dir <= BW; dir++ {
		d.eachDirtyOwner(dir, func(uint32) { n++ })
	}
	return n
}

// eachDirtyOwner calls fn for every owner with pending inserts or deletes
// in one direction, ascending: a lockstep walk of the run and delete-record
// tables.
func (d *Delta) eachDirtyOwner(dir Direction, fn func(owner uint32)) {
	runs, dels := d.runs[dir], d.dels[dir]
	for c := 0; c < max(len(runs), len(dels)); c++ {
		if (c >= len(runs) || runs[c] == nil) && (c >= len(dels) || dels[c] == nil) {
			continue
		}
		for o := uint32(c << ownerChunkShift); o < uint32(c+1)<<ownerChunkShift; o++ {
			if len(runs.get(o)) > 0 || len(dels.get(o)) > 0 {
				fn(o)
			}
		}
	}
}

// dirtyOwnersSorted returns the owners with pending inserts or deletes in
// one direction, ascending. CloneIncremental computes both directions once
// and threads them through the primary and every secondary patch.
func (d *Delta) dirtyOwnersSorted(dir Direction) []uint32 {
	var out []uint32
	d.eachDirtyOwner(dir, func(o uint32) { out = append(out, o) })
	return out
}

// dirtyOwners is the per-direction sorted dirty-owner sets of one delta.
type dirtyOwners [2][]uint32

func (d *Delta) dirtyOwnerSets() dirtyOwners {
	return dirtyOwners{d.dirtyOwnersSorted(FW), d.dirtyOwnersSorted(BW)}
}

// levelsCompatible reports whether freshly built levels span the same
// bucket space as the base's: same level count and, per level, the same
// cardinality. Categorical codes are assigned in sorted value order and
// values are never removed, so equal cardinalities imply an identical
// value-to-bucket mapping (with Codes extended to the new entities).
func levelsCompatible(base, fresh []level) bool {
	if len(base) != len(fresh) {
		return false
	}
	for i := range base {
		if base[i].cat.Cardinality != fresh[i].cat.Cardinality {
			return false
		}
	}
	return true
}

// incrementalPrimary builds the successor primary for graph g2 (the fold's
// clone, tombstones applied) by patching only the delta's dirty owners.
func incrementalPrimary(base *Primary, g2 *storage.Graph, d *Delta, dirty dirtyOwners) (*Primary, bool) {
	levels, err := buildLevels(g2, base.cfg.Partitions)
	if err != nil || !levelsCompatible(base.levels, levels) {
		return nil, false
	}
	p := &Primary{
		g:         g2,
		cfg:       base.cfg,
		levels:    levels,
		edgeBound: storage.EdgeID(g2.NumEdges()),
	}
	p.fw = patchPrimaryCSR(base, FW, g2, d, dirty[FW])
	p.bw = patchPrimaryCSR(base, BW, g2, d, dirty[BW])
	return p, true
}

// patchPrimaryCSR assembles one direction's successor CSR: clean owners are
// copied by range, dirty owners re-packed with the delta spliced in.
func patchPrimaryCSR(base *Primary, dir Direction, g2 *storage.Graph, d *Delta, dirty []uint32) *csr.CSR {
	old := base.dirCSR(dir)
	numOwners := g2.NumVertices()
	ins, del := 0, 0
	d.runs[dir].each(func(_ uint32, r []bufEntry) { ins += len(r) })
	d.dels[dir].each(func(_ uint32, r []delRec) { del += len(r) })
	pt := csr.NewPatcher(old, numOwners, old.Len()+ins-del)
	var sorts boundSorts
	sorts.bind(base.g, base.cfg.Sorts)
	prev := uint32(0)
	for _, owner := range dirty {
		pt.CopyRange(prev, owner)
		rebuildPrimaryOwner(pt, base, &sorts, dir, owner, d)
		prev = owner + 1
	}
	pt.CopyRange(prev, uint32(numOwners))
	return pt.Build()
}

// rebuildPrimaryOwner re-packs one dirty owner: the base entries (minus
// pending deletes) interleaved with the delta's insert run in full index
// order — exactly the walk Delta.Splice performs on the read path, here
// emitting bucket codes for the patcher. sorts is base's sort keys bound to
// base's graph.
func rebuildPrimaryOwner(pt *csr.Patcher, base *Primary, sorts *boundSorts, dir Direction, owner uint32, d *Delta) {
	old := base.dirCSR(dir)
	run := d.runs[dir].get(owner)
	dels := d.dels[dir].get(owner)
	pt.BeginOwner(owner)
	var lo, hi uint32
	if int(owner) < old.NumOwners() {
		lo, hi = old.OwnerRange(owner)
	}
	nbrs, eids := old.Nbrs(), old.EIDs()
	ri := 0
	var cb [8]uint16
	for pos := lo; pos < hi; pos++ {
		e := storage.EdgeID(eids[pos])
		nb := storage.VertexID(nbrs[pos])
		if len(dels) > 0 && delContains(dels, uint64(e)) {
			continue
		}
		codes := codesFor(base.levels, e, nb, cb[:0])
		if ri < len(run) {
			cur := bufEntry{
				nbr:   uint32(nb),
				eid:   uint64(e),
				sort:  sorts.ordinals(e, nb),
				codes: codes,
			}
			for ri < len(run) && bufLess(run[ri], cur) {
				pt.Append(run[ri].codes, run[ri].nbr, run[ri].eid)
				ri++
			}
		}
		pt.Append(codes, uint32(nb), uint64(e))
	}
	for ; ri < len(run); ri++ {
		pt.Append(run[ri].codes, run[ri].nbr, run[ri].eid)
	}
}

// secEntry is one rebuilt secondary entry of a dirty owner, pre-sort.
type secEntry struct {
	off    uint32
	bucket uint32
	sort   [2]uint64
}

// sortSecEntries orders one owner's rebuilt entries exactly as
// OffsetBuilder's global sort would within that owner: bucket, sort keys,
// then offset (offsets are unique within an owner, so the order is total).
func sortSecEntries(es []secEntry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.sort[0] != b.sort[0] {
			return a.sort[0] < b.sort[0]
		}
		if a.sort[1] != b.sort[1] {
			return a.sort[1] < b.sort[1]
		}
		return a.off < b.off
	})
}

func splitSecEntries(es []secEntry) (offs, buckets []uint32) {
	if len(es) == 0 {
		return nil, nil
	}
	offs = make([]uint32, len(es))
	buckets = make([]uint32, len(es))
	for i, e := range es {
		offs[i], buckets[i] = e.off, e.bucket
	}
	return offs, buckets
}

// incrementalVertexPartitioned patches a 1-hop view onto the successor
// primary np: owners whose primary list changed in an indexed direction are
// re-materialized (offsets shift even when the view's membership did not
// change); everything else is copied at group granularity.
func incrementalVertexPartitioned(v *VertexPartitioned, np *Primary, d *Delta, dirty dirtyOwners) (*VertexPartitioned, bool) {
	nv := &VertexPartitioned{def: v.def, primary: np}
	g := np.g
	for di, od := range v.dirs {
		if od == nil {
			continue
		}
		dir := Direction(di)
		var levels []level
		if od.shared {
			levels = np.levels
		} else {
			fresh, err := buildLevels(g, v.def.Cfg.Partitions)
			if err != nil || !levelsCompatible(od.levels, fresh) {
				return nil, false
			}
			levels = fresh
		}
		c := np.dirCSR(dir)
		cp := pred.Compile(v.def.View.Pred.ResolveNbr(dir == FW), g)
		var sorts boundSorts
		sorts.bind(g, v.def.Cfg.Sorts)
		pt := csr.NewOffsetPatcher(od.lists, g.NumVertices())
		var cb [8]uint16
		for _, owner := range dirty[dir] {
			lo, hi := c.OwnerRange(owner)
			es := make([]secEntry, 0, hi-lo)
			nbrs, eids := c.Nbrs(), c.EIDs()
			for pos := lo; pos < hi; pos++ {
				e := storage.EdgeID(eids[pos])
				nbr := storage.VertexID(nbrs[pos])
				if !cp.Eval(e, 0, false) {
					continue
				}
				codes := codesFor(levels, e, nbr, cb[:0])
				es = append(es, secEntry{
					off:    pos - lo,
					bucket: od.lists.BucketOf(codes),
					sort:   sorts.ordinals(e, nbr),
				})
			}
			sortSecEntries(es)
			offs, buckets := splitSecEntries(es)
			pt.ReplaceOwner(owner, offs, buckets)
		}
		var sharedWith *csr.CSR
		if od.shared {
			sharedWith = c
		}
		nd := &vpDir{shared: od.shared}
		if !od.shared {
			nd.levels = levels
		}
		nd.lists = pt.Build(func(owner uint32) uint32 {
			return np.OwnerLen(dir, storage.VertexID(owner))
		}, sharedWith)
		nv.dirs[dir] = nd
	}
	return nv, true
}

// epIncrementalWorkFraction caps the edge-partitioned patch's scan work
// relative to a full build's: re-materializing a dirty bound edge costs the
// adjacent list's length, and a hub vertex can make a handful of dirty
// primary lists fan out to deg² re-scan work the merger's dirty-owner
// fraction cannot see. Past this fraction the patch declines and the view
// is rebuilt from the (already patched) primary instead — which is also
// parallelized across bound edges, unlike the sequential patch loop.
const epIncrementalWorkFraction = 0.25

// incrementalEdgePartitioned patches a 2-hop view onto the successor
// primary np. A bound edge is dirty when it is new, deleted, or hangs off a
// vertex whose adjacency in the view's adjacent direction changed (its
// offsets resolve into that list).
func incrementalEdgePartitioned(ep *EdgePartitioned, np *Primary, d *Delta, dirtyPrimary dirtyOwners) (*EdgePartitioned, bool) {
	g := np.g
	fresh, err := buildLevels(g, ep.def.Cfg.Partitions)
	if err != nil || !levelsCompatible(ep.levels, fresh) {
		return nil, false
	}
	levels := fresh
	adjDir := ep.def.View.Dir.AdjDirection()
	boundDir := FW
	if ep.def.View.Dir.BoundIsDst() {
		boundDir = BW
	}
	cp := pred.Compile(ep.def.View.Pred.ResolveNbr(adjDir == FW), g)
	var sorts boundSorts
	sorts.bind(g, ep.def.Cfg.Sorts)
	ownerVertex := func(eb storage.EdgeID) storage.VertexID {
		if ep.def.View.Dir.BoundIsDst() {
			return g.Dst(eb)
		}
		return g.Src(eb)
	}

	// Dirty bound edges: inserted edges (they need brand-new lists),
	// deleted edges (their lists vanish), and every live bound edge whose
	// owner vertex's adjacent-direction primary list changed.
	dirty := make(map[uint32]struct{})
	d.runs[FW].each(func(_ uint32, run []bufEntry) {
		for i := range run {
			dirty[uint32(run[i].eid)] = struct{}{}
		}
	})
	d.deleted.each(func(e storage.EdgeID) { dirty[uint32(e)] = struct{}{} })
	bc := np.dirCSR(boundDir)
	for _, v := range dirtyPrimary[adjDir] {
		lo, hi := bc.OwnerRange(v)
		eids := bc.EIDs()
		for pos := lo; pos < hi; pos++ {
			dirty[uint32(eids[pos])] = struct{}{}
		}
	}
	dirtyList := make([]uint32, 0, len(dirty))
	for eb := range dirty {
		dirtyList = append(dirtyList, eb)
	}
	sort.Slice(dirtyList, func(i, j int) bool { return dirtyList[i] < dirtyList[j] })

	// Cost gate: patching scans deg(ownerVertex) entries per dirty bound
	// edge, so compare that against the full build's total scan work
	// (Σ_v boundDeg(v)·adjDeg(v), computed in O(V) from the new CSRs).
	ac := np.dirCSR(adjDir)
	var dirtyWork, fullWork uint64
	for v := 0; v < g.NumVertices(); v++ {
		blo, bhi := bc.OwnerRange(uint32(v))
		alo, ahi := ac.OwnerRange(uint32(v))
		fullWork += uint64(bhi-blo) * uint64(ahi-alo)
	}
	for _, ebi := range dirtyList {
		eb := storage.EdgeID(ebi)
		if g.EdgeDeleted(eb) {
			continue
		}
		lo, hi := ac.OwnerRange(uint32(ownerVertex(eb)))
		dirtyWork += uint64(hi - lo)
	}
	if float64(dirtyWork) > epIncrementalWorkFraction*float64(fullWork) {
		return nil, false
	}
	pt := csr.NewOffsetPatcher(ep.lists, g.NumEdges())
	var cb [8]uint16
	for _, ebi := range dirtyList {
		eb := storage.EdgeID(ebi)
		if g.EdgeDeleted(eb) {
			pt.ReplaceOwner(ebi, nil, nil)
			continue
		}
		lo, hi := ac.OwnerRange(uint32(ownerVertex(eb)))
		nbrs, eids := ac.Nbrs(), ac.EIDs()
		var es []secEntry
		for pos := lo; pos < hi; pos++ {
			eadj := storage.EdgeID(eids[pos])
			nbr := storage.VertexID(nbrs[pos])
			if !cp.Eval(eadj, eb, true) {
				continue
			}
			codes := codesFor(levels, eadj, nbr, cb[:0])
			es = append(es, secEntry{
				off:    pos - lo,
				bucket: ep.lists.BucketOf(codes),
				sort:   sorts.ordinals(eadj, nbr),
			})
		}
		sortSecEntries(es)
		offs, buckets := splitSecEntries(es)
		pt.ReplaceOwner(ebi, offs, buckets)
	}
	nep := &EdgePartitioned{def: ep.def, primary: np, levels: levels}
	nep.lists = pt.Build(func(owner uint32) uint32 {
		eb := storage.EdgeID(owner)
		if g.EdgeDeleted(eb) {
			return 0
		}
		return np.OwnerLen(adjDir, ownerVertex(eb))
	}, nil)
	return nep, true
}

// CloneIncremental builds a successor store over g2 (a graph clone with the
// delta's tombstones already applied) by patching only the owners d
// touched, leaving the receiver untouched — the incremental counterpart of
// CloneRebuilt. ok is false when the primary cannot be patched (a partition
// level's bucket space changed); the caller must then fall back to
// CloneRebuilt. A secondary that declines its patch — its own bucket space
// changed, or an edge-partitioned view's re-scan fan-out exceeds the cost
// gate — is rebuilt from the already-patched primary instead, so the rest
// of the store still folds in O(delta). The result is observationally
// identical to a full rebuild over the same final state: counts, i-cost,
// secondary answers, and checkpoint encodings all match.
func (s *Store) CloneIncremental(g2 *storage.Graph, d *Delta) (*Store, bool) {
	dirty := d.dirtyOwnerSets()
	np, ok := incrementalPrimary(s.primary, g2, d, dirty)
	if !ok {
		return nil, false
	}
	ns := &Store{g: g2, primary: np}
	for _, v := range s.vps {
		nv, ok := incrementalVertexPartitioned(v, np, d, dirty)
		if !ok {
			bv, err := BuildVertexPartitioned(np, v.Def())
			if err != nil {
				return nil, false
			}
			nv = bv
		}
		ns.vps = append(ns.vps, nv)
	}
	for _, e := range s.eps {
		ne, ok := incrementalEdgePartitioned(e, np, d, dirty)
		if !ok {
			be, err := BuildEdgePartitioned(np, e.Def())
			if err != nil {
				return nil, false
			}
			ne = be
		}
		ns.eps = append(ns.eps, ne)
	}
	return ns, true
}
