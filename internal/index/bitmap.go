package index

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// BitmapVP is the alternative secondary-index representation the paper
// discusses in Section III-B3: one bit per entry of the primary index
// marks whether the edge belongs to the view. Compared to offset lists:
//
//   - it cannot re-sort lists, so the view's sort order must equal the
//     primary's (enforced at build time);
//   - it costs exactly one bit per primary entry regardless of how few
//     edges the view keeps, so it beats offset lists in space only when
//     the predicate is unselective;
//   - reads must scan the whole primary list performing bitmask tests, so
//     access time degrades as predicates get more selective, while offset
//     lists touch only the edges actually indexed.
//
// The engine's optimizer plans against offset-list indexes; BitmapVP
// exists for the space/time ablation the paper argues qualitatively
// (reproduced by BenchmarkAblationOffsetVsBitmap).
type BitmapVP struct {
	name    string
	pred    pred.Predicate
	primary *Primary
	dirs    map[Direction][]uint64 // bit per global CSR position
}

// BuildBitmapVP materializes a 1-hop view as bitmaps over the primary
// lists. The index shares the primary's partitioning and sort order by
// construction.
func BuildBitmapVP(p *Primary, name string, viewPred pred.Predicate, dirs []Direction) (*BitmapVP, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("index: bitmap view %q: at least one direction required", name)
	}
	for _, t := range viewPred.Terms {
		if t.UsesBound() {
			return nil, fmt.Errorf("index: 1-hop view %q cannot reference eb", name)
		}
	}
	b := &BitmapVP{name: name, pred: viewPred, primary: p, dirs: make(map[Direction][]uint64)}
	for _, dir := range dirs {
		c := p.dirCSR(dir)
		bits := make([]uint64, (c.Len()+63)/64)
		cp := pred.Compile(viewPred.ResolveNbr(dir == FW), p.g)
		eids := c.EIDs()
		for pos := 0; pos < c.Len(); pos++ {
			if cp.Eval(storage.EdgeID(eids[pos]), 0, false) {
				bits[pos/64] |= 1 << (uint(pos) % 64)
			}
		}
		b.dirs[dir] = bits
	}
	return b, nil
}

// Name returns the view name.
func (b *BitmapVP) Name() string { return b.name }

// List materializes the view's adjacency list of owner under dir for a
// bucket-code prefix. Every entry of the primary list is bitmask-tested —
// the cost profile the paper attributes to bitmaps.
func (b *BitmapVP) List(dir Direction, owner storage.VertexID, codes []uint16) AdjList {
	bits, ok := b.dirs[dir]
	if !ok {
		return AdjList{}
	}
	c := b.primary.dirCSR(dir)
	lo, hi := c.PrefixRange(uint32(owner), codes)
	nbrs := make([]uint32, 0, hi-lo)
	eids := make([]uint64, 0, hi-lo)
	allNbrs, allEids := c.Nbrs(), c.EIDs()
	for pos := lo; pos < hi; pos++ {
		if bits[pos/64]&(1<<(uint(pos)%64)) != 0 {
			nbrs = append(nbrs, allNbrs[pos])
			eids = append(eids, allEids[pos])
		}
	}
	return DirectList(nbrs, eids)
}

// Count returns the number of indexed entries under dir.
func (b *BitmapVP) Count(dir Direction) int {
	n := 0
	for _, w := range b.dirs[dir] {
		n += popcount(w)
	}
	return n
}

// MemoryBytes is one bit per primary entry per direction.
func (b *BitmapVP) MemoryBytes() int64 {
	var total int64
	for _, bits := range b.dirs {
		total += int64(len(bits)) * 8
	}
	return total
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
