// Package csr implements the constant-depth nested compressed-sparse-row
// structure that stores A+ index adjacency lists (Section III and IV-B of
// the paper).
//
// A CSR indexes a set of adjacency entries under an "owner": the source or
// destination vertex for vertex-partitioned indexes, or the bound edge for
// edge-partitioned indexes. Below the owner level sit zero or more
// categorical partitioning levels (edge label, a categorical property, the
// neighbour's label, ...). Because every level has a fixed cardinality,
// bucket addresses are computed arithmetically, giving constant-time access
// to any sublist at any level. The innermost lists are either ID lists
// (4-byte neighbour IDs plus 8-byte edge IDs, as in the paper's primary
// indexes) or byte-packed offset lists (secondary indexes).
package csr

import (
	"fmt"
	"sort"
)

// MaxSortKeys is the number of nested sort criteria an index can carry on
// top of the implicit (neighbour ID, edge ID) tiebreak.
const MaxSortKeys = 2

// Entry is one adjacency record handed to a Builder.
type Entry struct {
	Owner uint32 // partitioning vertex or edge
	Nbr   uint32 // neighbour vertex ID
	EID   uint64 // edge ID
	// Sort holds the sort-key ordinals for the configured sort criteria;
	// unused slots must be zero. Entries within a bucket are ordered by
	// Sort[0], Sort[1], then neighbour ID, then edge ID.
	Sort [MaxSortKeys]uint64
	// bucket is the composite categorical bucket, filled by Builder.Add.
	bucket uint32
}

// CSR is an immutable nested-CSR index of ID lists.
type CSR struct {
	numOwners int
	cards     []int    // cardinality per partitioning level
	strides   []uint32 // bucket stride per level
	stride    uint32   // product of cards

	offsets []uint32 // len numOwners*stride+1, prefix sums of bucket sizes
	nbr     []uint32
	eid     []uint64
}

// Builder accumulates entries and produces a CSR.
type Builder struct {
	numOwners int
	cards     []int
	strides   []uint32
	stride    uint32
	entries   []Entry
}

// NewBuilder creates a builder for numOwners owners and the given
// partitioning-level cardinalities (possibly empty).
func NewBuilder(numOwners int, cards []int) *Builder {
	b := &Builder{numOwners: numOwners, cards: append([]int(nil), cards...)}
	b.strides, b.stride = computeStrides(cards)
	return b
}

func computeStrides(cards []int) ([]uint32, uint32) {
	strides := make([]uint32, len(cards))
	stride := uint32(1)
	for i := len(cards) - 1; i >= 0; i-- {
		strides[i] = stride
		stride *= uint32(cards[i])
	}
	return strides, stride
}

// Add records one adjacency entry. codes must have one bucket code per
// partitioning level.
func (b *Builder) Add(e Entry, codes []uint16) {
	var bucket uint32
	for i, c := range codes {
		bucket += uint32(c) * b.strides[i]
	}
	e.bucket = bucket
	b.entries = append(b.entries, e)
}

// Reserve pre-allocates capacity for n entries.
func (b *Builder) Reserve(n int) {
	if cap(b.entries) < n {
		entries := make([]Entry, len(b.entries), n)
		copy(entries, b.entries)
		b.entries = entries
	}
}

// Len returns the number of entries added so far.
func (b *Builder) Len() int { return len(b.entries) }

// Build sorts the entries into nested order and produces the CSR. The
// builder must not be reused afterwards.
func (b *Builder) Build() *CSR {
	c := &CSR{
		numOwners: b.numOwners,
		cards:     b.cards,
		strides:   b.strides,
		stride:    b.stride,
	}
	ents := b.entries
	sort.Slice(ents, func(i, j int) bool { return entryLess(&ents[i], &ents[j]) })
	nBuckets := uint64(b.numOwners) * uint64(b.stride)
	c.offsets = make([]uint32, nBuckets+1)
	c.nbr = make([]uint32, len(ents))
	c.eid = make([]uint64, len(ents))
	// Counting pass.
	for i := range ents {
		g := uint64(ents[i].Owner)*uint64(b.stride) + uint64(ents[i].bucket)
		c.offsets[g+1]++
	}
	for i := uint64(1); i <= nBuckets; i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	// Entries are already globally sorted, so placement is sequential.
	for i := range ents {
		c.nbr[i] = ents[i].Nbr
		c.eid[i] = ents[i].EID
	}
	b.entries = nil
	return c
}

func entryLess(a, b *Entry) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	if a.bucket != b.bucket {
		return a.bucket < b.bucket
	}
	for k := 0; k < MaxSortKeys; k++ {
		if a.Sort[k] != b.Sort[k] {
			return a.Sort[k] < b.Sort[k]
		}
	}
	if a.Nbr != b.Nbr {
		return a.Nbr < b.Nbr
	}
	return a.EID < b.EID
}

// NumOwners returns the number of owners the CSR covers.
func (c *CSR) NumOwners() int { return c.numOwners }

// NumLevels returns the number of nested partitioning levels.
func (c *CSR) NumLevels() int { return len(c.cards) }

// Cards returns the per-level cardinalities.
func (c *CSR) Cards() []int { return c.cards }

// Len returns the total number of stored entries.
func (c *CSR) Len() int { return len(c.nbr) }

// OwnerRange returns the [lo, hi) entry range of everything under owner.
// Owners added after the CSR was built have empty ranges (their edges live
// in snapshot delta overlays until the next fold).
func (c *CSR) OwnerRange(owner uint32) (lo, hi uint32) {
	if int(owner) >= c.numOwners {
		n := uint32(len(c.nbr))
		return n, n
	}
	base := uint64(owner) * uint64(c.stride)
	return c.offsets[base], c.offsets[base+uint64(c.stride)]
}

// BucketRange returns the [lo, hi) entry range for a fully specified bucket.
func (c *CSR) BucketRange(owner uint32, codes []uint16) (lo, hi uint32) {
	if len(codes) != len(c.cards) {
		panic(fmt.Sprintf("csr: BucketRange got %d codes, index has %d levels", len(codes), len(c.cards)))
	}
	return c.PrefixRange(owner, codes)
}

// PrefixRange returns the [lo, hi) entry range for a partially specified
// bucket: codes may cover only the first k levels, in which case the range
// spans every deeper sublist. Nested layout keeps this range contiguous.
func (c *CSR) PrefixRange(owner uint32, codes []uint16) (lo, hi uint32) {
	if int(owner) >= c.numOwners {
		n := uint32(len(c.nbr))
		return n, n
	}
	base := uint64(owner) * uint64(c.stride)
	var bucket, span uint32 = 0, c.stride
	for i, code := range codes {
		bucket += uint32(code) * c.strides[i]
		span = c.strides[i]
	}
	return c.offsets[base+uint64(bucket)], c.offsets[base+uint64(bucket)+uint64(span)]
}

// Nbrs returns the neighbour-ID payload array. Slices of it are adjacency
// lists; callers must not mutate it.
func (c *CSR) Nbrs() []uint32 { return c.nbr }

// EIDs returns the edge-ID payload array.
func (c *CSR) EIDs() []uint64 { return c.eid }

// PosInOwner converts a global entry position to an offset relative to the
// owner's range start — the value stored in secondary offset lists.
func (c *CSR) PosInOwner(owner uint32, pos uint32) uint32 {
	lo, _ := c.OwnerRange(owner)
	return pos - lo
}

// MemoryBytes estimates the heap footprint: partitioning levels (offsets)
// plus ID lists. The split is reported separately so experiments can show
// the cost of adding a partitioning level (Table II's Dp row).
func (c *CSR) MemoryBytes() (levels, idLists int64) {
	return int64(len(c.offsets)) * 4, int64(len(c.nbr))*4 + int64(len(c.eid))*8
}
