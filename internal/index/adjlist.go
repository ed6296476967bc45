package index

import (
	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/storage"
)

// AdjList is a resolved adjacency list: a sequence of (neighbour vertex,
// edge) pairs in index order. Primary lists wrap ID-list slices directly;
// secondary lists resolve byte-packed offsets through the owner's primary
// list range (the indirection of Section III-B3).
type AdjList struct {
	// Direct ID-list storage (primary indexes and delta-spliced lists).
	nbrs []uint32
	eids []uint64

	// Offset-list storage (secondary indexes): offsets into base*.
	off      csr.List
	baseNbrs []uint32
	baseEids []uint64
}

// DirectList wraps raw (nbr, eid) arrays as an AdjList.
func DirectList(nbrs []uint32, eids []uint64) AdjList {
	return AdjList{nbrs: nbrs, eids: eids}
}

// OffsetList wraps an offset list resolved against the owner's primary
// range.
func OffsetList(off csr.List, baseNbrs []uint32, baseEids []uint64) AdjList {
	return AdjList{off: off, baseNbrs: baseNbrs, baseEids: baseEids}
}

// Len returns the number of adjacency entries.
func (l AdjList) Len() int {
	if l.baseNbrs != nil {
		return l.off.Len()
	}
	return len(l.nbrs)
}

// Get returns the i-th (neighbour, edge) pair.
func (l AdjList) Get(i int) (storage.VertexID, storage.EdgeID) {
	if l.baseNbrs != nil {
		o := l.off.At(i)
		return storage.VertexID(l.baseNbrs[o]), storage.EdgeID(l.baseEids[o])
	}
	return storage.VertexID(l.nbrs[i]), storage.EdgeID(l.eids[i])
}

// Nbr returns just the i-th neighbour (hot path of intersections).
func (l AdjList) Nbr(i int) storage.VertexID {
	if l.baseNbrs != nil {
		return storage.VertexID(l.baseNbrs[l.off.At(i)])
	}
	return storage.VertexID(l.nbrs[i])
}

// Edge returns just the i-th edge.
func (l AdjList) Edge(i int) storage.EdgeID {
	if l.baseNbrs != nil {
		return storage.EdgeID(l.baseEids[l.off.At(i)])
	}
	return storage.EdgeID(l.eids[i])
}

// Direct returns the raw (nbr, eid) payload arrays when the list is stored
// directly (primary indexes and delta-spliced lists), letting executors
// read it with zero copies; ok is false for offset lists, which need
// DecodeInto. Callers must not mutate the returned slices.
func (l AdjList) Direct() (nbrs []uint32, eids []uint64, ok bool) {
	if l.baseNbrs != nil {
		return nil, nil, false
	}
	return l.nbrs, l.eids, true
}

// DecodeInto bulk-decodes the list into nbrs/eids, reusing their capacity
// and growing them when needed, and returns slices of length Len(). Offset
// lists are resolved with one bulk unpack of the byte-packed offsets
// (csr.List.UnpackInto) followed by a gather through the owner's primary
// range — the per-element representation branch and byte-unpacking loop of
// Get/Nbr are paid once per fetch instead of once per access.
func (l AdjList) DecodeInto(nbrs []uint32, eids []uint64) ([]uint32, []uint64) {
	n := l.Len()
	if cap(nbrs) < n {
		nbrs = make([]uint32, n)
	}
	nbrs = nbrs[:n]
	if cap(eids) < n {
		eids = make([]uint64, n)
	}
	eids = eids[:n]
	if l.baseNbrs == nil {
		copy(nbrs, l.nbrs)
		copy(eids, l.eids)
		return nbrs, eids
	}
	// Unpack the offsets into nbrs, then resolve both payloads in place.
	l.off.UnpackInto(nbrs)
	for i, o := range nbrs {
		eids[i] = l.baseEids[o]
		nbrs[i] = l.baseNbrs[o]
	}
	return nbrs, eids
}

// Materialize copies the list into fresh (nbr, eid) arrays.
func (l AdjList) Materialize() ([]uint32, []uint64) {
	n := l.Len()
	nbrs := make([]uint32, n)
	eids := make([]uint64, n)
	for i := 0; i < n; i++ {
		v, e := l.Get(i)
		nbrs[i] = uint32(v)
		eids[i] = uint64(e)
	}
	return nbrs, eids
}

// Slice returns the sublist [lo, hi).
func (l AdjList) Slice(lo, hi int) AdjList {
	if l.baseNbrs != nil {
		return AdjList{off: l.off.Sub(lo, hi), baseNbrs: l.baseNbrs, baseEids: l.baseEids}
	}
	return DirectList(l.nbrs[lo:hi], l.eids[lo:hi])
}
