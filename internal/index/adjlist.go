package index

import (
	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/storage"
)

// AdjList is a resolved adjacency list: a sequence of (neighbour vertex,
// edge) pairs in index order. It is an 80-byte descriptor, not the entries.
// Primary lists are direct slices of the CSR's ID arrays; secondary lists
// are byte-packed offsets (off) into the owner's primary range, which sits
// in the same nbrs/eids fields (the indirection of Section III-B3).
//
// Any by-value use copies the whole descriptor, so executors fetch into a
// slot they own (Primary.ListInto and friends) and call its pointer-receiver
// methods. Len and Materialize keep value receivers for cold callers of the
// by-value List.
type AdjList struct {
	// Direct mode: the list's entries. Offset mode: the owner's whole
	// primary range, which off indexes into.
	nbrs []uint32
	eids []uint64

	off    csr.List
	offset bool
}

// DirectList wraps raw (nbr, eid) arrays as an AdjList.
func DirectList(nbrs []uint32, eids []uint64) AdjList {
	return AdjList{nbrs: nbrs, eids: eids}
}

// setDirect repoints l at raw (nbr, eid) arrays.
func (l *AdjList) setDirect(nbrs []uint32, eids []uint64) {
	l.nbrs, l.eids, l.off, l.offset = nbrs, eids, csr.List{}, false
}

// setOffset repoints l at an offset list over the owner's primary range.
func (l *AdjList) setOffset(off csr.List, baseNbrs []uint32, baseEids []uint64) {
	l.nbrs, l.eids, l.off, l.offset = baseNbrs, baseEids, off, true
}

// NumEntries returns the number of adjacency entries.
func (l *AdjList) NumEntries() int {
	if l.offset {
		return l.off.Len()
	}
	return len(l.nbrs)
}

// Len is NumEntries for callers holding an AdjList by value.
func (l AdjList) Len() int { return l.NumEntries() }

// Get returns the i-th (neighbour, edge) pair.
func (l *AdjList) Get(i int) (storage.VertexID, storage.EdgeID) {
	if l.offset {
		i = int(l.off.At(i))
	}
	return storage.VertexID(l.nbrs[i]), storage.EdgeID(l.eids[i])
}

// Nbr returns just the i-th neighbour (hot path of intersections).
func (l *AdjList) Nbr(i int) storage.VertexID {
	if l.offset {
		i = int(l.off.At(i))
	}
	return storage.VertexID(l.nbrs[i])
}

// Edge returns just the i-th edge.
func (l *AdjList) Edge(i int) storage.EdgeID {
	if l.offset {
		i = int(l.off.At(i))
	}
	return storage.EdgeID(l.eids[i])
}

// Narrow restricts l to its sublist [lo, hi) in place.
func (l *AdjList) Narrow(lo, hi int) {
	if l.offset {
		l.off = l.off.Sub(lo, hi)
		return
	}
	l.nbrs, l.eids = l.nbrs[lo:hi], l.eids[lo:hi]
}

// Direct returns the raw (nbr, eid) payload arrays when the list is stored
// directly (primary indexes and delta-spliced lists), letting executors
// read it with zero copies; ok is false for offset lists, which need
// DecodeInto. Callers must not mutate the returned slices.
func (l *AdjList) Direct() (nbrs []uint32, eids []uint64, ok bool) {
	if l.offset {
		return nil, nil, false
	}
	return l.nbrs, l.eids, true
}

// DecodeInto bulk-decodes the list into nbrs/eids, reusing their capacity
// and growing them when needed, and returns slices of length NumEntries().
// Offset lists are resolved with one bulk unpack of the byte-packed offsets
// (csr.List.UnpackInto) followed by a gather through the owner's primary
// range — the per-element representation branch and byte-unpacking loop of
// Get/Nbr are paid once per fetch instead of once per access.
func (l *AdjList) DecodeInto(nbrs []uint32, eids []uint64) ([]uint32, []uint64) {
	n := l.NumEntries()
	if cap(nbrs) < n {
		nbrs = make([]uint32, n)
	}
	nbrs = nbrs[:n]
	if cap(eids) < n {
		eids = make([]uint64, n)
	}
	eids = eids[:n]
	if !l.offset {
		copy(nbrs, l.nbrs)
		copy(eids, l.eids)
		return nbrs, eids
	}
	// Unpack the offsets into nbrs, then resolve both payloads in place.
	l.off.UnpackInto(nbrs)
	for i, o := range nbrs {
		eids[i] = l.eids[o]
		nbrs[i] = l.nbrs[o]
	}
	return nbrs, eids
}

// Materialize copies the list into fresh (nbr, eid) arrays.
func (l AdjList) Materialize() ([]uint32, []uint64) { return l.DecodeInto(nil, nil) }
