package exec

import (
	"github.com/aplusdb/aplus/internal/index"
)

// Scratch is a per-worker arena of reusable operator buffers. Every slice a
// physical operator needs per input tuple (decoded adjacency lists, cursor
// positions, run boundaries, bucket-combination state) lives here, in one
// slot per plan operator, so the steady-state tuple loop performs no heap
// allocations. Op values themselves stay stateless and shareable: the same
// Plan can run in many workers at once, each worker owning its Runtime and
// therefore its Scratch.
type Scratch struct {
	ops []opScratch
}

// reset sizes the arena for a plan with n operators and clears any state
// cached from a previously executed plan (slot i is only valid for the op
// that sits at position i of the current plan).
func (s *Scratch) reset(n int) {
	if cap(s.ops) < n {
		s.ops = make([]opScratch, n)
	}
	s.ops = s.ops[:n]
	clear(s.ops)
}

// op returns operator i's scratch slot.
func (s *Scratch) op(i int) *opScratch { return &s.ops[i] }

// flatList is a block-decoded adjacency list: plain parallel slices with no
// per-element representation branch, the shape the intersection loops run
// over. For direct lists the slices alias index storage (zero copy); for
// offset lists they alias the slot's decode buffer.
type flatList struct {
	nbrs []uint32
	eids []uint64
}

// listSlot is one list position's fetch state. A fetch resolves the list
// into adj (ListRef.fetchWith returns &adj), a segment narrows it there,
// and decode and the probe loops read it there, so no descriptor is copied
// per fetch. splice and buf are owned buffers: a delta splice merges into
// splice and repoints adj at it, and decode unpacks offset lists into buf.
// They stay separate because a spliced list is direct, so decode aliases it
// instead of copying, and must never unpack into it.
type listSlot struct {
	adj    index.AdjList
	splice flatList
	buf    flatList
}

// opScratch holds one operator's reusable buffers. All slices are sized on
// first use and only grow; the zero value is ready to use.
type opScratch struct {
	// Bucket-combination iterator state (initCombo/advanceCombo): per list,
	// the expanded innermost-bucket alternatives, the odometer position, and
	// the currently selected codes. oneRef is CloseEdgeOp's single list,
	// copied once per worker so the combo iterator can range over it.
	choices  [][][]uint16
	comboIdx []int
	codes    [][]uint16
	oneRef   []ListRef

	// Per list position: the fetch slots, then the E/I state — decoded
	// lists and the intersection cursors (current position and
	// duplicate-run end per list). Sized by ensureLists before any fetch,
	// and never grown while a fetch's pointer into slots is live.
	slots  []listSlot
	lists  []flatList
	pos    []int
	runEnd []int

	// MULTI-EXTEND state, computed once per (worker, op slot): the flattened
	// list refs across groups, each ref's group, the merge cursors, and
	// per-group emit state.
	refs     []ListRef
	refGroup []int
	cursors  []meCursor
	groups   []meGroupScratch
	meReady  bool
}

// meGroupScratch is the per-group emit state of a MULTI-EXTEND: the cursor
// indexes belonging to the group plus intersection positions and run ends
// over the group's equal-ordinal region.
type meGroupScratch struct {
	cur  []int
	idx  []int
	ends []int
}

// initCombo prepares iteration over the cartesian product of each list's
// innermost-bucket choices. codes[i] always holds list i's current bucket
// codes; advanceCombo steps the odometer. A list with no Expand set
// contributes its single Codes prefix.
func (sc *opScratch) initCombo(lists []ListRef) {
	z := len(lists)
	if cap(sc.choices) < z {
		sc.choices = make([][][]uint16, z)
		sc.comboIdx = make([]int, z)
		sc.codes = make([][]uint16, z)
	}
	sc.choices = sc.choices[:z]
	sc.comboIdx = sc.comboIdx[:z]
	sc.codes = sc.codes[:z]
	for i := range lists {
		sc.choices[i] = lists[i].Expand // empty means the single Codes choice
		sc.comboIdx[i] = 0
		if len(sc.choices[i]) > 0 {
			sc.codes[i] = sc.choices[i][0]
		} else {
			sc.codes[i] = lists[i].Codes
		}
	}
}

// advanceCombo moves to the next bucket combination, returning false when
// the product is exhausted.
func (sc *opScratch) advanceCombo() bool {
	for i := len(sc.comboIdx) - 1; i >= 0; i-- {
		n := len(sc.choices[i])
		if n == 0 {
			n = 1 // single implicit choice
		}
		sc.comboIdx[i]++
		if sc.comboIdx[i] < n {
			sc.codes[i] = sc.choices[i][sc.comboIdx[i]]
			return true
		}
		sc.comboIdx[i] = 0
		if len(sc.choices[i]) > 0 {
			sc.codes[i] = sc.choices[i][0]
		}
	}
	return false
}

// ensureLists sizes the per-list state for z lists, preserving buffers
// already grown.
func (sc *opScratch) ensureLists(z int) {
	for len(sc.slots) < z {
		sc.slots = append(sc.slots, listSlot{})
	}
	if cap(sc.lists) < z {
		sc.lists = make([]flatList, z)
		sc.pos = make([]int, z)
		sc.runEnd = make([]int, z)
	}
	sc.lists = sc.lists[:z]
	sc.pos = sc.pos[:z]
	sc.runEnd = sc.runEnd[:z]
}

// decode block-decodes list i's fetched list l (&sc.slots[i].adj) into
// flat slices: direct lists are aliased with zero copies, offset lists are
// bulk-unpacked into the slot's reusable buffer (index.AdjList.DecodeInto).
func (sc *opScratch) decode(i int, l *index.AdjList) {
	if nbrs, eids, ok := l.Direct(); ok {
		sc.lists[i] = flatList{nbrs: nbrs, eids: eids}
		return
	}
	b := &sc.slots[i].buf
	b.nbrs, b.eids = l.DecodeInto(b.nbrs, b.eids)
	sc.lists[i] = flatList{nbrs: b.nbrs, eids: b.eids}
}

// initME computes the MULTI-EXTEND shape (flattened refs, group membership,
// per-group emit buffers) the first time the op runs in this worker.
func (sc *opScratch) initME(o *MultiExtendOp) {
	if sc.meReady {
		return
	}
	sc.refs = sc.refs[:0]
	sc.refGroup = sc.refGroup[:0]
	for gi := range o.Groups {
		for _, r := range o.Groups[gi].Lists {
			sc.refs = append(sc.refs, r)
			sc.refGroup = append(sc.refGroup, gi)
		}
	}
	sc.cursors = make([]meCursor, len(sc.refs))
	sc.ensureLists(len(sc.refs))
	sc.groups = make([]meGroupScratch, len(o.Groups))
	for gi := range sc.groups {
		gs := &sc.groups[gi]
		for i, g := range sc.refGroup {
			if g == gi {
				gs.cur = append(gs.cur, i)
			}
		}
		gs.idx = make([]int, len(gs.cur))
		gs.ends = make([]int, len(gs.cur))
	}
	sc.meReady = true
}

// gallopNbrs returns the first position >= from whose value is >= target,
// using exponential probing followed by binary search over a flat slice —
// the branch-free replacement for galloping through the AdjList interface.
func gallopNbrs(nbrs []uint32, from int, target uint32) int {
	n := len(nbrs)
	if from >= n || nbrs[from] >= target {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < n && nbrs[hi] < target {
		lo = hi
		step *= 2
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runEndOf returns the end of the duplicate (parallel-edge) run of target
// that starts at pos, galloping so long runs are skipped in O(log run)
// steps instead of being rescanned linearly.
func runEndOf(nbrs []uint32, pos int, target uint32) int {
	if target == ^uint32(0) {
		// target+1 would wrap; nothing sorts above it, so the run is the
		// remainder of the list.
		return len(nbrs)
	}
	return gallopNbrs(nbrs, pos+1, target+1)
}
