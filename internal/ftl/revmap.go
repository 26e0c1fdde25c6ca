package ftl

import (
	"slices"

	"cagc/internal/cow"
	"cagc/internal/dedup"
	"cagc/internal/flash"
)

// revMap is the lazy CID→LPN reverse map used by GC-time merges. It is
// maintained append-only with stale entries (bind adds, remapAll
// filters against the forward mapping), exactly like the [][]uint64 it
// replaced — but all chains live in one node arena as singly-linked
// lists of slice indices, with a freelist threading through cleared
// chains. That makes the steady-state bind path allocation-free (the
// arena grows to the workload's peak chain volume once, then recycles),
// and makes Clone two flat copies instead of one slice allocation per
// live CID.
//
// Both tables hold 8-byte records: a CID's head and tail sit side by
// side, so add and clear touch one cache line of the CID table, and a
// node stores its LPN in 32 bits (flash.MaxPages bounds every LPN).
type revMap struct {
	ends  []revEnds // CID -> its chain's ends
	nodes []revNode
	free  int32 // freelist head, nilNode = empty

	// Divergence trackers for the recycled-clone CopyDirty path: one
	// over the CID table, one over the node arena. nil when untracked.
	// ensure's append growth past the master's length needs no marks
	// (truncated away at re-seed).
	trkCID   *cow.Tracker
	trkNodes *cow.Tracker
}

// Chunk sizes for the revMap trackers: 128 CIDs and 128 arena nodes
// (1 KiB each) per chunk.
const (
	revCIDChunkShift  = 7
	revNodeChunkShift = 7
)

// revEnds is one CID's chain: its first node, and its last for O(1)
// append in bind order. nilNode in both means an empty chain.
type revEnds struct {
	head, tail int32
}

type revNode struct {
	lpn  uint32
	next int32
}

// Compile-time proof that an LPN (below the device's page count) fits
// revNode.lpn.
const _ = uint32(flash.MaxPages)

const nilNode = int32(-1)

func newRevMap() revMap { return revMap{free: nilNode} }

// reserve sizes the tables for n CIDs and n chain nodes.
func (m *revMap) reserve(n int) {
	m.ends = slices.Grow(m.ends, n-len(m.ends))
	m.nodes = slices.Grow(m.nodes, n-len(m.nodes))
}

// ensure grows the per-CID tables to cover c (CIDs are dense and
// recycled by the dedup index).
func (m *revMap) ensure(c dedup.CID) {
	for int(c) >= len(m.ends) {
		m.ends = append(m.ends, revEnds{nilNode, nilNode})
	}
}

// head returns c's first node, or nilNode.
func (m *revMap) head(c dedup.CID) int32 {
	if int(c) >= len(m.ends) {
		return nilNode
	}
	return m.ends[c].head
}

// add appends lpn to c's chain, reusing a freelist node when one
// exists.
func (m *revMap) add(c dedup.CID, lpn uint64) {
	m.ensure(c)
	n := m.free
	if n != nilNode {
		m.free = m.nodes[n].next
		m.nodes[n] = revNode{lpn: uint32(lpn), next: nilNode}
		m.trkNodes.Mark(int(n))
	} else {
		n = int32(len(m.nodes))
		m.nodes = append(m.nodes, revNode{lpn: uint32(lpn), next: nilNode})
	}
	e := &m.ends[c]
	if e.tail == nilNode {
		e.head = n
	} else {
		m.nodes[e.tail].next = n
		m.trkNodes.Mark(int(e.tail))
	}
	e.tail = n
	m.trkCID.Mark(int(c))
}

// clear empties c's chain by splicing it whole onto the freelist, so
// the nodes serve the CID's next tenant without reallocation.
func (m *revMap) clear(c dedup.CID) {
	if int(c) >= len(m.ends) || m.ends[c].head == nilNode {
		return
	}
	e := &m.ends[c]
	m.nodes[e.tail].next = m.free
	m.trkNodes.Mark(int(e.tail))
	m.free = e.head
	*e = revEnds{nilNode, nilNode}
	m.trkCID.Mark(int(c))
}

// enableCOW turns on divergence tracking for the CID tables and the
// node arena. Idempotent.
func (m *revMap) enableCOW() {
	if m.trkCID == nil {
		m.trkCID = cow.NewTracker(revCIDChunkShift)
		m.trkNodes = cow.NewTracker(revNodeChunkShift)
	}
}

func (m *revMap) markAllCOW() {
	m.trkCID.MarkAll()
	m.trkNodes.MarkAll()
}

// copyDirty makes m an exact copy of src, reusing m's arrays, and
// returns the bytes copied: only dirty chunks when tracked, everything
// when untracked. m keeps its own trackers, reset.
func (m *revMap) copyDirty(src *revMap) int {
	n := cow.CopySlice(m.trkCID, &m.ends, src.ends)
	n += cow.CopySlice(m.trkNodes, &m.nodes, src.nodes)
	m.free = src.free
	m.trkCID.Reset()
	m.trkNodes.Reset()
	return n
}
