package ftl

import (
	"slices"

	"cagc/internal/cow"
	"cagc/internal/dedup"
)

// revMap is the lazy CID→LPN reverse map used by GC-time merges. It is
// maintained append-only with stale entries (bind adds, remapAll
// filters against the forward mapping), exactly like the [][]uint64 it
// replaced — but all chains live in one node arena as singly-linked
// lists of slice indices, with a freelist threading through cleared
// chains. That makes the steady-state bind path allocation-free (the
// arena grows to the workload's peak chain volume once, then recycles),
// and makes Clone three flat copies instead of one slice allocation per
// live CID.
type revMap struct {
	heads []int32 // CID -> first node, nilNode = empty chain
	tails []int32 // CID -> last node, for O(1) append in bind order
	nodes []revNode
	free  int32 // freelist head, nilNode = empty

	// Divergence trackers for the recycled-clone CopyDirty path: one
	// over the CID-indexed heads/tails pair, one over the node arena.
	// nil when untracked. ensure's append growth past the master's
	// length needs no marks (truncated away at re-seed).
	trkCID   *cow.Tracker
	trkNodes *cow.Tracker
}

// Chunk sizes for the revMap trackers: 128 CIDs (two 512 B head/tail
// runs) and 128 arena nodes per chunk.
const (
	revCIDChunkShift  = 7
	revNodeChunkShift = 7
)

type revNode struct {
	lpn  uint64
	next int32
}

const nilNode = int32(-1)

func newRevMap() revMap { return revMap{free: nilNode} }

// reserve sizes the tables for n CIDs and n chain nodes.
func (m *revMap) reserve(n int) {
	m.heads = slices.Grow(m.heads, n-len(m.heads))
	m.tails = slices.Grow(m.tails, n-len(m.tails))
	m.nodes = slices.Grow(m.nodes, n-len(m.nodes))
}

// ensure grows the per-CID tables to cover c (CIDs are dense and
// recycled by the dedup index).
func (m *revMap) ensure(c dedup.CID) {
	for int(c) >= len(m.heads) {
		m.heads = append(m.heads, nilNode)
		m.tails = append(m.tails, nilNode)
	}
}

// head returns c's first node, or nilNode.
func (m *revMap) head(c dedup.CID) int32 {
	if int(c) >= len(m.heads) {
		return nilNode
	}
	return m.heads[c]
}

// add appends lpn to c's chain, reusing a freelist node when one
// exists.
func (m *revMap) add(c dedup.CID, lpn uint64) {
	m.ensure(c)
	n := m.free
	if n != nilNode {
		m.free = m.nodes[n].next
		m.nodes[n] = revNode{lpn: lpn, next: nilNode}
		m.trkNodes.Mark(int(n))
	} else {
		n = int32(len(m.nodes))
		m.nodes = append(m.nodes, revNode{lpn: lpn, next: nilNode})
	}
	if t := m.tails[c]; t == nilNode {
		m.heads[c] = n
	} else {
		m.nodes[t].next = n
		m.trkNodes.Mark(int(t))
	}
	m.tails[c] = n
	m.trkCID.Mark(int(c))
}

// clear empties c's chain by splicing it whole onto the freelist, so
// the nodes serve the CID's next tenant without reallocation.
func (m *revMap) clear(c dedup.CID) {
	if int(c) >= len(m.heads) || m.heads[c] == nilNode {
		return
	}
	m.nodes[m.tails[c]].next = m.free
	m.trkNodes.Mark(int(m.tails[c]))
	m.free = m.heads[c]
	m.heads[c] = nilNode
	m.tails[c] = nilNode
	m.trkCID.Mark(int(c))
}

// clone returns an independent deep copy — flat copies only, no
// per-chain work.
func (m *revMap) clone() revMap {
	return revMap{
		heads: slices.Clone(m.heads),
		tails: slices.Clone(m.tails),
		nodes: slices.Clone(m.nodes),
		free:  m.free,
	}
}

// copyFrom overwrites m with src's state, reusing m's arrays and
// keeping (resetting) m's own trackers.
func (m *revMap) copyFrom(src *revMap) {
	m.heads = append(m.heads[:0], src.heads...)
	m.tails = append(m.tails[:0], src.tails...)
	m.nodes = append(m.nodes[:0], src.nodes...)
	m.free = src.free
	m.trkCID.Reset()
	m.trkNodes.Reset()
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

// copyDirty re-seeds m from src copying only dirty chunks (heads and
// tails share the CID tracker) and returns the bytes copied. Untracked
// maps degrade to the full copy with full accounting.
func (m *revMap) copyDirty(src *revMap) int {
	n := cow.CopySlice(m.trkCID, &m.heads, src.heads)
	n += cow.CopySlice(m.trkCID, &m.tails, src.tails)
	n += cow.CopySlice(m.trkNodes, &m.nodes, src.nodes)
	m.free = src.free
	m.trkCID.Reset()
	m.trkNodes.Reset()
	return n
}
