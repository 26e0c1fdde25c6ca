package ftl

import (
	"testing"
	"unsafe"

	"cagc/internal/dedup"
	"cagc/internal/flash"
)

// Steady-state guards for the flat structures the replay phase hammers:
// the cached mapping table (one open-addressed, LRU-threaded page
// table) and the arena-backed CID→LPN reverse map. Companions to the
// dedup-index guards and the event-heap guards of the bench substrate.

func TestCMTSteadyStateAllocs(t *testing.T) {
	c := newCMT(4 * mapEntriesPerPage) // 4 cached translation pages
	// Warm past capacity so the miss path below always evicts.
	for p := uint64(0); p < 8; p++ {
		c.access(p*mapEntriesPerPage, p%2 == 0)
	}
	evBefore := c.evictions
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		// Hit + touch (page 0 was just accessed below on the previous
		// iteration or during warmup for the first).
		c.access(0, false)
		// Miss on an always-fresh page: insert + evict (+ write-back
		// accounting every other access).
		c.access((100+k)*mapEntriesPerPage, k%2 == 0)
		c.access(0, true) // keep page 0 resident and dirty
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state CMT access allocated %.1f objects/op, want 0", allocs)
	}
	if c.evictions == evBefore {
		t.Fatal("miss path never evicted")
	}
}

func TestRevMapSteadyStateAllocs(t *testing.T) {
	m := newRevMap()
	const cids = 64
	// Warm: give every CID a chain, then clear half so the freelist and
	// the per-CID tables reach their steady size.
	for c := dedup.CID(0); c < cids; c++ {
		for i := uint64(0); i < 8; i++ {
			m.add(c, i)
		}
	}
	for c := dedup.CID(0); c < cids; c += 2 {
		m.clear(c)
	}
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		c := dedup.CID(k % cids)
		for i := uint64(0); i < 8; i++ {
			m.add(c, i)
		}
		m.clear(c)
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state bind/clear churn allocated %.1f objects/op, want 0", allocs)
	}
}

// TestRevMapRecordLayout pins the 8-byte CID and node records and
// checks that the highest LPN a device can have survives the 32-bit
// node field.
func TestRevMapRecordLayout(t *testing.T) {
	if e, n := unsafe.Sizeof(revEnds{}), unsafe.Sizeof(revNode{}); e != 8 || n != 8 {
		t.Errorf("revEnds is %d bytes and revNode %d, want 8 and 8", e, n)
	}
	m := newRevMap()
	top := uint64(flash.MaxPages - 1)
	m.add(3, top)
	m.add(3, 7)
	var got []uint64
	for n := m.head(3); n != nilNode; n = m.nodes[n].next {
		got = append(got, uint64(m.nodes[n].lpn))
	}
	if len(got) != 2 || got[0] != top || got[1] != 7 {
		t.Fatalf("chain = %v, want [%d 7]", got, top)
	}
}
