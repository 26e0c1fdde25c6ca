package dedup

import (
	"cagc/internal/cow"
	"cagc/internal/flathash"
)

// Clone returns a deep, independent, untracked copy of the index:
// entries, fingerprint table, free-CID stack, and counters. Because the
// fingerprint table is open-addressed with its recency list stored as
// slot indices inside the slots, the copy is a handful of flat copies —
// no per-element rebuild — and the clone evicts the same fingerprints
// at the same moments a cold index in this state would.
func (x *Index) Clone() *Index {
	c := new(Index)
	c.CopyDirty(x)
	return c
}

// EnableCOW turns on divergence tracking on the entry array and the
// fingerprint table so CopyDirty can re-seed this index from its
// snapshot master by copying only the chunks a run touched. Idempotent;
// Clone never inherits tracking.
func (x *Index) EnableCOW() {
	if x.track == nil {
		x.track = cow.NewTracker(entryChunkShift)
	}
	x.byFP.Track()
}

// MarkAllCOW forces the next CopyDirty onto the full-copy path — the
// differential reference for the dirty-vs-full fuzz tests.
func (x *Index) MarkAllCOW() {
	x.track.MarkAll()
	x.byFP.MarkAllCOW()
}

// CopyDirty makes x an exact copy of src, reusing x's allocations, and
// returns the bytes copied. Tracked entry and fingerprint-table chunks
// are copied only when dirty; untracked ones (a zero Index included)
// are copied whole. The free-CID stack (pop/push churn, not
// prefix-clean) and the scalar counters are always copied.
func (x *Index) CopyDirty(src *Index) int {
	if x.byFP == nil {
		x.byFP = new(flathash.Map[CID])
	}
	n := x.byFP.CopyDirty(src.byFP)
	n += cow.CopySlice(x.track, &x.entries, src.entries)
	x.track.Reset()
	n += cow.CopyAll(&x.freeIDs, src.freeIDs)
	x.live = src.live
	x.stats = src.stats
	x.capacity = src.capacity
	x.lruOn = src.lruOn
	return n
}
