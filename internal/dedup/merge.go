package dedup

import (
	"fmt"

	"cagc/internal/flash"
)

// The operations in this file support CAGC's offline (GC-time)
// deduplication. Under CAGC, user writes are *not* fingerprint-checked:
// each write stores content as an unindexed entry (the fingerprint is
// unknown to the FTL until the hash engine computes it during GC).
// During GC migration the content is hashed, looked up, and either
// published into the fingerprint index (first copy) or merged into the
// already-indexed copy (redundant copy).

// InsertUnindexed stores content located at ppn with refcount 1 but
// does not enter it into the fingerprint index: the content has not
// been hashed yet. fp is retained for later Publish (the simulator
// carries the fingerprint in the trace; the *device* learns it only
// when it pays hash-engine latency).
func (x *Index) InsertUnindexed(fp Fingerprint, ppn flash.PPN) CID {
	var c CID
	if n := len(x.freeIDs); n > 0 {
		c = x.freeIDs[n-1]
		x.freeIDs = x.freeIDs[:n-1]
	} else {
		c = CID(len(x.entries))
		x.entries = append(x.entries, entry{})
	}
	x.entries[c] = entry{fp: fp, ppn: uint32(ppn), ref: 1, peak: 1, unindexed: true}
	x.track.Mark(int(c))
	x.live++
	x.stats.Inserts++
	if x.live > x.stats.PeakCount {
		x.stats.PeakCount = x.live
	}
	return c
}

// Indexed reports whether c is in the fingerprint index (i.e., its
// content has been hashed and published).
func (x *Index) Indexed(c CID) (bool, error) {
	if err := x.check(c); err != nil {
		return false, err
	}
	return !x.entries[c].unindexed, nil
}

// Publish enters an unindexed entry into the fingerprint index after
// its content has been hashed. The caller must have verified via Lookup
// that the fingerprint is not already present; publishing a duplicate
// or already-indexed entry is a bug.
func (x *Index) Publish(c CID) error {
	if err := x.check(c); err != nil {
		return err
	}
	e := &x.entries[c]
	if !e.unindexed {
		return fmt.Errorf("dedup: Publish of already-indexed CID %d", c)
	}
	if _, dup := x.byFP.Get(uint64(e.fp)); dup {
		return fmt.Errorf("dedup: Publish of duplicate fingerprint %#x (merge instead)", uint64(e.fp))
	}
	e.unindexed = false
	x.track.Mark(int(c))
	s := x.byFP.Put(uint64(e.fp), c)
	x.trackIndexed(s)
	return nil
}

// MergeInto folds the redundant content from into the indexed content
// to: to gains all of from's references and from is removed. The caller
// is responsible for remapping logical pages and invalidating from's
// physical page. Returns to's new reference count.
func (x *Index) MergeInto(from, to CID) (int, error) {
	if from == to {
		return 0, fmt.Errorf("dedup: merging CID %d into itself", from)
	}
	if err := x.check(from); err != nil {
		return 0, err
	}
	if err := x.check(to); err != nil {
		return 0, err
	}
	ef, et := &x.entries[from], &x.entries[to]
	if ef.fp != et.fp {
		return 0, fmt.Errorf("dedup: merging different contents (%#x into %#x)",
			uint64(ef.fp), uint64(et.fp))
	}
	if et.unindexed {
		return 0, fmt.Errorf("dedup: merge target CID %d is not indexed", to)
	}
	et.ref += ef.ref
	if et.ref > et.peak {
		et.peak = et.ref
	}
	x.track.Mark(int(to))
	x.touch(to)
	// Remove from. It is unindexed in the common (CAGC) path; if it was
	// indexed this is a caller bug because two indexed entries can never
	// share a fingerprint.
	if !ef.unindexed {
		return 0, fmt.Errorf("dedup: merge source CID %d is indexed", from)
	}
	ef.ref = 0
	x.track.Mark(int(from))
	x.freeIDs = append(x.freeIDs, from)
	x.live--
	x.stats.Removals++
	return int(et.ref), nil
}
