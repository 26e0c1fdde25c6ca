package ftl

import (
	"cagc/internal/cow"
	"cagc/internal/dedup"
	"cagc/internal/flash"
	"cagc/internal/flathash"
)

// Clone returns a deep, independent, untracked copy of the FTL bound to
// dev, which must be a clone of the original's device (the two are
// snapshotted together — see sim.Runner.Clone). See CopyDirty for what
// is copied. The contract is bit-identity: feeding the clone and the
// original the same operation stream produces identical results and
// identical internal state, which is what lets warm-state snapshots
// stand in for cold preconditioning runs.
func (f *FTL) Clone(dev *flash.Device) *FTL {
	c := new(FTL)
	c.CopyDirty(f, dev)
	return c
}

// copyDirty overwrites c with src's state through the page table's
// dirty-chunk path, returning the bytes copied. The recency order and
// dirty flags live inside the flat page table, so the copy evicts the
// same translation pages the original would.
func (c *cmt) copyDirty(src *cmt) int {
	pages := c.pages
	if pages == nil {
		pages = new(flathash.Map[bool])
	}
	*c = *src
	c.pages = pages
	return pages.CopyDirty(src.pages)
}

// EnableCOW turns on divergence tracking on the mapping and owners
// tables and cascades into the dedup index, the reverse map, and the
// cached mapping table, so CopyDirty can re-seed this FTL from its
// snapshot master by copying only what a run touched. The bound device
// has its own EnableCOW; sim.Runner enables both together. Idempotent;
// Clone never inherits tracking.
func (f *FTL) EnableCOW() {
	if f.cowMap == nil {
		f.cowMap = cow.NewTracker(mapChunkShift)
		f.cowOwn = cow.NewTracker(mapChunkShift)
	}
	f.rev.enableCOW()
	f.idx.EnableCOW()
	if f.cmt != nil {
		f.cmt.pages.Track()
	}
}

// MarkAllCOW forces the next CopyDirty onto the full-copy path
// everywhere — the differential reference for the dirty-vs-full fuzz
// tests and the denominator of the re-seed byte-ratio guard.
func (f *FTL) MarkAllCOW() {
	f.cowMap.MarkAll()
	f.cowOwn.MarkAll()
	f.rev.markAllCOW()
	f.idx.MarkAllCOW()
	if f.cmt != nil {
		f.cmt.pages.MarkAllCOW()
	}
}

// CopyDirty makes f an exact copy of src bound to dev, reusing f's
// allocations, and returns the bytes copied. Every piece of mutable
// state is copied: mapping tables, the dedup index, the reverse map,
// block metadata, free lists, write frontiers, the GC-eligible bitmap
// and victim index, the cached mapping table, and the victim policy
// when it carries state (ClonablePolicy). The big tables (mapping,
// owners, dedup entries, fingerprint slots, reverse-map arena, cmt page
// table) copy only the chunks f dirtied since it last equaled src when
// tracked, and everything when untracked (a zero FTL included); the
// rest is small and always copied.
func (f *FTL) CopyDirty(src *FTL, dev *flash.Device) int {
	f.dev = dev
	prevPolicy := f.opts.Policy
	f.opts = src.opts
	if cp, ok := src.opts.Policy.(ClonablePolicy); ok {
		// Stateful policies are part of the warm state: reuse f's
		// instance in place when the concrete types match (the common
		// case — one policy kind per snapshot), otherwise clone fresh.
		sp, sok := src.opts.Policy.(*RandomPolicy)
		dp, dok := prevPolicy.(*RandomPolicy)
		if sok && dok {
			*dp = *sp
			f.opts.Policy = dp
		} else {
			f.opts.Policy = cp.ClonePolicy()
		}
	}
	f.geo = src.geo
	f.dies = src.dies
	f.gcFreeOK = src.gcFreeOK
	if f.idx == nil {
		f.idx = new(dedup.Index)
	}
	n := f.idx.CopyDirty(src.idx)
	n += cow.CopySlice(f.cowMap, &f.mapping, src.mapping)
	f.cowMap.Reset()
	n += cow.CopySlice(f.cowOwn, &f.owners, src.owners)
	f.cowOwn.Reset()
	n += f.rev.copyDirty(&src.rev)
	n += cow.CopyAll(&f.blocks, src.blocks)
	if len(f.freeByDie) != len(src.freeByDie) {
		f.freeByDie = make([][]flash.BlockID, len(src.freeByDie))
	}
	for i, l := range src.freeByDie {
		n += cow.CopyAll(&f.freeByDie[i], l)
	}
	f.freeCount = src.freeCount
	f.hotRR = src.hotRR
	f.coldOpen = src.coldOpen
	f.hasCold = src.hasCold
	n += cow.CopyAll(&f.hotOpen, src.hotOpen)
	n += cow.CopyAll(&f.hasHot, src.hasHot)
	n += cow.CopyAll(&f.gcEligible, src.gcEligible)
	n += f.vix.copyFrom(&src.vix)
	// candScratch is rebuilt on every GC invocation and carries no live
	// data across calls: f keeps its own buffer (a zero FTL has none).
	f.inGC = src.inGC
	f.gcBusyUntil = src.gcBusyUntil
	f.gcHashEnd = src.gcHashEnd
	if src.cmt == nil {
		f.cmt = nil
	} else {
		if f.cmt == nil {
			f.cmt = new(cmt)
		}
		n += f.cmt.copyDirty(src.cmt)
	}
	f.stats = src.stats
	f.tr = src.tr
	f.RefDist = src.RefDist
	f.logicalPages = src.logicalPages
	return n
}
