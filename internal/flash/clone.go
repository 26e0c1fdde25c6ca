package flash

import (
	"unsafe"

	"cagc/internal/cow"
	"cagc/internal/event"
)

// Clone returns a deep, independent copy of the device: page states and
// tags, per-die timelines, the hash-engine pool, and every counter.
// Mutating either device never affects the other, and a cloned device
// replays the exact operation stream a cold device in the same state
// would — warm-state snapshots depend on that. The copy is untracked.
func (d *Device) Clone() *Device {
	c := new(Device)
	c.CopyDirty(d)
	return c
}

// EnableCOW turns on per-block divergence tracking so CopyDirty can
// re-seed this device from its snapshot master by copying only the
// blocks a run touched. Idempotent. Clone never inherits tracking, so
// cold runs pay only nil-checks at the mark sites.
func (d *Device) EnableCOW() {
	if d.track == nil {
		d.track = cow.NewTracker(0) // chunk = one block
	}
}

// MarkAllCOW forces the next CopyDirty onto the full-copy path — the
// differential reference for the dirty-vs-full fuzz tests.
func (d *Device) MarkAllCOW() { d.track.MarkAll() }

// blockBytes is the per-block re-seed cost CopyDirty accounts: the
// block's page-state and OOB-tag runs plus its counter header.
func (d *Device) blockBytes() int {
	ppb := d.cfg.Geometry.PagesPerBlock
	return ppb*int(unsafe.Sizeof(PageState(0))) + ppb*8 + int(unsafe.Sizeof(Block{}))
}

// CopyDirty makes d an exact copy of src, reusing d's allocations, and
// returns the bytes copied. A tracked device copies only the blocks it
// dirtied since it last equaled src; an untracked, all-dirty, or
// differently shaped one (a zero Device included) copies every block.
// The small always-copied state (die timelines, hash pool, counters)
// is refreshed unconditionally and counted. d keeps its own tracker,
// reset: d equals src everywhere again.
func (d *Device) CopyDirty(src *Device) int {
	if len(d.blocks) != len(src.blocks) || len(d.states) != len(src.states) {
		d.track.MarkAll() // no block of d lines up with src
	}
	n := 0
	if d.track.All() {
		d.blocks = append(d.blocks[:0], src.blocks...)
		d.states = append(d.states[:0], src.states...)
		d.tags = append(d.tags[:0], src.tags...)
		n = len(src.blocks) * src.blockBytes()
	} else {
		d.track.Chunks(func(i int) {
			d.blocks[i] = src.blocks[i]
			lo, hi := src.cfg.Geometry.pageRun(BlockID(i))
			copy(d.states[lo:hi], src.states[lo:hi])
			copy(d.tags[lo:hi], src.tags[lo:hi])
			n += src.blockBytes()
		})
	}
	d.track.Reset()
	return n + d.smallStateBytes(src)
}

// smallStateBytes refreshes the always-copied (non-chunked) device
// state from src and returns its copy cost: per-die timelines, the
// hash-engine pool, per-die counters, and the scalar header. These are
// tiny next to the block arrays, which is why chunking ignores them.
func (d *Device) smallStateBytes(src *Device) int {
	if len(d.dies) != len(src.dies) {
		d.dies = make([]*event.Timeline, len(src.dies))
		for i := range d.dies {
			d.dies[i] = event.NewTimeline()
		}
	}
	for i, tl := range src.dies {
		*d.dies[i] = *tl
	}
	if d.hash == nil {
		d.hash = new(event.Pool)
	}
	d.hash.CopyFrom(src.hash)
	n := cow.CopyAll(&d.dieOps, src.dieOps)
	d.cfg = src.cfg
	d.stats = src.stats
	d.totalPages = src.totalPages
	d.tr = src.tr
	d.now = src.now
	return n + len(src.dies)*16 + int(unsafe.Sizeof(Device{}))
}
