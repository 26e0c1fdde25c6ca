package ftl

import (
	"fmt"
	"math/bits"

	"cagc/internal/cow"
	"cagc/internal/event"
	"cagc/internal/flash"
	"cagc/internal/obs"
)

// Incremental GC-eligible set. Both GC surveys we track (Nagel et al.;
// Dayan & Bonnet) stress that victim selection must not cost O(device):
// instead of rescanning every block on each watermark trigger, the FTL
// keeps a bitmap of blocks that are closed with at least one invalid
// page, updated on the four transitions that can change eligibility:
//
//	close    (closeIfFull / frontier repair) — set if invalid > 0
//	invalidate (invalidatePage)              — set if the block is closed
//	erase    (pushFree)                      — clear
//	retire   (bad-block path in collect)     — clear
//
// A bitmap rather than a dense list keeps candidate enumeration in
// ascending block order — the same order the old full scan produced —
// which the seeded RandomPolicy and the policies' tie-breaks depend on
// for bit-identical simulation results.
//
// The same four transitions maintain a victim index that buckets the
// eligible blocks by invalid-page count (see victimIndex), so the
// greedy policy reads its answer off the highest non-empty bucket
// instead of building a candidate list of every eligible block.

// victimIndex buckets the GC-eligible blocks by invalid-page count:
// row k-1 is a block bitmap of the eligible blocks holding exactly k
// invalid pages (k = 1..PagesPerBlock), bucket[b] is block b's count k
// while it is eligible (0 otherwise), and pop counts each row's members
// so selection skips empty rows without touching their words.
// An invalidation moves a block from row k-1 to row k; close inserts,
// erase and retire remove.
//
// Greedy selection scans only the highest non-empty row, in ascending
// block order, keeping the first block with the fewest erases — the
// exact order GreedyPolicy.Select yields over the ascending candidate
// list, so the pick is the same block.
type victimIndex struct {
	words  int      // bitmap words per row
	rows   []uint64 // PagesPerBlock rows of words each
	bucket []uint16 // per block: invalid count while eligible, else 0
	pop    []uint32 // per row: member count
}

// newVictimIndex returns an empty index for blocks blocks of ppb pages
// (ppb <= math.MaxUint16, which New enforces).
func newVictimIndex(blocks, ppb int) victimIndex {
	words := (blocks + 63) / 64
	return victimIndex{
		words:  words,
		rows:   make([]uint64, ppb*words),
		bucket: make([]uint16, blocks),
		pop:    make([]uint32, ppb),
	}
}

// set files block b under invalid count k (k >= 1), leaving its
// previous row.
func (x *victimIndex) set(b flash.BlockID, k int) {
	x.clear(b)
	x.bucket[b] = uint16(k)
	x.rows[(k-1)*x.words+int(b>>6)] |= 1 << (uint(b) & 63)
	x.pop[k-1]++
}

// clear removes block b from the index (a no-op when it is absent).
func (x *victimIndex) clear(b flash.BlockID) {
	k := int(x.bucket[b])
	if k == 0 {
		return
	}
	x.bucket[b] = 0
	x.rows[(k-1)*x.words+int(b>>6)] &^= 1 << (uint(b) & 63)
	x.pop[k-1]--
}

// copyFrom makes x an exact copy of src, reusing x's buffers, and
// returns the bytes copied (the re-seed accounting of cow.CopyAll).
func (x *victimIndex) copyFrom(src *victimIndex) int {
	x.words = src.words
	return cow.CopyAll(&x.rows, src.rows) +
		cow.CopyAll(&x.bucket, src.bucket) +
		cow.CopyAll(&x.pop, src.pop)
}

// markEligible records block b as a GC victim candidate holding the
// given number of invalid pages.
func (f *FTL) markEligible(b flash.BlockID, invalid int) {
	f.gcEligible[b>>6] |= 1 << (uint(b) & 63)
	f.vix.set(b, invalid)
}

// clearEligible removes block b from the victim set.
func (f *FTL) clearEligible(b flash.BlockID) {
	f.gcEligible[b>>6] &^= 1 << (uint(b) & 63)
	f.vix.clear(b)
}

// invalidatePage marks ppn invalid on the device and keeps the victim
// set current: an invalidation in a closed block makes it (or keeps it)
// eligible, one bucket higher in the victim index.
func (f *FTL) invalidatePage(ppn flash.PPN) error {
	if err := f.dev.Invalidate(ppn); err != nil {
		return err
	}
	b := f.geo.BlockOf(ppn)
	if f.blocks[b].state == blkClosed {
		blk, err := f.dev.Block(b)
		if err != nil {
			return err
		}
		f.markEligible(b, blk.Invalid())
	}
	return nil
}

// selectVictim picks the next GC victim with the configured policy, or
// reports ok=false when no block is reclaimable. The greedy policy
// reads the victim index; every other policy sees the full candidate
// list. It is the single selection point behind maybeGC, IdleGC, and
// ForceGC.
func (f *FTL) selectVictim(now event.Time) (victim flash.BlockID, ok bool) {
	if _, greedy := f.opts.Policy.(GreedyPolicy); greedy {
		victim, ok = f.greedyVictim()
	} else if cands := f.victimCandidates(); len(cands) > 0 {
		victim, ok = f.opts.Policy.Select(now, cands), true
	}
	if ok {
		f.tr.Instant(obs.TrackGC, obs.KGCSelect, now, uint64(victim))
	}
	return victim, ok
}

// greedyVictim returns the eligible block with the most invalid pages,
// then the fewest erases, then the lowest id — GreedyPolicy's order —
// from the highest non-empty row of the victim index.
func (f *FTL) greedyVictim() (flash.BlockID, bool) {
	x := &f.vix
	k := len(x.pop)
	for k > 0 && x.pop[k-1] == 0 {
		k--
	}
	if k == 0 {
		return 0, false
	}
	var best flash.BlockID
	bestErases := -1
	row := x.rows[(k-1)*x.words : k*x.words]
	for w, word := range row {
		base := flash.BlockID(w * 64)
		for word != 0 {
			b := base + flash.BlockID(bits.TrailingZeros64(word))
			word &= word - 1
			blk, err := f.dev.Block(b)
			if err != nil {
				panic(fmt.Sprintf("ftl: victim index holds unreachable block %d: %v", b, err))
			}
			if e := blk.Erases(); bestErases < 0 || e < bestErases {
				best, bestErases = b, e
			}
		}
	}
	return best, true
}

// checkEligibleSet verifies the bitmap and the victim index against the
// ground-truth predicate (closed with invalid pages); CheckInvariants
// calls it. It costs O(blocks + rows×words): each block's bucket is
// checked against its invalid count and its row bit, and each row's
// population against a popcount, which together rule out stray bits.
func (f *FTL) checkEligibleSet() error {
	x := &f.vix
	members := 0
	for b := range f.blocks {
		blk, err := f.dev.Block(flash.BlockID(b))
		if err != nil {
			return err
		}
		want := f.blocks[b].state == blkClosed && blk.Invalid() > 0
		got := f.gcEligible[b>>6]&(1<<(uint(b)&63)) != 0
		if want != got {
			return fmt.Errorf("victim set: block %d eligible=%v, want %v (state=%d invalid=%d)",
				b, got, want, f.blocks[b].state, blk.Invalid())
		}
		k, wantK := int(x.bucket[b]), 0
		if want {
			wantK = blk.Invalid()
			members++
		}
		if k != wantK {
			return fmt.Errorf("victim index: block %d in bucket %d, want %d", b, k, wantK)
		}
		if k > 0 && x.rows[(k-1)*x.words+b>>6]&(1<<(uint(b)&63)) == 0 {
			return fmt.Errorf("victim index: block %d missing from row %d", b, k)
		}
	}
	bitsSet := 0
	for k := range x.pop {
		n := 0
		for _, word := range x.rows[k*x.words : (k+1)*x.words] {
			n += bits.OnesCount64(word)
		}
		if uint32(n) != x.pop[k] {
			return fmt.Errorf("victim index: row %d holds %d blocks, population says %d", k+1, n, x.pop[k])
		}
		bitsSet += n
	}
	if bitsSet != members {
		return fmt.Errorf("victim index: %d row bits for %d eligible blocks", bitsSet, members)
	}
	return nil
}
