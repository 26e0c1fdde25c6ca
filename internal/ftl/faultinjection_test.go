package ftl

import (
	"errors"
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/flash"
)

// Fault injection: the integrity checkers (CheckInvariants and the
// read-path tag comparison) are only trustworthy if they actually fire
// on corrupted state. Each test corrupts one structure and asserts the
// corresponding detector trips.

func corruptedFTL(t *testing.T) *FTL {
	t.Helper()
	f := newFTL(t, CAGCOptions())
	churn(t, f, int(f.LogicalPages())*2, 64, 99)
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("pre-corruption state already broken: %v", err)
	}
	return f
}

// firstMapped returns a mapped LPN and its CID.
func firstMapped(t *testing.T, f *FTL) (uint64, dedup.CID) {
	t.Helper()
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if c := f.mapping[lpn]; c != dedup.NilCID {
			return lpn, c
		}
	}
	t.Fatal("nothing mapped")
	return 0, dedup.NilCID
}

func TestDetectDanglingMapping(t *testing.T) {
	f := corruptedFTL(t)
	lpn, _ := firstMapped(t, f)
	f.mapping[lpn] = dedup.CID(1 << 30) // points nowhere
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("dangling mapping not detected")
	}
	if _, err := f.Read(1<<40, lpn); err == nil {
		t.Fatal("read through dangling mapping succeeded")
	}
}

func TestDetectOwnerMismatch(t *testing.T) {
	f := corruptedFTL(t)
	_, c := firstMapped(t, f)
	ppn, err := f.idx.PPN(c)
	if err != nil {
		t.Fatal(err)
	}
	f.owners[ppn] = dedup.NilCID // orphan the valid page
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("orphaned valid page not detected")
	}
}

// A CID pointing past the device must be reported, not index out of
// range.
func TestDetectOutOfRangePPN(t *testing.T) {
	f := corruptedFTL(t)
	_, c := firstMapped(t, f)
	if err := f.idx.SetPPN(c, flash.PPN(f.Device().Geometry().TotalPages())); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("out-of-range ppn not detected")
	}
}

func TestDetectContentMismatch(t *testing.T) {
	f := corruptedFTL(t)
	lpn, c := firstMapped(t, f)
	// Repoint the content at some other valid page (wrong data).
	ppn, err := f.idx.PPN(c)
	if err != nil {
		t.Fatal(err)
	}
	otherPPN := ppn
	for p := range f.owners {
		if f.owners[p] != dedup.NilCID && f.owners[p] != c {
			otherPPN = flash.PPN(p)
			break
		}
	}
	if otherPPN == ppn {
		t.Skip("only one content on device")
	}
	if err := f.idx.SetPPN(c, otherPPN); err != nil {
		t.Fatal(err)
	}
	// The read path compares the stored tag with the fingerprint.
	if _, err := f.Read(1<<40, lpn); !errors.Is(err, ErrCorruption) {
		t.Fatalf("content mismatch read err = %v, want ErrCorruption", err)
	}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("repointed content not detected")
	}
}

func TestDetectFreeCountSkew(t *testing.T) {
	f := corruptedFTL(t)
	f.freeCount++
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("free-count skew not detected")
	}
}

func TestDetectStolenBlockState(t *testing.T) {
	f := corruptedFTL(t)
	// Claim a closed block is free without erasing it.
	for b := range f.blocks {
		if f.blocks[b].state == blkClosed {
			f.blocks[b].state = blkFree
			break
		}
	}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("fake-free block not detected")
	}
}

func TestDetectVictimIndexSkew(t *testing.T) {
	corruptions := map[string]func(x *victimIndex, b flash.BlockID){
		"stale bucket": func(x *victimIndex, b flash.BlockID) {
			k := int(x.bucket[b])
			x.clear(b)
			if k > 1 {
				k--
			} else {
				k++
			}
			x.set(b, k)
		},
		"stray row bit": func(x *victimIndex, b flash.BlockID) {
			k := int(x.bucket[b]) % len(x.pop) // some other row
			x.rows[k*x.words+int(b>>6)] |= 1 << (uint(b) & 63)
			x.pop[k]++
		},
		"population skew": func(x *victimIndex, b flash.BlockID) {
			x.pop[x.bucket[b]-1]++
		},
	}
	for name, corrupt := range corruptions {
		f := corruptedFTL(t)
		v, ok := f.greedyVictim()
		if !ok {
			t.Fatal("no eligible block")
		}
		corrupt(&f.vix, v)
		if err := f.CheckInvariants(); err == nil {
			t.Fatalf("%s not detected", name)
		}
	}
}
