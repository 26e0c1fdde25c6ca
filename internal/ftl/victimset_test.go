package ftl

import (
	"math/rand"
	"reflect"
	"testing"

	"cagc/internal/event"
	"cagc/internal/flash"
)

// checkedPolicy wraps a victim policy and, at every GC trigger, demands
// that the victim index's greedy pick equals GreedyPolicy.Select over
// the full candidate list. It then defers to the wrapped policy, so the
// check rides along any GC trajectory. Being a distinct type it also
// routes selection through the candidate path, which is what makes the
// comparison independent.
type checkedPolicy struct {
	t     *testing.T
	f     *FTL
	inner VictimPolicy
	picks int
}

func (p *checkedPolicy) Name() string { return p.inner.Name() }

func (p *checkedPolicy) Select(now event.Time, cands []Candidate) flash.BlockID {
	p.t.Helper()
	want := GreedyPolicy{}.Select(now, cands)
	got, ok := p.f.greedyVictim()
	if !ok || got != want {
		p.t.Fatalf("pick %d: indexed greedy = %d (ok=%v), GreedyPolicy.Select = %d over %d candidates",
			p.picks, got, ok, want, len(cands))
	}
	p.picks++
	return p.inner.Select(now, cands)
}

// checkOn installs a fresh checkedPolicy bound to f around inner.
func checkOn(t *testing.T, f *FTL, inner VictimPolicy) *checkedPolicy {
	if cp, ok := inner.(ClonablePolicy); ok {
		inner = cp.ClonePolicy()
	}
	p := &checkedPolicy{t: t, f: f, inner: inner}
	f.opts.Policy = p
	return p
}

// drive applies a seeded mix of writes drawn from a content pool the
// size of the address space (duplicates for the dedup schemes, yet
// enough unique content to fill the device), trims, idle-GC windows,
// and the occasional forced GC, auditing the victim set now and then.
func drive(t *testing.T, f *FTL, ops int, seed int64, now event.Time) event.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	logical := int64(f.LogicalPages())
	for i := 0; i < ops; i++ {
		lpn := uint64(rng.Int63n(logical))
		var err error
		switch r := rng.Intn(100); {
		case r < 8:
			_, err = f.Trim(now, lpn)
		case r < 10:
			err = f.IdleGC(now, now+5*event.Millisecond, 0.5)
		case r == 10 && i%7 == 0:
			err = f.ForceGC(now)
		default:
			var end event.Time
			end, err = f.Write(now, lpn, fpOf(uint64(rng.Int63n(logical))))
			if err == nil {
				now = end
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%211 == 0 {
			if err := f.checkEligibleSet(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return now
}

func policyMatrix() []VictimPolicy {
	return []VictimPolicy{GreedyPolicy{}, NewRandomPolicy(7), CostBenefitPolicy{}}
}

func schemeMatrix() []Options {
	return []Options{BaselineOptions(), InlineDedupeOptions(), CAGCOptions()}
}

// TestGreedyIndexDifferential checks the indexed greedy pick against
// GreedyPolicy.Select at every GC trigger across the scheme × policy
// matrix, and again on FTLs re-seeded through Clone, an untracked
// CopyDirty, and a tracked CopyDirty — each must carry an index that
// keeps agreeing as it runs on.
func TestGreedyIndexDifferential(t *testing.T) {
	for _, opts := range schemeMatrix() {
		for _, pol := range policyMatrix() {
			t.Run(opts.SchemeName()+"/"+pol.Name(), func(t *testing.T) {
				f := newFTL(t, opts)
				master := checkOn(t, f, pol)
				n := int(f.LogicalPages()) * 6
				now := drive(t, f, n, 1, 0)
				if master.picks == 0 {
					t.Fatal("no GC trigger reached the policy")
				}

				// Clone: an independent copy of the index.
				c := f.Clone(f.Device().Clone())
				sameVictim(t, "clone", f, c)
				checkOn(t, c, pol)
				drive(t, c, n/2, 2, now)
				if err := f.checkEligibleSet(); err != nil {
					t.Fatalf("master after clone ran on: %v", err)
				}

				// Untracked CopyDirty (a full copy) onto an FTL with
				// diverged state.
				g := newFTL(t, opts)
				checkOn(t, g, pol)
				drive(t, g, n/2, 3, 0)
				g.Device().CopyDirty(f.Device())
				g.CopyDirty(f, g.Device())
				sameVictim(t, "untracked CopyDirty", f, g)
				checkOn(t, g, pol)
				drive(t, g, n/2, 4, now)

				// CopyDirty back onto a tracked clone after it diverged.
				h := f.Clone(f.Device().Clone())
				h.Device().EnableCOW()
				h.EnableCOW()
				checkOn(t, h, pol)
				drive(t, h, n/2, 5, now)
				h.Device().CopyDirty(f.Device())
				h.CopyDirty(f, h.Device())
				sameVictim(t, "CopyDirty", f, h)
				checkOn(t, h, pol)
				drive(t, h, n/2, 6, now)
			})
		}
	}
}

// sameVictim requires a re-seeded FTL to hold the master's index.
func sameVictim(t *testing.T, how string, master, copy *FTL) {
	t.Helper()
	if err := copy.checkEligibleSet(); err != nil {
		t.Fatalf("%s: %v", how, err)
	}
	if !reflect.DeepEqual(master.vix, copy.vix) {
		t.Fatalf("%s: victim index differs from the master's", how)
	}
	mv, mok := master.greedyVictim()
	cv, cok := copy.greedyVictim()
	if mv != cv || mok != cok {
		t.Fatalf("%s: greedy pick %d/%v, master %d/%v", how, cv, cok, mv, mok)
	}
}

// scanGreedy is GreedyPolicy behind a distinct type, so selection takes
// the candidate-list path instead of the victim index.
type scanGreedy struct{}

func (scanGreedy) Name() string { return "greedy" }
func (scanGreedy) Select(now event.Time, cands []Candidate) flash.BlockID {
	return GreedyPolicy{}.Select(now, cands)
}

// TestGreedyIndexMatchesScanEndToEnd runs the same operation stream
// with the indexed GreedyPolicy and with the candidate-scan greedy and
// requires identical counters and per-block wear.
func TestGreedyIndexMatchesScanEndToEnd(t *testing.T) {
	for _, opts := range schemeMatrix() {
		indexed, scanned := opts, opts
		indexed.Policy, scanned.Policy = GreedyPolicy{}, scanGreedy{}
		a, b := newFTL(t, indexed), newFTL(t, scanned)
		n := int(a.LogicalPages()) * 3
		drive(t, a, n, 11, 0)
		drive(t, b, n, 11, 0)
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: stats differ:\nindexed %+v\nscan    %+v", opts.SchemeName(), a.Stats(), b.Stats())
		}
		for blk := range a.blocks {
			x, _ := a.Device().Block(flash.BlockID(blk))
			y, _ := b.Device().Block(flash.BlockID(blk))
			if x.Erases() != y.Erases() || x.Invalid() != y.Invalid() {
				t.Fatalf("%s: block %d wear/invalid differ", opts.SchemeName(), blk)
			}
		}
	}
}

// Victim selection must not allocate once warm, on the indexed greedy
// path and on the candidate path alike.
func TestSelectVictimZeroAlloc(t *testing.T) {
	for _, pol := range policyMatrix() {
		opts := BaselineOptions()
		opts.Policy = pol
		f := newFTL(t, opts)
		churn(t, f, int(f.LogicalPages())*2, 1<<60, 31)
		if _, ok := f.selectVictim(0); !ok {
			t.Fatalf("%s: churn left no victim", pol.Name())
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := f.selectVictim(0); !ok {
				t.Fatal("no victim")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: selectVictim allocated %.1f objects/op, want 0", pol.Name(), allocs)
		}
	}
}

// Invalid counts above 255 fit the victim index's buckets: greedy on
// 256-page blocks agrees with GreedyPolicy.Select at every trigger. A
// geometry past the bucket's range is rejected up front.
func TestVictimIndexLargeBlocks(t *testing.T) {
	cfg := flash.Config{
		Geometry: flash.Geometry{
			Channels: 1, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 256, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.07,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.7), BaselineOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := checkOn(t, f, GreedyPolicy{})
	drive(t, f, int(f.LogicalPages())*3, 5, 0)
	if p.picks == 0 {
		t.Fatal("no GC trigger reached the policy")
	}

	cfg.Geometry.BlocksPerPlan, cfg.Geometry.PagesPerBlock = 4, 1<<16
	if dev, err = flash.NewDevice(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, 1024, BaselineOptions()); err == nil {
		t.Fatal("New accepted 65536-page blocks")
	}
}

// BenchmarkGCSelect measures one greedy victim pick on a 1 GiB device
// after random overwrites have spread invalid pages over thousands of
// eligible blocks: the victim index against the candidate scan it
// replaces.
func BenchmarkGCSelect(b *testing.B) {
	cfg := flash.ScaledConfig(1 << 30)
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*0.7), BaselineOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	logical := int64(f.LogicalPages())
	now := event.Time(0)
	for i := int64(0); i < logical*2; i++ {
		end, err := f.Write(now, uint64(rng.Int63n(logical)), fpOf(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
	eligible := len(f.victimCandidates())
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.selectVictim(now)
		}
		b.ReportMetric(float64(eligible), "eligible")
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GreedyPolicy{}.Select(now, f.victimCandidates())
		}
		b.ReportMetric(float64(eligible), "eligible")
	})
}
