package ftl

import (
	"testing"

	"cagc/internal/dedup"
	"cagc/internal/event"
	"cagc/internal/flash"
)

func benchFTL(b *testing.B, cfg flash.Config, util float64, opts Options) *FTL {
	b.Helper()
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := New(dev, uint64(float64(cfg.UserPages())*util), opts)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// smallBenchConfig is an 8,192-page device: every table fits in L2.
func smallBenchConfig() flash.Config {
	return flash.Config{
		Geometry: flash.Geometry{
			Channels: 4, DiesPerChan: 2, PlanesPerDie: 1,
			BlocksPerPlan: 16, PagesPerBlock: 64, PageSize: 4096,
		},
		Latencies:     flash.TableILatencies(),
		OverProvision: 0.07,
	}
}

// benchWrites measures sustained FTL write throughput including GC,
// continuing from virtual time now.
func benchWrites(b *testing.B, f *FTL, pool uint64, now event.Time) {
	logical := f.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := uint64(i*2654435761) % logical
		fp := dedup.OfUint64(uint64(i) % pool)
		end, err := f.Write(now, lpn, fp)
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
}

func benchWritesSmall(b *testing.B, opts Options, pool uint64) {
	benchWrites(b, benchFTL(b, smallBenchConfig(), 0.70, opts), pool, 0)
}

// benchWrites1GiB runs the same write loop on replay-1g's device (a
// 1 GiB Table-I device at 0.55 utilization), whose ~12 MB of page
// metadata does not fit in cache, so it shows what a change in
// footprint costs or saves. Every LPN is mapped once before timing, so
// the timed writes are overwrites that drive GC from the first one.
func benchWrites1GiB(b *testing.B, opts Options, pool uint64) {
	f := benchFTL(b, flash.ScaledConfig(1<<30), 0.55, opts)
	now := event.Time(0)
	for lpn := range f.LogicalPages() {
		end, err := f.Write(now, lpn, dedup.OfUint64(lpn%pool))
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
	benchWrites(b, f, pool, now)
}

func BenchmarkFTLWriteBaseline(b *testing.B) { benchWritesSmall(b, BaselineOptions(), 1<<62) }
func BenchmarkFTLWriteCAGC(b *testing.B)     { benchWritesSmall(b, CAGCOptions(), 256) }
func BenchmarkFTLWriteInline(b *testing.B)   { benchWritesSmall(b, InlineDedupeOptions(), 256) }

func BenchmarkFTLWriteBaseline1GiB(b *testing.B) { benchWrites1GiB(b, BaselineOptions(), 1<<62) }
func BenchmarkFTLWriteCAGC1GiB(b *testing.B)     { benchWrites1GiB(b, CAGCOptions(), 256) }
