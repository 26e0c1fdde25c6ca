package cagc

import (
	"runtime"
	"testing"
)

// TestRunRejectsUnrepresentableDevice checks that a device too large for
// the 32-bit page fields is refused before any per-page table is built:
// a 64 TiB request must fail while allocating well under 1 MiB, not
// after allocating O(pages).
func TestRunRejectsUnrepresentableDevice(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(Mail, CAGC, "greedy", Params{DeviceBytes: 1 << 46, Requests: 100})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("64 TiB device accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the device allocated %d bytes, want < 1 MiB", grew)
	}
	t.Logf("rejected after %d bytes: %v", after.TotalAlloc-before.TotalAlloc, err)
}
