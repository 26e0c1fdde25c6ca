package trace

import (
	"strings"
	"testing"
)

const fiuSample = `# FIU iodedup sample
1000000000 1234 httpd 500 1 W 8 1 0123456789abcdef0123456789abcdef
1000500000 1234 httpd 501 1 W 8 1 0123456789abcdef0123456789abcdef
1001000000 1234 httpd 500 1 R 8 1 0123456789abcdef0123456789abcdef
1002000000 99 kjournald 900 2 W 8 1 fedcba9876543210fedcba9876543210
`

func TestFIUReaderParsesSample(t *testing.T) {
	fr := NewFIUReader(strings.NewReader(fiuSample), 1)
	got := Collect(fr)
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d records, want 4", len(got))
	}
	// Timestamps rebased to zero.
	if got[0].At != 0 {
		t.Fatalf("first arrival = %v, want 0", got[0].At)
	}
	if got[1].At != 500000 {
		t.Fatalf("second arrival = %v", got[1].At)
	}
	// Ops and geometry.
	if got[0].Op != OpWrite || got[0].LPN != 500 || got[0].Pages != 1 {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[2].Op != OpRead || len(got[2].FPs) != 0 {
		t.Fatalf("record 2: %+v", got[2])
	}
	// Identical MD5s give identical fingerprints; different differ.
	if got[0].FPs[0] != got[1].FPs[0] {
		t.Fatal("same content hashed differently")
	}
	if got[0].FPs[0] == got[3].FPs[0] {
		t.Fatal("different content collided")
	}
	// Multi-block write replicates the hash.
	if got[3].Pages != 2 || got[3].FPs[0] != got[3].FPs[1] {
		t.Fatalf("record 3: %+v", got[3])
	}
	// Every record validates.
	for i, r := range got {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
	}
}

func TestFIUReaderTimeScale(t *testing.T) {
	fr := NewFIUReader(strings.NewReader(fiuSample), 0.5)
	got := Collect(fr)
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if got[1].At != 250000 {
		t.Fatalf("scaled arrival = %v, want 250000", got[1].At)
	}
	// Zero scale means real time.
	fr = NewFIUReader(strings.NewReader(fiuSample), 0)
	got = Collect(fr)
	if got[1].At != 500000 {
		t.Fatalf("unscaled arrival = %v", got[1].At)
	}
}

// An inverted timestamp rides with the previous arrival, so the stream
// stays nondecreasing (and re-encodes to the binary container).
func TestFIUReaderTimestampInversion(t *testing.T) {
	in := "100 1 p 5 1 R 8 1 x\n50 1 p 6 1 R 8 1 x\n300 1 p 7 1 R 8 1 x\n200 1 p 8 1 R 8 1 x\n"
	fr := NewFIUReader(strings.NewReader(in), 1)
	got := Collect(fr)
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if got[1].At != 0 {
		t.Fatalf("inversion below the first timestamp: %v, want 0", got[1].At)
	}
	if got[3].At != 200 {
		t.Fatalf("inversion after the first timestamp: %v, want the previous arrival 200", got[3].At)
	}
}

func TestFIUReaderErrors(t *testing.T) {
	bad := []string{
		"1 2 p 5 1 W 8 1",                  // write without hash
		"1 2 p 5 1 W 8 1 zz",               // short/garbage hash
		"1 2 p 5 1 W 8 1 zzzzzzzzzzzzzzzz", // non-hex hash
		"x 2 p 5 1 R 8 1 a",                // bad ts
		"1 2 p x 1 R 8 1 a",                // bad block
		"1 2 p 5 0 R 8 1 a",                // bad count
		"1 2 p 5 1 Q 8 1 a",                // bad op
		"1 2 p",                            // too few fields
	}
	for _, line := range bad {
		fr := NewFIUReader(strings.NewReader(line+"\n"), 1)
		if _, ok := fr.Next(); ok {
			t.Errorf("line %q parsed", line)
			continue
		}
		if fr.Err() == nil {
			t.Errorf("line %q: no error", line)
		}
	}
}

func TestFIUReaderShortMD5Accepted(t *testing.T) {
	// 16-hex-char hashes (folded elsewhere) are accepted.
	in := "1 2 p 5 1 W 8 1 0123456789abcdef\n"
	fr := NewFIUReader(strings.NewReader(in), 1)
	got := Collect(fr)
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if len(got) != 1 || got[0].FPs[0] == 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestFIUCharacterize(t *testing.T) {
	fr := NewFIUReader(strings.NewReader(fiuSample), 1)
	c := Characterize(fr, 4096)
	if c.Writes != 3 || c.Reads != 1 {
		t.Fatalf("characteristics: %+v", c)
	}
	// One duplicate written page (the repeated MD5).
	if c.DedupRatio <= 0 {
		t.Fatal("no dedup detected in sample")
	}
}
