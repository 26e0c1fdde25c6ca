package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceOpen feeds arbitrary bytes to Open — gzip detection, format
// sniffing, the binary codec, and the text and FIU parsers — and drains
// the source. It must never panic, and must end either in a reported
// error or with requests whose binary re-encoding decodes back to the
// same requests: a decoder that accepts a stream the binary container
// cannot carry (a backwards arrival, an oversized request) would make
// `cagctrace convert` fail on input that replays fine. The seed corpus
// in testdata/fuzz/FuzzTraceOpen holds the codec error cases plus a
// short generated trace in each format.
func FuzzTraceOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := Open(bytes.NewReader(data), OpenOptions{})
		if err != nil {
			return
		}
		reqs := Collect(src)
		if SourceErr(src) != nil {
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if err := w.Write(r); err != nil {
				t.Fatalf("request %d %+v decoded cleanly but does not re-encode: %v", i, r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := Open(&buf, OpenOptions{})
		if err != nil {
			t.Fatalf("re-encoded trace does not open: %v", err)
		}
		got := Collect(back)
		if err := SourceErr(back); err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, reqs) {
			t.Fatalf("re-encoding changed the requests:\n%+v\nbecame\n%+v", reqs, got)
		}
	})
}
