package event

import (
	"math/rand"
	"testing"
)

// Differential fuzz: the calendar queue and the reference heap must
// produce the identical (time, seq) firing order under an adversarial
// mix of schedules, cancels, reschedules, and deadline runs — the
// property that makes -sched a pure performance knob with
// byte-identical simulation output.

// fireRec is one fired event: its clock reading and the identity the
// scheduling op assigned.
type fireRec struct {
	at Time
	id uint64
}

// fuzzHarness drives the same op stream into a set of sims. Handlers
// write through the mutable sink pointer rather than into a captured
// per-sim log: every sim shares the one handler closure, so the
// destination must be chosen at fire time, not at capture time.
type fuzzHarness struct {
	sims []*Sim
	logs [][]fireRec
	sink *[]fireRec
	rec  ArgHandler
}

func newFuzzHarness(sims ...*Sim) *fuzzHarness {
	h := &fuzzHarness{sims: sims, logs: make([][]fireRec, len(sims))}
	h.rec = func(now Time, id uint64) {
		*h.sink = append(*h.sink, fireRec{at: now, id: id})
	}
	return h
}

// each runs op against every sim, pointing the sink at that sim's log
// first, and checks all sims report the same result.
func (h *fuzzHarness) each(t *testing.T, step int, what string, op func(s *Sim) uint64) {
	t.Helper()
	var first uint64
	for i, s := range h.sims {
		h.sink = &h.logs[i]
		got := op(s)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("step %d: %s diverged: sim %d (%v) returned %d, sim 0 (%v) returned %d",
				step, what, i, s.Kind(), got, h.sims[0].Kind(), first)
		}
	}
}

func TestSchedDifferentialFuzz(t *testing.T) {
	const (
		seeds = 8
		steps = 20000
	)
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed*7919 + 1))
			// Odd bucket hint exercises non-default rounding; the auto
			// scheduler rides along at its default threshold (the fuzz
			// queue crosses 64 pending, so it escalates and reverts).
			runSchedFuzz(t, rng, steps,
				NewSimOpts(SchedCalendar, 12*Microsecond),
				NewSimOpts(SchedHeap, 0),
				NewSimOpts(SchedAuto, 12*Microsecond),
			)
		})
	}
}

// TestSchedHybridFuzzLowThreshold forces the auto scheduler to
// escalate and revert constantly: with the threshold dropped to 3
// nearly every push migrates between heap and calendar regimes.
// Sequential (not Parallel) because it mutates the package-level
// threshold that concurrent pushes read.
func TestSchedHybridFuzzLowThreshold(t *testing.T) {
	old := hybridThreshold
	hybridThreshold = 3
	defer func() { hybridThreshold = old }()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 3))
		runSchedFuzz(t, rng, 5000,
			NewSimOpts(SchedCalendar, 0),
			NewSimOpts(SchedHeap, 0),
			NewSimOpts(SchedAuto, 0),
		)
	}
}

func runSchedFuzz(t *testing.T, rng *rand.Rand, steps int, sims ...*Sim) {
	h := newFuzzHarness(sims...)
	var handles []Handle
	var nextID uint64

	// delay picks mostly in-window delays with a far-future tail that
	// reaches the overflow ladder (window span is 256 * 16384 ns).
	delay := func() Time {
		switch rng.Intn(10) {
		case 0: // far future: up to ~16 windows out
			return Time(rng.Int63n(64 << 20))
		case 1: // same tick
			return 0
		case 2: // negative, to hit the clamp path
			return -Time(rng.Int63n(1 << 20))
		default: // in-window
			return Time(rng.Int63n(300_000))
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 35: // plain schedule (reusable-handler path)
			d, id := delay(), nextID
			nextID++
			h.each(t, step, "AfterArg", func(s *Sim) uint64 {
				s.AfterArg(d, h.rec, id)
				return uint64(s.Pending())
			})
		case op < 50: // cancelable schedule
			d, id := delay(), nextID
			nextID++
			if d < 0 {
				d = 0
			}
			var got Handle
			h.each(t, step, "ScheduleAtArg", func(s *Sim) uint64 {
				hd, err := s.ScheduleAtArg(s.Now()+d, h.rec, id)
				if err != nil {
					t.Fatalf("step %d: ScheduleAtArg: %v", step, err)
				}
				got = hd
				return uint64(hd.slot)<<32 | uint64(hd.gen)
			})
			handles = append(handles, got)
		case op < 58 && len(handles) > 0: // cancel a random handle
			hd := handles[rng.Intn(len(handles))]
			h.each(t, step, "Cancel", func(s *Sim) uint64 {
				if s.Cancel(hd) {
					return 1
				}
				return 0
			})
		case op < 66 && len(handles) > 0: // reschedule a random handle
			i := rng.Intn(len(handles))
			d := delay() // may be negative: past-reschedule refusal path
			var got Handle
			h.each(t, step, "Reschedule", func(s *Sim) uint64 {
				hd, ok := s.Reschedule(handles[i], s.Now()+d)
				if !ok {
					return 0
				}
				got = hd
				return uint64(hd.slot)<<32 | uint64(hd.gen)
			})
			if got != (Handle{}) {
				handles[i] = got
			}
		case op < 90: // single step
			h.each(t, step, "Step", func(s *Sim) uint64 {
				before := s.Now()
				ok := s.Step()
				if !ok {
					return 1 << 63
				}
				return uint64(s.Now() - before)
			})
		default: // bounded run
			d := Time(rng.Int63n(500_000))
			h.each(t, step, "RunUntil", func(s *Sim) uint64 {
				return uint64(s.RunUntil(s.Now() + d))
			})
		}
	}
	// Drain everything.
	h.each(t, steps, "drain", func(s *Sim) uint64 {
		for s.Step() {
		}
		return uint64(s.Now())
	})

	// All sims agree on the aggregate state.
	a := h.sims[0]
	for i, s := range h.sims[1:] {
		if s.Now() != a.Now() || s.Pending() != a.Pending() {
			t.Fatalf("sim %d final state: now %v pending %d, want %v / %d",
				i+1, s.Now(), s.Pending(), a.Now(), a.Pending())
		}
	}

	// Firing logs: every sim agrees with the first (calendar).
	for i := 1; i < len(h.sims); i++ {
		diffLogs(t, h.sims[i].Kind().String()+" vs "+h.sims[0].Kind().String(),
			h.logs[0], h.logs[i])
	}
	if a.SchedStats().Rotations == 0 {
		t.Error("fuzz never rotated the calendar window; far-future tail too short")
	}
}

func diffLogs(t *testing.T, what string, a, b []fireRec) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: fired %d vs %d events", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}
