// Calendar-queue scheduler. NAND timing is bounded and quantized — every
// event lands a read, program, erase, or hash latency in the future — so
// the event queue's keys cluster inside a window a few erase latencies
// wide. A calendar queue (a hierarchical timer wheel over virtual time)
// exploits that: the near future is an array of power-of-two-width time
// buckets indexed by bit shift, giving O(1) amortized insert and pop,
// and everything beyond the window sits in an overflow ladder (a 4-ary
// min-heap) that migrates into the buckets when the window rotates
// forward. The reference 4-ary heap remains available behind the same
// queue interface (-sched=heap in the CLIs); both produce the identical
// (time, seq) total order, so simulation output is byte-identical
// regardless of scheduler — the differential fuzz test enforces it.
//
// Cancellation is lazy: a handle-carrying event stamps a generation
// number shared with its slot in the Sim's slot table. Cancel and
// Reschedule bump the slot's generation; the queued item stays where it
// is and is recognized as stale — and skipped — when it surfaces at pop
// time. Nothing is ever deleted from the middle of a bucket or heap.
package event

import (
	"fmt"
	"math/bits"
)

// SchedKind selects the event-queue implementation behind Sim.
type SchedKind uint8

const (
	// SchedAuto is the default: a hybrid that runs on the reference
	// 4-ary heap while queue occupancy stays at or below
	// hybridThreshold and escalates to the calendar when the queue gets
	// deep. Shallow replays (open-loop traces keep only a couple of
	// arrivals pending) see pure heap cost; deep ones (closed-loop
	// windows, timer-heavy scenarios) get the calendar's O(1) buckets.
	// The selection is per-queue-state, so one workload can use both
	// regimes in one run. All three kinds pop in the identical
	// (time, seq) order, so output is byte-identical regardless.
	SchedAuto SchedKind = iota
	// SchedCalendar pins the calendar queue: power-of-two time buckets
	// sized from the device latency table, with an overflow ladder for
	// far-future events.
	SchedCalendar
	// SchedHeap pins the reference 4-ary min-heap implementation, kept
	// for differential testing and as the -sched=heap CLI fallback.
	SchedHeap
)

// String returns the CLI name of the scheduler kind.
func (k SchedKind) String() string {
	switch k {
	case SchedAuto:
		return "auto"
	case SchedCalendar:
		return "calendar"
	case SchedHeap:
		return "heap"
	}
	return fmt.Sprintf("SchedKind(%d)", uint8(k))
}

// ParseSched resolves a -sched CLI name. The empty string means the
// default (auto: heap below the occupancy threshold, calendar above).
func ParseSched(name string) (SchedKind, error) {
	switch name {
	case "", "auto":
		return SchedAuto, nil
	case "calendar":
		return SchedCalendar, nil
	case "heap":
		return SchedHeap, nil
	}
	return 0, fmt.Errorf("event: unknown scheduler %q (want auto, calendar, or heap)", name)
}

// SchedStats is a snapshot of scheduler occupancy and lazy-cancel
// activity, for the obs telemetry track and for tests.
type SchedStats struct {
	Kind        SchedKind
	Buckets     int  // calendar bucket count (0 for the heap)
	BucketWidth Time // calendar bucket width (0 for the heap)
	MaxDepth    int  // peak queued events, stale included

	Rotations          uint64 // calendar window rotations
	OverflowMigrations uint64 // items moved ladder -> buckets
	Escalations        uint64 // hybrid heap -> calendar switches (SchedAuto only)
	Cancels            uint64 // Cancel calls that took effect
	Reschedules        uint64 // Reschedule calls that took effect
	StaleSkipped       uint64 // canceled/rescheduled items absorbed at pop
}

// queue is the pluggable priority queue behind Sim. Implementations
// store items verbatim (including stale ones — staleness is the Sim's
// business) and pop them in strict (at, seq) order.
type queue interface {
	// push enqueues it; now is the current clock, the lower bound of
	// every future insert (the calendar re-bases its window on it when
	// empty).
	push(it item, now Time)
	// pop removes and returns the earliest item; ok=false when empty.
	// Stale items are returned like any other — the caller filters.
	pop() (item, bool)
	// peekLive returns the firing time of the earliest item for which
	// stale reports false, without modifying the queue. O(pending) in
	// the worst case; used by RunUntil, never by the replay hot loop.
	peekLive(stale func(*item) bool) (Time, bool)
	// size counts queued items, stale included.
	size() int
	// occupancy returns cumulative rotation/migration counters
	// (zero for the heap).
	occupancy() (rotations, migrations uint64)
}

// heapArity is the fan-out of the heap queues (the reference scheduler
// and the calendar's overflow ladder). 4-ary keeps siblings on one or
// two cache lines and halves the tree depth of a binary heap; the
// (time, seq) order makes the pop sequence identical regardless of
// arity.
const heapArity = 4

// heapPush inserts it with a hole-based sift-up (parents slide down
// into the hole; one final write places the item).
func heapPush(q []item, it item) []item {
	q = append(q, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !it.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	return q
}

// heapPop removes and returns the earliest item.
func heapPop(q []item) ([]item, item) {
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = item{} // release the handler reference
	q = q[:n]
	if n > 0 {
		// Sift last down from the root, sliding the smallest child up
		// into the hole.
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			m := c
			hi := c + heapArity
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return q, top
}

// heapQ is the reference scheduler: one 4-ary min-heap.
type heapQ struct {
	q []item
}

func (h *heapQ) push(it item, _ Time) { h.q = heapPush(h.q, it) }

func (h *heapQ) pop() (item, bool) {
	if len(h.q) == 0 {
		return item{}, false
	}
	var it item
	h.q, it = heapPop(h.q)
	return it, true
}

func (h *heapQ) peekLive(stale func(*item) bool) (Time, bool) {
	// The heap is only partially ordered, so with the root stale the
	// earliest live item can sit anywhere: scan.
	var best *item
	for i := range h.q {
		it := &h.q[i]
		if stale(it) {
			continue
		}
		if best == nil || it.before(best) {
			best = it
		}
	}
	if best == nil {
		return 0, false
	}
	return best.at, true
}

func (h *heapQ) size() int { return len(h.q) }

func (h *heapQ) occupancy() (uint64, uint64) { return 0, 0 }

// hybridThreshold is the occupancy at which the auto scheduler
// escalates from the heap to the calendar. The open-loop replay keeps
// only arrivalLookahead (2) arrivals pending and closed-loop runs keep
// QueueDepth tokens, so anything past a few dozen means a genuinely
// deep queue — timer-heavy scenarios or saturation windows — where the
// calendar's O(1) buckets beat the heap's O(log n) sift (the deep-queue
// microbenchmark puts the crossover far below this). A var, not a
// const, so tests can force escalation with small queues.
var hybridThreshold = 64

// hybridQ is the SchedAuto implementation: a plain 4-ary heap while the
// queue stays at or below hybridThreshold items, escalating to a
// calendar when it grows past it. While escalated, every item lives in
// the calendar (the heap is drained into it in one pass); when the
// calendar runs dry the queue drops back to the heap. Both underlying
// queues pop in strict (at, seq) order and the escalation migration
// preserves every item, so the pop sequence is identical to either pure
// implementation.
type hybridQ struct {
	heap heapQ
	cal  *calendar // lazily built on first escalation, then reused
	deep bool      // true while the calendar holds the queue

	widthHint   Time // bucket sizing for the lazily built calendar
	escalations uint64
}

func (h *hybridQ) push(it item, now Time) {
	if !h.deep && h.heap.size() >= hybridThreshold {
		h.escalate(now)
	}
	if h.deep {
		h.cal.push(it, now)
		return
	}
	h.heap.push(it, now)
}

// escalate drains the heap into the calendar. Heap pops come out in
// (at, seq) order, so calendar inserts hit the append fast path; every
// queued item satisfies at >= now (schedule enforces it and the clock
// only advances to popped times), so re-basing the empty calendar on
// now is safe exactly as in calendar.push.
func (h *hybridQ) escalate(now Time) {
	if h.cal == nil {
		h.cal = newCalendar(h.widthHint)
	}
	for {
		it, ok := h.heap.pop()
		if !ok {
			break
		}
		h.cal.push(it, now)
	}
	h.deep = true
	h.escalations++
}

func (h *hybridQ) pop() (item, bool) {
	if h.deep {
		it, ok := h.cal.pop()
		if h.cal.size() == 0 {
			// Drained: revert to the heap (free — both sides are empty).
			// Escalation only re-arms once the queue rebuilds past the
			// threshold, so a queue oscillating near it cannot thrash.
			h.deep = false
		}
		return it, ok
	}
	return h.heap.pop()
}

func (h *hybridQ) peekLive(stale func(*item) bool) (Time, bool) {
	if h.deep {
		return h.cal.peekLive(stale)
	}
	return h.heap.peekLive(stale)
}

func (h *hybridQ) size() int {
	if h.deep {
		return h.cal.size()
	}
	return h.heap.size()
}

func (h *hybridQ) occupancy() (uint64, uint64) {
	if h.cal != nil {
		return h.cal.occupancy()
	}
	return 0, 0
}

// Calendar shape. 256 buckets of 2^14 ns ≈ 16.4 µs (sized up from the
// Table-I read latency, the smallest device latency that separates
// events) span ≈ 4.2 ms — wider than an erase (1.5 ms), so in steady
// state virtually every device event lands in the bucket array and only
// far-future timers (idle deadlines, closed-loop completions behind a
// long GC stall) take the overflow ladder.
const (
	calBuckets         = 256
	defaultBucketShift = 14
	minBucketShift     = 8  // 256 ns
	maxBucketShift     = 24 // ≈16.8 ms per bucket, ≈4.3 s span
	calSeedCap         = 4  // per-bucket capacity carved from one slab
)

// calendar is the calendar-queue scheduler: a rotating window of
// power-of-two time buckets over [base, base+span), each bucket a slice
// kept sorted by (at, seq), plus a 4-ary heap ladder for items beyond
// the window. Invariants:
//
//   - buckets before cur are empty; bucket cur is consumed from head;
//   - every bucketed item i satisfies (i.at-base)>>shift == its bucket;
//   - every ladder item satisfies at >= base+span;
//   - the window only moves (rotate/re-base) at points where no earlier
//     insert can follow: inside pop, whose returned item bounds the
//     clock, or when the queue is empty.
type calendar struct {
	shift     uint // log2 bucket width
	base      Time // left edge of bucket 0's time range
	cur       int  // bucket cursor
	head      int  // consumed prefix of buckets[cur]
	n         int  // total queued items, stale included
	inBuckets int  // items in the bucket array (rest are in overflow)

	// nonEmpty is a bitmap over buckets — pop finds the next occupied
	// bucket with a masked trailing-zeros scan instead of walking empty
	// slices.
	nonEmpty [calBuckets / 64]uint64
	buckets  [calBuckets][]item

	overflow []item // 4-ary min-heap; the far-future ladder

	rotations  uint64
	migrations uint64
}

// bucketShift rounds a width hint (typically the device's read latency)
// up to a power-of-two shift, clamped to a sane range.
func bucketShift(hint Time) uint {
	if hint <= 0 {
		return defaultBucketShift
	}
	s := uint(bits.Len64(uint64(hint - 1)))
	if s < minBucketShift {
		s = minBucketShift
	}
	if s > maxBucketShift {
		s = maxBucketShift
	}
	return s
}

func newCalendar(widthHint Time) *calendar {
	c := &calendar{shift: bucketShift(widthHint)}
	// Seed every bucket with a small capacity carved from one slab so
	// the first events of a run pay one allocation, not one per bucket.
	slab := make([]item, calBuckets*calSeedCap)
	for i := range c.buckets {
		c.buckets[i] = slab[i*calSeedCap : i*calSeedCap : (i+1)*calSeedCap]
	}
	return c
}

func (c *calendar) width() Time { return Time(1) << c.shift }

func (c *calendar) span() Time { return Time(calBuckets) << c.shift }

func (c *calendar) size() int { return c.n }

func (c *calendar) occupancy() (uint64, uint64) { return c.rotations, c.migrations }

func (c *calendar) push(it item, now Time) {
	if c.n == 0 {
		// Empty queue: re-base the window onto the clock. The clock is
		// the lower bound of every future insert (this one included),
		// so nothing can land before the moved window — re-basing on
		// the item itself would not give that guarantee. This is both
		// the start-of-run case and the fast-forward after a drain.
		c.base = now &^ (c.width() - 1)
		c.cur, c.head = 0, 0
	}
	c.n++
	idx := uint64(it.at-c.base) >> c.shift
	if idx >= calBuckets {
		c.overflow = heapPush(c.overflow, it)
		return
	}
	c.insert(int(idx), it)
}

// insert places it into bucket b, keeping the bucket sorted by
// (at, seq). Since seq is globally increasing, ordering within a bucket
// only needs a search on at: equal-at items are already FIFO.
func (c *calendar) insert(b int, it item) {
	s := c.buckets[b]
	lo := 0
	if b == c.cur {
		lo = c.head
	}
	if j := len(s); j == lo || s[j-1].at <= it.at {
		// Steady state: monotone arrivals append.
		c.buckets[b] = append(s, it)
	} else {
		// Binary search for the first entry firing after it.
		hi := j
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s[mid].at <= it.at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s = append(s, item{})
		copy(s[lo+1:], s[lo:])
		s[lo] = it
		c.buckets[b] = s
	}
	c.inBuckets++
	c.nonEmpty[b>>6] |= 1 << (uint(b) & 63)
}

// nextNonEmpty returns the first occupied bucket at or after from,
// or -1.
func (c *calendar) nextNonEmpty(from int) int {
	w := from >> 6
	mask := ^uint64(0) << (uint(from) & 63)
	for ; w < len(c.nonEmpty); w++ {
		if v := c.nonEmpty[w] & mask; v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
		mask = ^uint64(0)
	}
	return -1
}

func (c *calendar) pop() (item, bool) {
	if c.n == 0 {
		return item{}, false
	}
	if c.inBuckets == 0 {
		// Window drained; everything pending is in the ladder (n > 0
		// guarantees it is non-empty).
		//
		// Sparse fast path: if no other ladder item would fit the
		// window a rotation would build around the head, migrating
		// into buckets is pure round-trip overhead — pop the head
		// straight off the ladder and re-base the window on it, just
		// as rotate would. The runner-up of a heap is the least child
		// of the root, so the guard is at most heapArity compares.
		// This is the steady state of an idle-heavy open-loop replay,
		// where consecutive arrivals sit many windows apart.
		head := c.overflow[0].at
		limit := head&^(c.width()-1) + c.span()
		sparse := true
		for i := 1; i < len(c.overflow) && i <= heapArity; i++ {
			if c.overflow[i].at < limit {
				sparse = false
				break
			}
		}
		if sparse {
			c.rotations++ // the window moved, even without migrations
			var it item
			c.overflow, it = heapPop(c.overflow)
			c.base = it.at &^ (c.width() - 1)
			c.cur, c.head = 0, 0
			c.n--
			return it, true
		}
		c.rotate()
	}
	b := c.nextNonEmpty(c.cur)
	if b != c.cur {
		c.cur, c.head = b, 0
	}
	s := c.buckets[b]
	it := s[c.head]
	s[c.head] = item{} // release the handler reference
	c.head++
	if c.head == len(s) {
		c.buckets[b] = s[:0]
		c.head = 0
		c.nonEmpty[b>>6] &^= 1 << (uint(b) & 63)
	}
	c.n--
	c.inBuckets--
	return it, true
}

// rotate fast-forwards the window to the ladder's earliest item and
// migrates everything that now fits into the buckets. Safe here because
// rotate only runs inside pop: the item pop then returns is at or after
// the new base, so the clock — and with it every later insert — can
// never land before the moved window.
func (c *calendar) rotate() {
	c.rotations++
	c.base = c.overflow[0].at &^ (c.width() - 1)
	c.cur, c.head = 0, 0
	limit := c.base + c.span()
	for len(c.overflow) > 0 && c.overflow[0].at < limit {
		var it item
		c.overflow, it = heapPop(c.overflow)
		// Ladder pops come out in (at, seq) order, so per-bucket
		// inserts hit the append fast path and stay FIFO.
		c.insert(int(uint64(it.at-c.base)>>c.shift), it)
		c.migrations++
	}
}

func (c *calendar) peekLive(stale func(*item) bool) (Time, bool) {
	if c.n == 0 {
		return 0, false
	}
	// Buckets are sorted and bucket ranges are disjoint and increasing,
	// so the first live item found in bucket order is the earliest.
	for b := c.nextNonEmpty(c.cur); b >= 0; b = c.nextNonEmpty(b + 1) {
		s := c.buckets[b]
		lo := 0
		if b == c.cur {
			lo = c.head
		}
		for i := lo; i < len(s); i++ {
			if !stale(&s[i]) {
				return s[i].at, true
			}
		}
	}
	// Ladder items all fire after every bucketed item; partially
	// ordered, so scan.
	var best *item
	for i := range c.overflow {
		it := &c.overflow[i]
		if stale(it) {
			continue
		}
		if best == nil || it.before(best) {
			best = it
		}
	}
	if best == nil {
		return 0, false
	}
	return best.at, true
}

// Handle names one cancelable scheduled event. The zero Handle is
// invalid. A handle dies when its event fires, is canceled, or is
// rescheduled (Reschedule returns the replacement handle).
type Handle struct {
	slot, gen uint32
}

// slot is one entry of the Sim's handle table. The generation stamp is
// the lazy-cancellation mechanism: the queued item carries the
// generation it was scheduled under, and any mismatch at pop time means
// the handle was canceled or rescheduled — the item is stale and is
// skipped. Slots are recycled through a free list; gen survives reuse,
// so stale items can never collide with a later tenant.
type slot struct {
	gen uint32
	fn  Handler
	afn ArgHandler
	arg uint64
}

// allocSlot claims a slot for a new handle-carrying event.
func (s *Sim) allocSlot(fn Handler, afn ArgHandler, arg uint64) uint32 {
	if len(s.slots) == 0 {
		s.slots = append(s.slots, slot{}) // index 0 is "no handle"
	}
	var i uint32
	if n := len(s.freeSlots); n > 0 {
		i = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		i = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[i]
	sl.fn, sl.afn, sl.arg = fn, afn, arg
	return i
}

// freeSlot retires a slot: the generation bump invalidates every
// outstanding handle and queued item stamped with the old generation.
func (s *Sim) freeSlot(i uint32) {
	sl := &s.slots[i]
	sl.gen++
	sl.fn, sl.afn, sl.arg = nil, nil, 0 // release handler references
	s.freeSlots = append(s.freeSlots, i)
}

// itemStale reports whether it was canceled or rescheduled after being
// queued.
func (s *Sim) itemStale(it *item) bool {
	return it.slot != 0 && s.slots[it.slot].gen != it.gen
}

// ScheduleAt is At returning a Handle for later Cancel/Reschedule.
func (s *Sim) ScheduleAt(at Time, fn Handler) (Handle, error) {
	return s.scheduleHandle(at, fn, nil, 0)
}

// ScheduleAtArg is AtArg returning a Handle — the cancelable
// reusable-handler path, still allocation-free in steady state.
func (s *Sim) ScheduleAtArg(at Time, fn ArgHandler, arg uint64) (Handle, error) {
	return s.scheduleHandle(at, nil, fn, arg)
}

func (s *Sim) scheduleHandle(at Time, fn Handler, afn ArgHandler, arg uint64) (Handle, error) {
	if at < s.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	i := s.allocSlot(fn, afn, arg)
	g := s.slots[i].gen
	// at was checked above; schedule cannot fail.
	_ = s.schedule(item{at: at, fn: fn, afn: afn, arg: arg, slot: i, gen: g})
	return Handle{slot: i, gen: g}, nil
}

// Cancel revokes h's pending event. It reports whether anything was
// canceled — false when the event already fired, was already canceled,
// or was rescheduled (the old handle died with the move). The queued
// item is not removed; it is skipped when it reaches the head.
func (s *Sim) Cancel(h Handle) bool {
	if h.slot == 0 || int(h.slot) >= len(s.slots) || s.slots[h.slot].gen != h.gen {
		return false
	}
	s.freeSlot(h.slot)
	s.live--
	s.cancels++
	return true
}

// Reschedule moves h's pending event to fire at at, returning the
// replacement handle (h itself is dead afterwards). ok=false — and
// nothing changes — when h no longer names a pending event or at is in
// the past.
func (s *Sim) Reschedule(h Handle, at Time) (Handle, bool) {
	if h.slot == 0 || int(h.slot) >= len(s.slots) {
		return Handle{}, false
	}
	sl := &s.slots[h.slot]
	if sl.gen != h.gen || at < s.now {
		return Handle{}, false
	}
	sl.gen++ // the old queued item goes stale in place
	g := sl.gen
	_ = s.schedule(item{at: at, fn: sl.fn, afn: sl.afn, arg: sl.arg, slot: h.slot, gen: g})
	s.live-- // schedule counted a new live event; the move is net zero
	s.reschedules++
	return Handle{slot: h.slot, gen: g}, true
}

// SchedStats returns a snapshot of scheduler occupancy counters.
func (s *Sim) SchedStats() SchedStats {
	rot, mig := s.q.occupancy()
	st := SchedStats{
		Kind:               s.kind,
		MaxDepth:           s.maxDepth,
		Rotations:          rot,
		OverflowMigrations: mig,
		Cancels:            s.cancels,
		Reschedules:        s.reschedules,
		StaleSkipped:       s.staleSkipped,
	}
	switch q := s.q.(type) {
	case *calendar:
		st.Buckets = calBuckets
		st.BucketWidth = q.width()
	case *hybridQ:
		st.Escalations = q.escalations
		if q.cal != nil {
			st.Buckets = calBuckets
			st.BucketWidth = q.cal.width()
		}
	}
	return st
}
