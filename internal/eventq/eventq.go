// Package eventq implements the deterministic event scheduler at the heart
// of the discrete-event simulator.
//
// Events are ordered by firing time with a monotonically increasing sequence
// number breaking ties, so two events scheduled for the same instant always
// fire in the order they were scheduled. This makes entire simulation runs
// reproducible from a seed.
//
// The scheduler is built for the simulator's hot loop: an inlined binary
// heap (no container/heap interface boxing) of delay lanes, event structs
// recycled through a per-queue free list (steady-state Schedule/Step perform
// zero allocations), and lazy cancellation (Cancel marks the event dead in
// place; the entry is reclaimed when it surfaces, avoiding O(log n)
// mid-heap removal).
//
// Delay lanes keep the heap small. A simulation schedules most of its
// events as a handful of in-order streams: every After(d) with the same d
// fires in scheduling order, and so do the successive absolute-time events
// of one handler. A lane is an intrusive FIFO of such a stream, and only
// each lane's head sits in the heap; popping a head promotes its successor
// in place. An event joins a lane only if it fires no earlier than the
// lane's tail. Its sequence number is always larger, so every lane is
// sorted by (time, seq) and the heap merge of lanes pops exactly the order
// a heap of all events would. Lane choice is therefore only a speed
// heuristic: an event that finds its lane slot held by another stream, or
// that would fire before the tail, enters the heap on its own.
// Callers hold Timer handles rather than raw event pointers: a generation
// counter makes handles to fired, canceled, or recycled events permanently
// inert, so the free list can reuse memory without use-after-fire hazards.
//
// Two scheduling forms are offered. Schedule/After take a plain closure and
// are right for cold paths: the closure itself is a caller-side heap
// allocation. ScheduleCall/AfterCall take a two-word payload — a static
// func(a0, a1 any) plus two argument cells stored inline in the recycled
// event struct — so hot paths (one event per frame transmission, one per
// link delivery) schedule bound work with zero allocations, provided the
// arguments are pointers (interface conversion of a pointer does not
// allocate).
package eventq

import (
	"fmt"
	"sort"
	"unsafe"
)

// event is one scheduled event, held in a lane or alone in the heap.
// Instances are owned by the queue and recycled through its free list;
// external code only ever sees Timer handles.
type event struct {
	at  int64 // firing time, ns
	seq uint64
	fn  func()
	// Typed form (ScheduleCall): fn2 with its two inline argument cells.
	// Exactly one of fn and fn2 is set on a live event; both nil marks a
	// fired or lazily-canceled entry awaiting recycling.
	fn2    func(a0, a1 any)
	a0, a1 any
	gen    uint64 // bumped on fire/cancel, invalidating outstanding Timers
	next   *event // lane successor while pending, free-list link once recycled
	lane   uint8  // 1 + index of the lane holding the event, 0 for a lone heap entry
}

// dead reports whether the event has fired or been canceled and is only
// waiting to surface for recycling.
func (e *event) dead() bool { return e.fn == nil && e.fn2 == nil }

// Timer is a handle to a scheduled event, returned by Schedule and After.
// The zero Timer is valid and behaves as already-fired. Timers are values:
// copy them freely, compare to detect the same scheduling, and discard
// without cleanup.
type Timer struct {
	e   *event
	gen uint64
}

// Canceled reports whether the timer's event was canceled or has already
// fired (including the window inside its own callback).
func (t Timer) Canceled() bool { return t.e == nil || t.e.gen != t.gen }

// At returns the event's firing time in nanoseconds, or 0 for a timer that
// is no longer pending.
func (t Timer) At() int64 {
	if t.Canceled() {
		return 0
	}
	return t.e.at
}

// Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; a simulation run is single-threaded
// by design (independent queues may run on concurrent goroutines — the
// sharded engine in internal/simnet runs one Queue per topology shard).
type Queue struct {
	h      []slot // heads of the nonempty lanes, plus lone events
	lanes  [numLanes]lane
	free   *event
	now    int64
	nexts  uint64
	nfired uint64
	live   int // scheduled and neither canceled nor fired

	// shard is the owning shard's id plus one when the queue belongs to a
	// parallel-engine shard (SetShard), zero for a standalone global queue.
	// Diagnostics include it so a Drain panic inside one shard of a
	// parallel run names the shard and its local clock instead of
	// masquerading as a single global queue.
	shard int

	// OnBudgetExceeded, if set, observes the queue diagnostics just before
	// Drain panics on budget exhaustion — the flight-recorder hook, letting
	// a run dump its trace ring and metrics snapshot before dying.
	OnBudgetExceeded func(diag string)
}

// SetShard marks the queue as owned by shard id of a parallel engine; the
// id and the shard's local clock then appear in Drain-panic diagnostics.
func (q *Queue) SetShard(id int) { q.shard = id + 1 }

// Shard returns the owning shard id set by SetShard, or -1 for a
// standalone (single global queue) simulation.
func (q *Queue) Shard() int { return q.shard - 1 }

// Now returns the current simulated time in nanoseconds: the firing time of
// the most recently dispatched event.
func (q *Queue) Now() int64 { return q.now }

// Len returns the number of pending (live) events.
func (q *Queue) Len() int { return q.live }

// Fired returns the total number of events dispatched so far.
func (q *Queue) Fired() uint64 { return q.nfired }

// Schedule enqueues fn to run at absolute time at (ns). Scheduling in the
// past (before Now) panics: it always indicates a logic error in the caller,
// and silently reordering time would corrupt the simulation.
func (q *Queue) Schedule(at int64, fn func()) Timer {
	e := q.alloc(at, fnKey(*(*unsafe.Pointer)(unsafe.Pointer(&fn))))
	e.fn = fn
	return Timer{e: e, gen: e.gen}
}

// ScheduleCall enqueues fn(a0, a1) to run at absolute time at (ns). This is
// the zero-allocation form: fn should be a static function (not a closure
// built at the call site) and a0/a1 pointers, so the only state is the two
// inline cells of the recycled event struct. Ordering is identical to
// Schedule: both draw from the same tie-breaking sequence.
func (q *Queue) ScheduleCall(at int64, fn func(a0, a1 any), a0, a1 any) Timer {
	e := q.alloc(at, fnKey(*(*unsafe.Pointer)(unsafe.Pointer(&fn))))
	e.fn2 = fn
	e.a0, e.a1 = a0, a1
	return Timer{e: e, gen: e.gen}
}

// After enqueues fn to run d nanoseconds after Now.
func (q *Queue) After(d int64, fn func()) Timer {
	if d < 0 {
		panic("eventq: negative delay")
	}
	e := q.alloc(q.now+d, delayKey(d))
	e.fn = fn
	return Timer{e: e, gen: e.gen}
}

// AfterCall enqueues fn(a0, a1) to run d nanoseconds after Now; the typed,
// zero-allocation counterpart of After.
func (q *Queue) AfterCall(d int64, fn func(a0, a1 any), a0, a1 any) Timer {
	if d < 0 {
		panic("eventq: negative delay")
	}
	e := q.alloc(q.now+d, delayKey(d))
	e.fn2 = fn
	e.a0, e.a1 = a0, a1
	return Timer{e: e, gen: e.gen}
}

// alloc pops a recycled event (or allocates one) and enqueues it at time
// at, with the next tie-breaking sequence number, on the lane for key.
func (q *Queue) alloc(at int64, key uint64) *event {
	if at < q.now {
		panic("eventq: scheduling into the past")
	}
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	e.at = at
	e.seq = q.nexts
	q.nexts++
	q.live++
	q.enqueue(e, key)
	return e
}

// Cancel removes a pending event. Canceling a fired or already-canceled
// event is a no-op, so callers can cancel unconditionally. Cancellation is
// lazy: the entry stays in the heap until it surfaces, then is recycled
// without firing.
func (q *Queue) Cancel(t Timer) {
	e := t.e
	if e == nil || e.gen != t.gen {
		return
	}
	e.gen++
	e.fn = nil
	e.fn2 = nil
	e.a0, e.a1 = nil, nil
	q.live--
}

// Step fires the earliest pending event and returns true, or returns false
// if no live events remain.
func (q *Queue) Step() bool {
	for len(q.h) > 0 {
		e := q.pop()
		if e.dead() { // lazily canceled; reclaim silently
			q.recycle(e)
			continue
		}
		q.fire(e)
		return true
	}
	return false
}

// fire dispatches a live event just popped from the queue.
func (q *Queue) fire(e *event) {
	q.now = e.at
	fn, fn2, a0, a1 := e.fn, e.fn2, e.a0, e.a1
	e.fn = nil
	e.fn2 = nil
	e.a0, e.a1 = nil, nil
	e.gen++
	q.live--
	q.nfired++
	// Recycle before dispatch: fn may Schedule and immediately reuse
	// this slot, which is safe now that the generation has advanced.
	q.recycle(e)
	if fn2 != nil {
		fn2(a0, a1)
	} else {
		fn()
	}
}

// RunUntil fires events until the queue is empty or the next event is after
// deadline. Time advances to deadline if the queue drains earlier events
// first; Now never exceeds deadline on return unless it already did.
func (q *Queue) RunUntil(deadline int64) {
	for {
		q.purgeCanceled()
		if len(q.h) == 0 || q.h[0].at > deadline {
			break
		}
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// RunBefore fires every event strictly before limit in one batched pass and
// advances Now to limit. It is the shard-window primitive of the parallel
// engine: a shard executes all events inside its lookahead-safe window
// [Now, limit) with a single tight loop — no per-event purge pass, no
// per-event dispatch-function call — amortizing the heap bookkeeping that
// Step pays per event. On return Now == limit (the window's end), so the
// next window's cross-shard arrivals, all stamped at or after limit by the
// lookahead guarantee, can be scheduled without time running backwards. It
// returns the number of events fired.
func (q *Queue) RunBefore(limit int64) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at < limit {
		e := q.pop()
		if e.dead() { // lazily canceled; reclaim silently
			q.recycle(e)
			continue
		}
		q.fire(e)
		fired++
	}
	if q.now < limit {
		q.now = limit
	}
	return fired
}

// NextAt reports the firing time of the earliest pending event. ok is false
// when no live events remain. Real-time executors (internal/live) use it to
// set their wall-clock wakeup; the discrete-event Run/Drain loops never need
// it. Lazily-canceled heap entries are purged so the answer is exact.
func (q *Queue) NextAt() (at int64, ok bool) {
	q.purgeCanceled()
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Drain fires events until none remain. maxEvents bounds runaway
// simulations: Drain panics if it fires more than maxEvents events
// (use <=0 for no bound). The panic message carries queue diagnostics —
// current sim time, pending event count, the next few deadlines — so a
// non-quiescing run (e.g. a chaos scenario that left a replenishing
// queue alive) can be debugged from the failure alone.
func (q *Queue) Drain(maxEvents int64) {
	var n int64
	for q.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			diag := q.diagnose(5)
			if q.OnBudgetExceeded != nil {
				q.OnBudgetExceeded(diag)
			}
			panic(fmt.Sprintf(
				"eventq: event budget %d exceeded; simulation is likely not quiescing (%s)",
				maxEvents, diag))
		}
	}
}

// Diagnostics returns the Drain-panic queue summary — current time, live
// event count, the earliest k deadlines — for callers assembling their own
// failure artifacts.
func (q *Queue) Diagnostics(k int) string { return q.diagnose(k) }

// diagnose summarizes queue state for the Drain panic: the current time,
// how many live events are pending, and the earliest k deadlines (taken
// from every lane, not just the heads the heap holds). A queue
// owned by a parallel-engine shard (SetShard) leads with the shard id and
// labels the time as that shard's local clock — under the sharded engine
// there is no single global queue for the old message to describe.
func (q *Queue) diagnose(k int) string {
	next := make([]int64, 0, q.live)
	for _, s := range q.h {
		for e := s.e; e != nil; e = e.next {
			if !e.dead() {
				next = append(next, e.at)
			}
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	if len(next) > k {
		next = next[:k]
	}
	if q.shard > 0 {
		return fmt.Sprintf("shard %d: shard clock=%dns, %d live events, next deadlines (ns): %v",
			q.shard-1, q.now, q.live, next)
	}
	return fmt.Sprintf("now=%dns, %d live events, next deadlines (ns): %v",
		q.now, q.live, next)
}

// purgeCanceled pops lazily-canceled entries off the heap root so that
// q.h[0], if present, is a live event.
func (q *Queue) purgeCanceled() {
	for len(q.h) > 0 && q.h[0].e.dead() {
		q.recycle(q.pop())
	}
}

func (q *Queue) recycle(e *event) {
	e.next = q.free
	q.free = e
}

// ------------------------------------------------------- delay lanes ----

// numLanes is the size of the direct-mapped lane table. A lane key that
// hashes onto a slot held by another nonempty stream does not evict it:
// the event enters the heap as a lone entry. In the Figure 8 stress fabric
// (a dozen delays, about as many handlers) sampled heaps held no lone
// entries at 64 slots.
const (
	laneBits = 6
	numLanes = 1 << laneBits
)

// lane is one in-order event stream: an intrusive FIFO linked through
// event.next, whose head is a heap entry. tail is nil when the lane is
// empty, and the slot is then free for any key.
type lane struct {
	key  uint64
	tail *event
}

// delayKey is the lane key of a relative-time event: its delay. Events
// scheduled d after a nondecreasing Now fire in scheduling order.
func delayKey(d int64) uint64 { return uint64(d) << 1 }

// fnKey is the lane key of an absolute-time event: the address of its
// handler's function value. A static handler (the hot-path ScheduleCall
// form) has one address; closures built per call get fresh ones and so
// rarely share a lane.
func fnKey(p unsafe.Pointer) uint64 { return uint64(uintptr(p))<<1 | 1 }

// enqueue places a freshly numbered event. It joins the lane for key when
// the lane's slot is free or holds the same key with a tail firing no later
// than e (the ordering invariant), and otherwise enters the heap alone.
func (q *Queue) enqueue(e *event, key uint64) {
	i := (key * 0x9E3779B97F4A7C15) >> (64 - laneBits) // Fibonacci hash onto numLanes
	l := &q.lanes[i]
	if t := l.tail; t != nil {
		if l.key == key && e.at >= t.at {
			t.next = e
			l.tail = e
			e.lane = uint8(i) + 1
			return
		}
		e.lane = 0
	} else {
		l.key = key
		l.tail = e
		e.lane = uint8(i) + 1
	}
	q.h = append(q.h, slot{at: e.at, seq: e.seq, e: e})
	q.siftUp(len(q.h) - 1)
}

// pop removes and returns the earliest event, live or canceled: the heap
// root's lane head. Its lane successor, if any, takes over the root slot.
func (q *Queue) pop() *event {
	e := q.h[0].e
	if s := e.next; s != nil {
		e.next = nil
		q.siftDown(slot{at: s.at, seq: s.seq, e: s})
		return e
	}
	if e.lane != 0 {
		q.lanes[e.lane-1].tail = nil
	}
	q.popRoot()
	return e
}

// ----------------------------------------------- inlined binary heap ----
//
// With delay lanes the heap holds about one entry per active event stream
// (a dozen or so in the simulator), not one per pending event. At that
// size a binary heap's single child comparison per level beats a 4-ary
// layout's wider, mispredicted child scans; the depth a d-ary heap saves
// only pays at hundreds of entries. Each slot carries its event's
// (at, seq) key inline, so comparisons never dereference an event, and
// there is no interface dispatch anywhere on the push/pop path.

// slot is one heap entry: a lane head (or lone event) and its sort key.
type slot struct {
	at  int64
	seq uint64
	e   *event
}

// less orders slots by (at, seq): time first, scheduling order on ties.
func less(a, b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(i int) {
	h := q.h
	s := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(&s, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
}

// popRoot removes h[0], restoring heap order.
func (q *Queue) popRoot() {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = slot{}
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(last)
	}
}

// siftDown places s at the root of a nonempty heap whose root slot is
// vacant, moving it down to restore heap order.
func (q *Queue) siftDown(s slot) {
	h := q.h
	n := len(h)
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && less(&h[r], &h[m]) {
			m = r
		}
		if !less(&h[m], &s) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = s
}
