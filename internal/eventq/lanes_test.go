package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// laneOracle drives a Queue with a random operation mix and checks it in
// lockstep against a reference model: the set of pending events with their
// (at, seq) keys. Every firing must be the reference's minimum by (at, seq),
// so the firing order is the stable sort of the schedule by time with
// canceled events left out, whatever lanes the events were held in.
type laneOracle struct {
	t   *testing.T
	q   *Queue
	rng *rand.Rand

	seq     uint64         // reference tie-breaker, one per schedule call
	pending map[int]refKey // id -> key of every scheduled, unfired, uncanceled event
	timers  []Timer        // by id
	keys    []refKey       // by id
	last    int            // id of the most recent schedule (a lane tail)
	fired   int
	// handlers are distinct function values (each captures its index), so
	// ScheduleCall events form several handler lanes.
	handlers [3]func(a0, a1 any)
}

type refKey struct {
	at  int64
	seq uint64
}

// laneDelays repeat so delay lanes grow long, and include 0 (an event
// firing at the current instant behind everything already due then).
var laneDelays = []int64{0, 0, 1, 5, 5, 5, 12, 40, 40, 100}

func newLaneOracle(t *testing.T, seed int64) *laneOracle {
	o := &laneOracle{t: t, q: &Queue{}, rng: rand.New(rand.NewSource(seed)), pending: map[int]refKey{}}
	for k := range o.handlers {
		o.handlers[k] = func(a0, a1 any) { a0.(*laneOracle).onFire(a1.(int), k) }
	}
	return o
}

func (o *laneOracle) newID(at int64) int {
	id := len(o.timers)
	k := refKey{at, o.seq}
	o.seq++
	o.pending[id] = k
	o.keys = append(o.keys, k)
	o.timers = append(o.timers, Timer{})
	o.last = id
	return id
}

// schedule issues one random scheduling call through each API form.
func (o *laneOracle) schedule() {
	q, now := o.q, o.q.Now()
	d := laneDelays[o.rng.Intn(len(laneDelays))]
	if o.rng.Intn(5) == 0 {
		d = o.rng.Int63n(200) // a distinct delay
	}
	switch o.rng.Intn(4) {
	case 0:
		id := o.newID(now + d)
		o.timers[id] = q.After(d, func() { o.onFire(id, -1) })
	case 1:
		id := o.newID(now + d)
		o.timers[id] = q.AfterCall(d, o.handlers[0], o, id)
	case 2:
		at := now + o.rng.Int63n(150)
		id := o.newID(at)
		o.timers[id] = q.Schedule(at, func() { o.onFire(id, -1) })
	case 3:
		// Handler streams are sometimes in order (the tail check passes)
		// and sometimes not (the event must enter the heap alone).
		at := now + o.rng.Int63n(150)
		id := o.newID(at)
		o.timers[id] = q.ScheduleCall(at, o.handlers[o.rng.Intn(len(o.handlers))], o, id)
	}
}

// cancel cancels a lane head (earliest pending), a lane tail (most recent
// schedule), or any event ever scheduled (a middle, or a no-op on one that
// fired or was canceled).
func (o *laneOracle) cancel() {
	if len(o.timers) == 0 {
		return
	}
	var id int
	switch o.rng.Intn(3) {
	case 0:
		id = o.min()
		if id < 0 {
			return
		}
	case 1:
		id = o.last
	case 2:
		id = o.rng.Intn(len(o.timers))
	}
	o.q.Cancel(o.timers[id])
	delete(o.pending, id)
}

// min is the reference's next event: the pending id with the least
// (at, seq), or -1.
func (o *laneOracle) min() int {
	best := -1
	for id, k := range o.pending {
		if best < 0 || k.at < o.keys[best].at || k.at == o.keys[best].at && k.seq < o.keys[best].seq {
			best = id
		}
	}
	return best
}

func (o *laneOracle) onFire(id, _ int) {
	if want := o.min(); id != want {
		o.t.Fatalf("fired id %d %+v, reference expects id %d", id, o.keys[id], want)
	}
	if o.q.Now() != o.keys[id].at {
		o.t.Fatalf("id %d fired with Now=%d, scheduled for %d", id, o.q.Now(), o.keys[id].at)
	}
	delete(o.pending, id)
	o.fired++
	// Reentrancy: callbacks schedule and cancel too.
	if o.rng.Intn(3) == 0 {
		o.schedule()
	}
	if o.rng.Intn(8) == 0 {
		o.cancel()
	}
}

// check compares the queue's observable state with the reference.
func (o *laneOracle) check(op string) {
	o.t.Helper()
	if o.q.Len() != len(o.pending) {
		o.t.Fatalf("after %s: Len = %d, reference %d", op, o.q.Len(), len(o.pending))
	}
	for id, tm := range o.timers {
		want := int64(0)
		if k, ok := o.pending[id]; ok {
			want = k.at
		}
		if tm.At() != want {
			o.t.Fatalf("after %s: Timer(%d).At = %d, want %d", op, id, tm.At(), want)
		}
	}
	// Diagnostics must see every pending deadline, including events held
	// behind a lane head.
	var ats []int64
	for _, k := range o.pending {
		ats = append(ats, k.at)
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	const k = 8
	if len(ats) > k {
		ats = ats[:k]
	}
	d := o.q.Diagnostics(k)
	if want := fmt.Sprintf("%d live events, next deadlines (ns): %v", len(o.pending), ats); !strings.HasSuffix(d, want) {
		o.t.Fatalf("after %s: Diagnostics = %q, want suffix %q", op, d, want)
	}
}

// step issues one random top-level operation and checks the result.
func (o *laneOracle) step() {
	q := o.q
	switch r := o.rng.Intn(10); {
	case r < 4:
		o.schedule()
		o.check("schedule")
	case r < 5:
		o.cancel()
		o.check("cancel")
	case r < 6:
		empty := len(o.pending) == 0
		n := o.fired
		ok := q.Step()
		if ok == empty || ok && o.fired != n+1 {
			o.t.Fatalf("Step = %v with %d pending, fired %d", ok, len(o.pending), o.fired-n)
		}
		o.check("Step")
	case r < 7:
		limit := q.Now() + o.rng.Int63n(120)
		n := o.fired
		if got := q.RunBefore(limit); got != o.fired-n {
			o.t.Fatalf("RunBefore returned %d, %d fired", got, o.fired-n)
		}
		if id := o.min(); id >= 0 && o.keys[id].at < limit {
			o.t.Fatalf("RunBefore(%d) left id %d at %d", limit, id, o.keys[id].at)
		}
		if q.Now() != limit {
			o.t.Fatalf("Now = %d after RunBefore(%d)", q.Now(), limit)
		}
		o.check("RunBefore")
	case r < 8:
		deadline := q.Now() + o.rng.Int63n(120)
		q.RunUntil(deadline)
		if id := o.min(); id >= 0 && o.keys[id].at <= deadline {
			o.t.Fatalf("RunUntil(%d) left id %d at %d", deadline, id, o.keys[id].at)
		}
		o.check("RunUntil")
	default:
		at, ok := q.NextAt()
		id := o.min()
		if ok != (id >= 0) || ok && at != o.keys[id].at {
			o.t.Fatalf("NextAt = (%d, %v), reference id %d", at, ok, id)
		}
		o.check("NextAt")
	}
}

// Lanes are only a speed heuristic: under any mix of the scheduling API
// (repeated and distinct delays, absolute times in and out of handler
// order), cancellation of lane heads, middles and tails, reentrant
// scheduling, and every run primitive, the queue must fire exactly the
// reference order and report the reference's pending state.
func TestLaneOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		o := newLaneOracle(t, seed)
		for i := 0; i < 300; i++ {
			o.step()
		}
		o.q.Drain(0)
		if len(o.pending) != 0 {
			t.Fatalf("seed %d: Drain left %d reference events", seed, len(o.pending))
		}
		o.check("Drain")
	}
}

// In-order streams share one heap entry per lane: events scheduled with
// the same delay, or with the same handler at nondecreasing times, must
// not grow the heap.
func TestLanesHoldInOrderStreams(t *testing.T) {
	fn := func(a0, a1 any) {}
	var rel Queue
	for i := 0; i < 100; i++ {
		rel.AfterCall(5, fn, nil, nil)
		rel.AfterCall(7, fn, nil, nil)
	}
	if len(rel.h) != 2 || rel.Len() != 200 {
		t.Fatalf("heap holds %d entries for 2 delay streams of %d events, want 2", len(rel.h), rel.Len())
	}
	var abs Queue
	for i := int64(0); i < 100; i++ {
		abs.ScheduleCall(i, fn, nil, nil)
	}
	if len(abs.h) != 1 {
		t.Fatalf("heap holds %d entries for one in-order handler stream, want 1", len(abs.h))
	}
	// An event earlier than its handler lane's tail enters the heap alone.
	abs.ScheduleCall(50, fn, nil, nil)
	if len(abs.h) != 2 {
		t.Fatalf("out-of-order event joined a lane: heap holds %d entries, want 2", len(abs.h))
	}
}

// laneBench replays the schedule mix the Figure 8 stress fabric (4
// segments, 1e-3 loss, 85% load plus cross traffic) issues per shard, with
// the weights measured on that workload: twelve relative delays, plus
// absolute-time handler streams whose times interleave out of order, as
// the sender's loop-boundary flushes do.
type laneBench struct {
	q        *Queue
	plan     []laneDraw
	next     int
	handlers [10]func(a0, a1 any)
	fired    [10]uint64 // per handler
}

// laneDraw is one scheduling call: AfterCall(d) when h < 0, otherwise
// ScheduleCall(Now+d) on handler h.
type laneDraw struct {
	d int64
	h int
}

// laneMix is the measured sim-fabric schedule mix, in events per 10,000.
var laneMix = []struct {
	d, weight int64
}{
	{100, 1722}, {122, 1350}, {500, 1334}, {61, 1334}, {1000, 764},
	{4000, 653}, {1500, 641}, {143, 569}, {7, 428}, {200, 423},
	{1220, 67}, {10000, 3},
	{-1, 712}, // absolute-time handler streams
}

func newLaneBench(live int) *laneBench {
	lb := &laneBench{q: &Queue{}}
	for k := range lb.handlers {
		// Capturing k gives each handler its own function value, and so
		// its own lane key.
		lb.handlers[k] = func(a0, _ any) { a0.(*laneBench).fire(k) }
	}
	rng := rand.New(rand.NewSource(1))
	var total int64
	for _, m := range laneMix {
		total += m.weight
	}
	lb.plan = make([]laneDraw, 4096)
	for i := range lb.plan {
		r := rng.Int63n(total)
		for _, m := range laneMix {
			if r -= m.weight; r < 0 {
				lb.plan[i] = laneDraw{d: m.d, h: -1}
				if m.d < 0 {
					lb.plan[i] = laneDraw{d: 100 + rng.Int63n(2000), h: rng.Intn(len(lb.handlers))}
				}
				break
			}
		}
	}
	for i := 0; i < live; i++ {
		lb.schedule()
	}
	return lb
}

// schedule issues the plan's next call.
func (lb *laneBench) schedule() {
	p := lb.plan[lb.next]
	lb.next = (lb.next + 1) & (len(lb.plan) - 1)
	if p.h < 0 {
		lb.q.AfterCall(p.d, lb.handlers[0], lb, nil)
	} else {
		lb.q.ScheduleCall(lb.q.Now()+p.d, lb.handlers[p.h], lb, nil)
	}
}

// fire replaces the fired event, holding the live count constant.
func (lb *laneBench) fire(h int) {
	lb.fired[h]++
	lb.schedule()
}

// BenchmarkEventQLanes measures the scheduler on the sim-fabric schedule
// mix at the ~80 live events one shard sustains. Each op fires one event,
// whose handler schedules the next; the queue is warmed to steady state
// first, so the op is allocation-free.
func BenchmarkEventQLanes(b *testing.B) {
	b.Run("simfabric-mix", func(b *testing.B) {
		lb := newLaneBench(80)
		for i := 0; i < 100000; i++ {
			lb.q.Step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			lb.q.Step()
		}
		b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(b.N), "ns/event")
	})
}
