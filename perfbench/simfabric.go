package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/experiments"
	"linkguardian/internal/obs"
	"linkguardian/internal/simnet"
	"linkguardian/internal/simtime"
)

// The sim-fabric workload is the paper's Figure 8 stress regime on every
// protected link of the sharded fabric: the ParHotPath shape.
const (
	fabricSegments  = 4 // 8 switches, one shard each
	fabricWorkers   = 1 // engine worker cap: one thread keeps CPU per packet steadiest on 2 vCPUs
	fabricLoss      = 1e-3
	fabricFrame     = 1500
	fabricLoad      = 0.85
	fabricCross     = 0.1
	fabricQueueCap  = 256 << 10 // finite egress buffer, as in ParHotPath
	fabricWarm      = simtime.Millisecond
	fabricSlice     = simtime.Millisecond
	fabricSlices    = 4 // fixed simulated span per repetition: 4 ms
	fabricDrain     = 2 * simtime.Millisecond
	fabricMinRepeat = 3
)

// simFabric is one built and warmed-up sim-fabric instance.
type simFabric struct {
	f     *experiments.Segmented
	reg   *obs.Registry
	rx    []*uint64
	gens  []*experiments.Generator
	stopX func()
	sentX func(int) uint64
}

func buildFabric(seed int64) *simFabric {
	cfg := core.NewConfig(simtime.Rate100G, fabricLoss)
	cfg.Mode = core.Ordered
	f := experiments.NewSegmented(seed, fabricSegments, fabricWorkers, simtime.Rate100G, cfg)
	f.SetLoss(fabricLoss)
	f.EnableAll()
	fb := &simFabric{f: f, reg: obs.NewRegistry()}
	fb.rx, _ = f.CountReceivedAll()
	f.Register(fb.reg)
	for _, tb := range f.Segs {
		tb.Link.A().Port.Q(simnet.PrioNormal).MaxBytes = fabricQueueCap
		fb.gens = append(fb.gens, tb.StartGeneratorAt(fabricFrame, fabricLoad))
	}
	fb.stopX, fb.sentX = f.CrossTraffic(fabricFrame, fabricCross)
	f.Eng.RunFor(fabricWarm)
	return fb
}

func (fb *simFabric) delivered() uint64 {
	var n uint64
	for _, p := range fb.rx {
		n += *p
	}
	return n
}

// fired is the event count of every shard's queue.
func (fb *simFabric) fired() uint64 {
	var n uint64
	for i := 0; i < fb.f.Eng.Shards(); i++ {
		n += fb.f.Eng.Shard(i).Sim.Q.Fired()
	}
	return n
}

func (fb *simFabric) engineStats() (st simnet.ShardStats) {
	for i := 0; i < fb.f.Eng.Shards(); i++ {
		s := fb.f.Eng.Shard(i).Stats()
		st.Windows = max(st.Windows, s.Windows)
		st.Stalls += s.Stalls
		st.Handoffs += s.Handoffs
		st.Recv += s.Recv
		st.MaxDepth = max(st.MaxDepth, s.MaxDepth)
	}
	return st
}

// sum adds up the counters of a registry snapshot whose names contain
// part and end in suffix.
func sum(snap obs.Snapshot, part, suffix string) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		if strings.Contains(c.Name, part) && strings.HasSuffix(c.Name, suffix) {
			n += c.Value
		}
	}
	return n
}

// peak is the largest high-water mark of the gauges ending in suffix.
func peak(snap obs.Snapshot, suffix string) int {
	var n float64
	for _, g := range snap.Gauges {
		if strings.HasSuffix(g.Name, suffix) {
			n = max(n, g.HWM, g.Value)
		}
	}
	return int(n)
}

// fabricRep is one repetition's exact counts, identical for every
// repetition of a seed.
type fabricRep struct {
	delivered, events, handoffs, windows, stalls uint64
	sent, received, queueDrops, lost             uint64
	lgLost, unrecovered, retxCopies, retransmits uint64
	dummies, acks, protected, corrupted, pauses  uint64
	rxBufPeak, txBufPeak, peakDepth              int
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func runSimFabric(r *runner) (*outcome, error) {
	out := newOutcome()
	copies := core.NewConfig(simtime.Rate100G, fabricLoss).Copies()
	var first *fabricRep
	var allocs, allocPkts uint64
	var last time.Duration
	for rep := 0; rep < fabricMinRepeat || r.more(rep, last); rep++ {
		traced := r.roundTraced(rep)
		runtime.GC()
		t0 := time.Now()
		root := r.tr.begin("sim-fabric.rep", 0)
		sid := r.tr.begin("experiments.NewSegmented", root)
		fb := buildFabric(r.seed)
		r.tr.end(sid, nil)
		out.setups = append(out.setups, time.Since(t0).Seconds())

		d0, ev0, st0 := fb.delivered(), fb.fired(), fb.engineStats()
		a0 := heapAllocs()
		c0 := cpuTime()
		for i := 0; i < fabricSlices; i++ {
			var id int
			var e0, p0 uint64
			if traced {
				e0, p0 = fb.fired(), fb.delivered()
				id = r.tr.begin("simnet.engine.RunFor", root)
			}
			fb.f.Eng.RunFor(fabricSlice)
			if traced {
				r.tr.end(id, map[string]float64{
					"events":    float64(fb.fired() - e0),
					"delivered": float64(fb.delivered() - p0),
				})
			}
		}
		cpu := cpuTime() - c0
		a1 := heapAllocs()
		st1 := fb.engineStats()
		rp := fabricRep{
			delivered: fb.delivered() - d0,
			events:    fb.fired() - ev0,
			handoffs:  st1.Handoffs - st0.Handoffs,
			windows:   st1.Windows - st0.Windows,
			stalls:    st1.Stalls - st0.Stalls,
			peakDepth: st1.MaxDepth,
		}
		if !traced { // spans allocate
			allocs += a1 - a0
			allocPkts += rp.delivered
		}
		out.addRound(traced, float64(rp.delivered), cpu)

		// Drain, then audit every packet the repetition sent.
		for _, g := range fb.gens {
			g.Stop()
		}
		fb.stopX()
		did := r.tr.begin("simnet.engine.RunFor.drain", root)
		fb.f.Eng.RunFor(fabricDrain)
		r.tr.end(did, nil)
		fb.reg.Sample()
		snap := fb.reg.Snapshot()
		for i, tb := range fb.f.Segs {
			rp.sent += fb.gens[i].Sent() + fb.sentX(i)
			for c := 0; c < simnet.NumPrios; c++ {
				rp.queueDrops += tb.Link.A().Port.Q(c).Drops
			}
		}
		rp.received = fb.delivered()
		rp.lost = rp.sent - min(rp.sent, rp.received+rp.queueDrops)
		rp.lgLost = sum(snap, ".lg.", "lost_packets")
		rp.unrecovered = sum(snap, ".lg.", "unrecovered")
		rp.retxCopies = sum(snap, ".lg.", "retx_copies")
		rp.retransmits = sum(snap, ".lg.", "retransmits")
		rp.dummies = sum(snap, ".lg.", "dummies_sent")
		rp.acks = sum(snap, ".lg.", "acks_sent")
		rp.protected = sum(snap, ".lg.", "protected")
		rp.rxBufPeak = peak(snap, ".lg.rx_buf_peak")
		rp.txBufPeak = peak(snap, ".lg.tx_buf_peak")
		rp.corrupted = sum(snap, ".link.", ".in.rx_bad")
		rp.pauses = sum(snap, ".link.", ".pauses")
		fb.f.Eng.Close()
		r.tr.end(root, nil)
		last = time.Since(t0)

		// Every packet sent is an attempted operation; a packet lost for
		// any reason other than a full egress buffer, or abandoned by
		// LinkGuardian, failed.
		out.attempted += rp.sent
		out.failed += max(rp.lost, rp.unrecovered)
		// Equation 2: with N retransmitted copies a corrupted packet is
		// lost only if every copy is corrupted too. Cross traffic crosses
		// two protected links.
		var crossSent uint64
		for i := range fb.f.Segs {
			crossSent += fb.sentX(i)
		}
		expected := float64(rp.sent+crossSent) * math.Pow(fabricLoss, float64(copies+1))
		if allowed := 2 + uint64(math.Ceil(10*expected)); rp.lost > allowed {
			out.fail("sim-fabric: %d packets lost beyond egress-buffer drops, Equation 2 allows %d", rp.lost, allowed)
		}
		if first == nil {
			first = &rp
		} else if rp != *first {
			out.fail("sim-fabric: repetition %d differs from repetition 0 at the same seed: %+v vs %+v", rep, rp, *first)
		}
	}

	d := float64(first.delivered)
	out.layer = map[string]float64{
		"eventq.events_per_pkt":          ratio(float64(first.events), d),
		"eventq.ns_per_event":            ratio(out.cpuAll().Seconds()*1e9, float64(first.events)*float64(out.rounds())),
		"eventq.peak_depth":              float64(first.peakDepth),
		"simnet.engine.handoffs_per_pkt": ratio(float64(first.handoffs), d),
		"simnet.engine.windows":          float64(first.windows),
		"simnet.engine.stall_ratio":      ratio(float64(first.stalls), float64(first.windows)*fabricSegments),
		"simnet.allocs_per_pkt":          ratio(float64(allocs), float64(allocPkts)),
		"simnet.link.corrupted":          float64(first.corrupted),
		"simnet.port.pauses":             float64(first.pauses),
		"simnet.port.queue_drops":        float64(first.queueDrops),
		"core.lost_pkts":                 float64(first.lgLost),
		"core.retx_copies_per_loss":      ratio(float64(first.retxCopies), float64(first.retransmits)),
		"core.unrecovered":               float64(first.unrecovered),
		"core.dummies_per_pkt":           ratio(float64(first.dummies), float64(first.protected)),
		"core.acks_per_pkt":              ratio(float64(first.acks), float64(first.protected)),
		"core.rxbuf_peak_bytes":          float64(first.rxBufPeak),
		"core.txbuf_peak_bytes":          float64(first.txBufPeak),
	}
	return out, nil
}
