package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/live"
)

// The live-mux workload: 8 protected links over one batched mux socket
// pair on loopback, open loop at a fixed aggregate rate. On 2 shared vCPUs
// 20k pps fails the strict audit outright. At 10k a call can still fail it
// when the host stalls the process for 100-250 ms: the receiver mux's send
// queue overflows and ackNoTimeout then abandons a packet. Such a call's
// undelivered packets count as failed and the run is not correct.
const (
	liveLinks    = 8
	liveFlows    = 1000
	liveSize     = 256
	livePPS      = 10000
	liveLoss     = 1e-3
	liveCallPkts = 25000 // 2.5 s of offered load per call

	// Hard ceilings per call, enforced from outside the call's process:
	// a call past either is killed and all its packets count as failed.
	liveWallCeiling = 30 * time.Second
	liveRSSCeiling  = 1 << 30
	// Soft ceilings inside the call's process: RunMulti is canceled, and
	// every packet it did not deliver counts as failed.
	liveSoftTimeout = 20 * time.Second
	liveSoftRSS     = 768 << 20
)

// liveCall is what one call's process reports: its measurements and every
// public counter the parent audits.
type liveCall struct {
	CPUS      float64 `json:"cpu_s"` // process CPU from OnStart to return
	Offered   uint64  `json:"offered"`
	Delivered uint64  `json:"delivered"`
	Duplicate uint64  `json:"duplicate"`
	OutOfSeq  uint64  `json:"out_of_seq"`
	Masked    uint64  `json:"masked"`
	Batched   bool    `json:"batched"`
	CheckErr  string  `json:"check_err,omitempty"`
	RunErr    string  `json:"run_err,omitempty"`

	LatBounds []float64 `json:"lat_bounds"` // seconds
	LatCounts []uint64  `json:"lat_counts"`

	// Datagram conservation, summed over links.
	SenderTx, SenderRx, ReceiverTx, ReceiverRx uint64
	ProxyForwarded, ProxyDropped               uint64
	DecodeDrops, SendRetries, SendDrops        uint64
	MuxTxDgrams, MuxTxCalls                    uint64
	MuxRxDgrams, MuxRxCalls                    uint64
	ArenaPeak                                  uint64

	// core counters from the endpoints' registries.
	Core map[string]float64 `json:"core"`

	// Phase boundaries in seconds from OnStart, traced calls only.
	OfferS, DrainS, ReturnS float64
}

// liveChild runs one RunMulti call in this process and prints "ready"
// once everything is started, then the liveCall report as JSON.
func liveChild(args []string) int {
	fs := flag.NewFlagSet("live-child", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	count := fs.Uint64("count", liveCallPkts, "")
	traced := fs.Bool("traced", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var rep liveCall
	var senders, receivers []*live.Endpoint
	var started time.Time
	var cpu0 time.Duration
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	var phases sync.WaitGroup
	cfg := live.MultiConfig{
		Seed:     *seed,
		Links:    liveLinks,
		Flows:    liveFlows,
		Count:    *count,
		Size:     liveSize,
		PPS:      livePPS,
		LossRate: liveLoss,
		Mode:     core.Ordered,
		Timeout:  liveSoftTimeout,
		Cancel:   cancel,
		OnStart: func(s, r []*live.Endpoint) {
			senders, receivers = s, r
			started, cpu0 = time.Now(), cpuTime()
			fmt.Println("ready")
			go watchRSS(cancel, &cancelOnce)
			if *traced {
				phases.Add(1)
				go func() {
					defer phases.Done()
					rep.OfferS, rep.DrainS = watchPhases(s, r, *count, started)
				}()
			}
		},
	}
	mr, err := live.RunMulti(cfg)
	rep.CPUS = (cpuTime() - cpu0).Seconds()
	rep.ReturnS = time.Since(started).Seconds()
	cancelOnce.Do(func() { close(cancel) })
	phases.Wait()
	if err != nil {
		rep.RunErr = err.Error()
	}
	if mr != nil {
		rep.Offered, rep.Delivered = mr.Offered, mr.Delivered
		rep.Duplicate, rep.OutOfSeq = mr.Duplicate, mr.OutOfSeq
		rep.Masked, rep.Batched = mr.Masked, mr.Batched
		if err := mr.Check(); err != nil {
			rep.CheckErr = err.Error()
		}
		for _, l := range mr.Links {
			rep.SenderTx += l.SenderWire.TxDatagrams
			rep.SenderRx += l.SenderWire.RxDatagrams
			rep.ReceiverTx += l.ReceiverWire.TxDatagrams
			rep.ReceiverRx += l.ReceiverWire.RxDatagrams
			rep.DecodeDrops += l.SenderWire.DecodeDrops + l.ReceiverWire.DecodeDrops
			rep.SendRetries += l.SenderWire.SendRetries + l.ReceiverWire.SendRetries
			rep.SendDrops += l.SenderWire.SendDrops + l.ReceiverWire.SendDrops + l.SenderWire.TxErrors + l.ReceiverWire.TxErrors
			rep.ProxyForwarded += l.ProxyForwarded
			rep.ProxyDropped += l.ProxyDropped
		}
		for _, m := range []live.MuxStats{mr.SenderMux, mr.ReceiverMux} {
			rep.MuxTxDgrams += m.TxDatagrams
			rep.MuxTxCalls += m.TxBatches
			rep.MuxRxDgrams += m.RxDatagrams
			rep.MuxRxCalls += m.RxBatches
			rep.ArenaPeak = max(rep.ArenaPeak, m.ArenaFrames)
		}
		// RunMulti has stopped every loop, so the endpoints' registries
		// are frozen and safe to read from this goroutine.
		rep.Core = map[string]float64{}
		for _, ep := range append(append([]*live.Endpoint(nil), senders...), receivers...) {
			snap := ep.Reg.Snapshot()
			for _, c := range snap.Counters {
				if strings.HasPrefix(c.Name, "lg.") {
					rep.Core[c.Name] += float64(c.Value)
				}
			}
			for _, g := range snap.Gauges {
				if strings.HasSuffix(g.Name, "_peak") {
					rep.Core[g.Name] = max(rep.Core[g.Name], g.Value, g.HWM)
				}
			}
			if h, ok := snap.Histogram("live.flow.latency_seconds"); ok {
				rep.LatBounds = h.Bounds
				if rep.LatCounts == nil {
					rep.LatCounts = make([]uint64, len(h.Counts))
				}
				for i, c := range h.Counts {
					rep.LatCounts[i] += c
				}
			}
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "live-child:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// watchRSS cancels the run once the process's resident memory passes the
// soft ceiling.
func watchRSS(cancel chan struct{}, once *sync.Once) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-cancel:
			return
		case <-t.C:
			if procRSS(os.Getpid()) > liveSoftRSS {
				once.Do(func() { close(cancel) })
				return
			}
		}
	}
}

// watchPhases polls the senders' offered count and the receivers'
// delivered count every 10 ms, returning when each reached count, in
// seconds from started. A loop that stops ends the watch. Every poll is a
// call onto each loop's goroutine: at 2 ms they cost traced calls 30% more
// CPU per packet than untraced ones.
func watchPhases(senders, receivers []*live.Endpoint, count uint64, started time.Time) (offer, drain float64) {
	total := func(eps []*live.Endpoint, read func(*live.Endpoint) uint64) (uint64, bool) {
		var n uint64
		for _, ep := range eps {
			var v uint64
			if !ep.Loop.Call(func() { v = read(ep) }) {
				return 0, false
			}
			n += v
		}
		return n, true
	}
	for _, phase := range []struct {
		eps  []*live.Endpoint
		read func(*live.Endpoint) uint64
		at   *float64
	}{
		{senders, func(ep *live.Endpoint) uint64 { return ep.App.Tx }, &offer},
		{receivers, func(ep *live.Endpoint) uint64 { return ep.Flow.Rx }, &drain},
	} {
		for {
			n, ok := total(phase.eps, phase.read)
			if !ok {
				return offer, drain
			}
			if n >= count {
				*phase.at = time.Since(started).Seconds()
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return offer, drain
}

// procRSS returns a process's resident set size in bytes, 0 if unknown.
func procRSS(pid int) uint64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// callResult is one call as the parent saw it.
type callResult struct {
	rep     liveCall
	ready   time.Time // when the call reported everything started
	spawned time.Time
	exited  time.Time
	killed  string // why the call was killed, if it was
	rssMB   float64
}

// runLiveCall runs one call in a child process under the hard ceilings.
func runLiveCall(seed int64, count uint64, traced bool) (*callResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"live-child", "-seed", strconv.FormatInt(seed, 10), "-count", strconv.FormatUint(count, 10)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	res := &callResult{spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	deadline := time.NewTimer(liveWallCeiling)
	defer deadline.Stop()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var last string
	kill := func(why string) {
		if res.killed == "" {
			res.killed = why
			_ = cmd.Process.Kill()
		}
	}
wait:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break wait
			}
			if line == "ready" && res.ready.IsZero() {
				res.ready = time.Now()
			}
			last = line
		case <-deadline.C:
			kill(fmt.Sprintf("wall time past %v", liveWallCeiling))
		case <-tick.C:
			if rss := procRSS(cmd.Process.Pid); rss > liveRSSCeiling {
				kill(fmt.Sprintf("resident memory %d MB past %d MB", rss>>20, liveRSSCeiling>>20))
			}
		}
	}
	werr := cmd.Wait()
	res.exited = time.Now()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024
	}
	if res.killed != "" {
		return res, nil
	}
	if werr != nil {
		return nil, fmt.Errorf("live call: %w", werr)
	}
	if err := json.Unmarshal([]byte(last), &res.rep); err != nil {
		return nil, fmt.Errorf("live call report: %w", err)
	}
	return res, nil
}

func runLiveMux(r *runner) (*outcome, error) {
	out := newOutcome()
	out.env["live_path"] = "loopback 127.0.0.1, UDP"
	var latCounts []uint64
	var latBounds []float64
	var sum liveCall
	sum.Core = map[string]float64{}
	var offerS, drainS, stopS, genLagS float64
	var phased int
	var p50, p99 float64
	var last time.Duration
	for call := 0; r.more(call, last); call++ {
		traced := r.roundTraced(call)
		res, err := runLiveCall(r.seed+int64(call), liveCallPkts, traced)
		if err != nil {
			return nil, err
		}
		last = time.Since(res.spawned)
		out.childRSS = append(out.childRSS, res.rssMB)
		out.attempted += liveCallPkts
		if res.killed != "" {
			out.failed += liveCallPkts
			out.fail("live-mux: call %d killed: %s", call, res.killed)
			continue
		}
		c := res.rep
		out.env["batched"] = c.Batched
		out.setups = append(out.setups, res.ready.Sub(res.spawned).Seconds())
		out.addRound(traced, float64(c.Delivered), time.Duration(c.CPUS*float64(time.Second)))
		// Failed packets: never delivered, delivered twice, or delivered
		// out of order. A canceled or timed-out call leaves the rest of
		// its packets undelivered.
		unique := c.Delivered - min(c.Delivered, c.Duplicate)
		out.failed += liveCallPkts - min(liveCallPkts, unique) + c.Duplicate + c.OutOfSeq
		if c.RunErr != "" {
			out.fail("live-mux: call %d: %s", call, c.RunErr)
		}
		if c.CheckErr != "" {
			out.fail("live-mux: call %d: strict audit: %s", call, c.CheckErr)
		}
		if latCounts == nil {
			latBounds, latCounts = c.LatBounds, make([]uint64, len(c.LatCounts))
		}
		for i, n := range c.LatCounts {
			latCounts[i] += n
		}
		addLive(&sum, c)
		if traced {
			root := r.tr.record("live.RunMulti", 0, res.spawned, res.exited)
			r.tr.record("live.setup", root, res.spawned, res.ready)
			// A call that never delivered everything has no drain or stop
			// phase to time.
			if c.OfferS > 0 && c.DrainS > 0 {
				at := func(s float64) time.Time { return res.ready.Add(time.Duration(s * float64(time.Second))) }
				r.tr.record("live.offer", root, res.ready, at(c.OfferS))
				r.tr.record("live.drain", root, at(c.OfferS), at(c.DrainS))
				r.tr.record("live.stop", root, at(c.DrainS), at(c.ReturnS))
				phased++
				offerS += c.OfferS
				drainS += c.DrainS - c.OfferS
				stopS += c.ReturnS - c.DrainS
				genLagS += c.OfferS - float64(c.Offered)/livePPS
			}
		}
	}
	for _, q := range []struct {
		q   float64
		dst *float64
	}{{0.50, &p50}, {0.99, &p99}} {
		*q.dst = 1e3 * histQuantile(latBounds, latCounts, q.q)
	}
	var samples uint64
	for _, n := range latCounts {
		samples += n
	}

	l := out.layer
	l["live.lat_p50_ms"] = p50
	l["live.lat_p99_ms"] = p99
	l["live.lat_samples"] = float64(samples)
	app := float64(sum.Delivered)
	// Datagram conservation hop by hop, from public counters: whatever a
	// hop's sender wrote that its receiver neither forwarded, dropped on
	// purpose nor decoded was lost in the kernel, or was in flight at stop.
	senderToProxy := float64(sum.SenderTx) - float64(sum.ProxyForwarded+sum.ProxyDropped)
	proxyToReceiver := float64(sum.ProxyForwarded) - float64(sum.ReceiverRx+sum.DecodeDrops)
	fwdUnaccounted := senderToProxy + proxyToReceiver
	revUnaccounted := float64(sum.ReceiverTx) - float64(sum.SenderRx)
	out.env["unaccounted_sender_to_proxy"] = senderToProxy
	out.env["unaccounted_proxy_to_receiver"] = proxyToReceiver
	l["live.wire_dgrams_per_pkt"] = ratio(float64(sum.MuxTxDgrams), app)
	l["live.mux.tx_dgrams_per_call"] = ratio(float64(sum.MuxTxDgrams), float64(sum.MuxTxCalls))
	l["live.mux.rx_dgrams_per_call"] = ratio(float64(sum.MuxRxDgrams), float64(sum.MuxRxCalls))
	l["live.mux.arena_frames_peak"] = float64(sum.ArenaPeak)
	l["live.proxy.dropped"] = float64(sum.ProxyDropped)
	// Masked: the share of the proxy's injected drops the apps never saw.
	// Kernel drops are never among them: they are unaccounted datagrams.
	l["live.masked_ratio"] = ratio(float64(sum.Masked), float64(sum.ProxyDropped))
	l["live.unaccounted_fwd"] = fwdUnaccounted
	l["live.unaccounted_rev"] = revUnaccounted
	l["live.wire.send_retries"] = float64(sum.SendRetries)
	l["live.wire.decode_drops"] = float64(sum.DecodeDrops)
	l["live.wire.send_drops"] = float64(sum.SendDrops)
	if phased > 0 {
		n := float64(phased)
		l["live.offer_s"] = offerS / n
		l["live.drain_s"] = drainS / n
		l["live.stop_s"] = stopS / n
		l["live.gen_lag_ms"] = 1e3 * genLagS / n
	}
	protected := sum.Core["lg.protected"]
	l["core.lost_pkts"] = sum.Core["lg.lost_packets"]
	l["core.retx_copies_per_loss"] = ratio(sum.Core["lg.retx_copies"], sum.Core["lg.retransmits"])
	l["core.unrecovered"] = sum.Core["lg.unrecovered"]
	l["core.dummies_per_pkt"] = ratio(sum.Core["lg.dummies_sent"], protected)
	l["core.acks_per_pkt"] = ratio(sum.Core["lg.acks_sent"], protected)
	l["core.rxbuf_peak_bytes"] = sum.Core["lg.rx_buf_peak"]
	l["core.txbuf_peak_bytes"] = sum.Core["lg.tx_buf_peak"]
	return out, nil
}

// addLive accumulates one call's counters into the run's totals.
func addLive(sum *liveCall, c liveCall) {
	sum.Delivered += c.Delivered
	sum.Masked += c.Masked
	sum.SenderTx += c.SenderTx
	sum.SenderRx += c.SenderRx
	sum.ReceiverTx += c.ReceiverTx
	sum.ReceiverRx += c.ReceiverRx
	sum.ProxyForwarded += c.ProxyForwarded
	sum.ProxyDropped += c.ProxyDropped
	sum.DecodeDrops += c.DecodeDrops
	sum.SendRetries += c.SendRetries
	sum.SendDrops += c.SendDrops
	sum.MuxTxDgrams += c.MuxTxDgrams
	sum.MuxTxCalls += c.MuxTxCalls
	sum.MuxRxDgrams += c.MuxRxDgrams
	sum.MuxRxCalls += c.MuxRxCalls
	sum.ArenaPeak = max(sum.ArenaPeak, c.ArenaPeak)
	for k, v := range c.Core {
		if strings.HasSuffix(k, "_peak") {
			sum.Core[k] = max(sum.Core[k], v)
		} else {
			sum.Core[k] += v
		}
	}
}
