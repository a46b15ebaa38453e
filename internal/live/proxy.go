package live

import (
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"linkguardian/internal/simnet"
)

// Proxy is the in-path impairment relay: the live stand-in for the
// testbed's variable optical attenuator (§4 of the paper). It forwards
// datagrams from its listen socket to a target address, dropping each with
// a seeded loss model (i.i.d. Bernoulli or bursty Gilbert–Elliott — the
// same simnet.LossModel implementations the simulated links use), delaying
// surviving datagrams by a uniform jitter, and occasionally swapping a
// datagram with its successor.
//
// Impairments are deliberately separable: jitter spreads inter-arrival
// times but preserves order (a single FIFO forwarder carries every
// datagram — per-datagram timers would let the OS scheduler shuffle
// arbitrarily deep, an impairment no physical link exhibits), while
// ReorderProb injects the bounded adjacent-swap reordering a real
// multi-lane path can produce.
//
// The proxy never parses what it carries; like an attenuator, it degrades
// the channel without knowing the protocol.
type Proxy struct {
	conn *net.UDPConn
	to   *net.UDPAddr

	imp impairment

	forwarded atomic.Uint64
	dropped   atomic.Uint64
	delayed   atomic.Uint64
	swapped   atomic.Uint64

	fq     chan fwdItem
	closed chan struct{}
	fdone  chan struct{}
}

// fwdItem is one datagram waiting in the forwarder's FIFO.
type fwdItem struct {
	b   []byte
	due time.Time
}

// ProxyImpair bundles the proxy's impairment knobs.
type ProxyImpair struct {
	// Model decides per-datagram corruption; nil means lossless.
	Model simnet.LossModel
	// Jitter, if positive, delays each surviving datagram by a uniform
	// random span in [0, Jitter). Order is preserved.
	Jitter time.Duration
	// ReorderProb is the per-datagram probability of being held back and
	// emitted after its successor (one adjacent swap).
	ReorderProb float64
}

// impairment is the proxy's per-datagram decision stream: drop, jitter,
// hold for a swap. It consumes the seeded RNG in arrival order and nothing
// else, so the fault pattern a link sees is a pure function of its seed
// and knobs, whatever the sockets around the proxy do.
type impairment struct {
	model   simnet.LossModel
	rng     *rand.Rand
	jitter  time.Duration
	reorder float64
}

func newImpairment(imp ProxyImpair, seed int64) impairment {
	if imp.Model == nil {
		imp.Model = simnet.NoLoss{}
	}
	return impairment{
		model:   imp.Model,
		rng:     rand.New(rand.NewSource(seed)),
		jitter:  imp.Jitter,
		reorder: imp.ReorderProb,
	}
}

// next decides the fate of the next arriving datagram: dropped, or
// forwarded after delay, and held back to follow its successor when hold
// (never while holding, another datagram is already held).
func (m *impairment) next(holding bool) (drop bool, delay time.Duration, hold bool) {
	if m.model.Drops(m.rng) {
		return true, 0, false
	}
	if m.jitter > 0 {
		delay = time.Duration(m.rng.Int63n(int64(m.jitter)))
	}
	hold = !holding && m.reorder > 0 && m.rng.Float64() < m.reorder
	return false, delay, hold
}

// NewProxy starts an impairment relay on listen, forwarding to target.
// Close releases the sockets.
func NewProxy(listen, target string, imp ProxyImpair, seed int64) (*Proxy, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, err
	}
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		conn:   conn,
		to:     taddr,
		imp:    newImpairment(imp, seed),
		fq:     make(chan fwdItem, 4096),
		closed: make(chan struct{}),
		fdone:  make(chan struct{}),
	}
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	go p.forward()
	go p.run()
	return p, nil
}

// Addr returns the proxy's bound listen address — the address senders
// target when the proxy was started on port 0.
func (p *Proxy) Addr() *net.UDPAddr { return p.conn.LocalAddr().(*net.UDPAddr) }

// Forwarded returns how many datagrams reached the target socket.
func (p *Proxy) Forwarded() uint64 { return p.forwarded.Load() }

// Dropped returns how many datagrams the loss model corrupted.
func (p *Proxy) Dropped() uint64 { return p.dropped.Load() }

// Delayed returns how many datagrams were jittered rather than forwarded
// immediately.
func (p *Proxy) Delayed() uint64 { return p.delayed.Load() }

// Swapped returns how many adjacent-pair reorders were injected.
func (p *Proxy) Swapped() uint64 { return p.swapped.Load() }

// Close stops the relay, flushes datagrams still queued in the forwarder,
// and releases the socket.
func (p *Proxy) Close() {
	select {
	case <-p.closed:
		return
	default:
	}
	close(p.closed)
	_ = p.conn.Close()
	<-p.fdone
}

// run reads datagrams, applies the drop/jitter/swap decisions in arrival
// order, and feeds the forwarder FIFO. A datagram chosen for reordering is
// held until the next survivor, then enqueued behind it.
func (p *Proxy) run() {
	var held *fwdItem
	enqueue := func(it fwdItem) bool {
		select {
		case p.fq <- it:
			return true
		case <-p.closed:
			return false
		}
	}
	defer func() {
		if held != nil {
			enqueue(*held)
		}
		close(p.fq)
	}()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		drop, delay, hold := p.imp.next(held != nil)
		if drop {
			p.dropped.Add(1)
			continue
		}
		if p.imp.jitter > 0 {
			p.delayed.Add(1)
		}
		b := make([]byte, n)
		copy(b, buf[:n])
		it := fwdItem{b: b, due: time.Now().Add(delay)}
		if hold {
			held = &it // emitted right after the next survivor
			continue
		}
		if !enqueue(it) {
			return
		}
		if held != nil {
			p.swapped.Add(1)
			ok := enqueue(*held)
			held = nil
			if !ok {
				return
			}
		}
	}
}

// forward drains the FIFO: sleep until each datagram's due time, then write
// it out. Order is exactly the enqueue order regardless of due times, so
// jitter stretches spacing without shuffling.
func (p *Proxy) forward() {
	defer close(p.fdone)
	for it := range p.fq {
		if wait := time.Until(it.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := p.conn.WriteToUDP(it.b, p.to); err == nil {
			p.forwarded.Add(1)
		}
	}
}
