// Package corropt reimplements the CorrOpt corruption-mitigation algorithms
// (Zhuo et al., SIGCOMM'17) as used in the paper's §4.8 large-scale
// evaluation, and the joint LinkGuardian+CorrOpt strategy of §3.6:
//
//   - the fast checker decides whether a corrupting link can be disabled
//     without pushing any ToR below the capacity constraint;
//   - the optimizer re-examines the remaining corrupting links whenever a
//     repair completes and disables those that have become safe, worst
//     loss rate first;
//   - with the joint policy, LinkGuardian is enabled on a corrupting link
//     immediately, reducing its penalty to the effective loss rate at the
//     cost of a slightly reduced effective link speed, whether or not the
//     link can also be scheduled for repair.
package corropt

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"linkguardian/internal/core"
	"linkguardian/internal/fabric"
	"linkguardian/internal/failtrace"
)

// Policy selects the mitigation strategy of §4.8.
type Policy int

// Policies compared in Figures 15 and 16.
const (
	// Vanilla is CorrOpt alone: disable when safe, otherwise live with
	// the corruption.
	Vanilla Policy = iota
	// WithLinkGuardian enables LinkGuardian on every corrupting link and
	// additionally schedules repairs through CorrOpt.
	WithLinkGuardian
)

func (p Policy) String() string {
	if p == WithLinkGuardian {
		return "LinkGuardian+CorrOpt"
	}
	return "CorrOpt"
}

// Mitigation is the per-link repair-solution seam of the fleet simulator:
// given a corrupting link's measured loss rate it returns the effective
// loss rate and effective capacity fraction the mitigation achieves, and
// whether it engages at all. internal/fleetsim adapts its Solution plugins
// into this type; when nil, Options.Policy selects one of the built-in
// behaviors (Vanilla: never engage; WithLinkGuardian: Equation 2 effective
// loss at Figure 8 effective speed).
type Mitigation func(lossRate float64) (effLoss, effCapacity float64, enabled bool)

// PolicyMitigation returns the built-in Mitigation for a policy, using the
// given operator target and effective-speed mapping.
func PolicyMitigation(p Policy, targetLoss float64, effSpeed func(lossRate float64) float64) Mitigation {
	if p == WithLinkGuardian {
		return func(q float64) (float64, float64, bool) {
			return EffLoss(q, targetLoss), effSpeed(q), true
		}
	}
	return func(q float64) (float64, float64, bool) { return q, 1, false }
}

// Options parameterizes a fleet simulation run.
type Options struct {
	Constraint float64 // least-paths-per-ToR constraint (0.5 or 0.75)
	Policy     Policy
	TargetLoss float64 // LinkGuardian operator target (1e-8)
	// EffSpeed maps a link's actual loss rate to LinkGuardian's effective
	// link speed fraction. Defaults to Figure8EffSpeed.
	EffSpeed func(lossRate float64) float64
	// Mitigate is the repair-solution plugin applied to each corruption
	// onset on a mitigation-capable link. Nil selects the built-in
	// behavior for Policy.
	Mitigate Mitigation

	// DeployFraction models incremental deployment (§5): only this
	// fraction of links terminate on LinkGuardian-capable switches.
	// Zero or 1 means full deployment. Capable links are chosen by a
	// deterministic hash of the link ID, standing in for a rollout that
	// upgrades switches over time.
	DeployFraction float64
}

// lgCapable reports whether a link's switches have been upgraded under the
// incremental-deployment fraction.
func (o Options) lgCapable(linkID int) bool {
	if o.DeployFraction <= 0 || o.DeployFraction >= 1 {
		return true
	}
	// Splitmix-style hash for a uniform, deterministic selection.
	x := uint64(linkID) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x%1e6)/1e6 < o.DeployFraction
}

// Figure8EffSpeed is the effective-link-speed mapping measured in Figure 8
// for ordered LinkGuardian on a 100G link: near-line-rate at 1e-5/1e-4 and
// ~8% reduction at 1e-3.
func Figure8EffSpeed(lossRate float64) float64 {
	switch {
	case lossRate <= 1e-5:
		return 0.998
	case lossRate <= 1e-4:
		return 0.99
	case lossRate <= 1e-3:
		return 0.92
	default:
		return 0.85
	}
}

// EffLoss is the effective loss rate LinkGuardian achieves on a link with
// the given actual rate: actual^(N+1) with N chosen by Equation 2.
func EffLoss(actual, target float64) float64 {
	if actual <= 0 {
		return 0
	}
	n := core.CopiesFor(actual, target)
	return math.Pow(actual, float64(n+1))
}

// Sample is one point of the Figure 15 time series.
type Sample struct {
	At time.Duration

	TotalPenalty float64
	LeastPaths   float64 // least paths per ToR, fraction of healthy
	LeastPodCap  float64 // least capacity per pod, fraction of healthy

	ActiveCorrupting int // corrupting links carrying traffic
	Disabled         int // links out for repair
	LGActive         int // LinkGuardian-enabled links
	// MaxLGPerPipe is the worst-case number of concurrently LG-enabled
	// links on one switch pipe (§5 "handling multiple corrupting links").
	MaxLGPerPipe int
}

// Run drives the fleet simulation: a corruption trace applied to a fabric
// under one policy, sampling metrics every sampleEvery up to horizon.
// The rng drives repair-time sampling only. The network must start with no
// corrupting links, as fabric.New builds it.
func Run(rng *rand.Rand, net *fabric.Network, trace []failtrace.Event, opts Options, sampleEvery, horizon time.Duration) []Sample {
	if len(net.Corrupting()) > 0 {
		panic("corropt: Run needs a network with no corrupting links")
	}
	if opts.EffSpeed == nil {
		opts.EffSpeed = Figure8EffSpeed
	}
	if opts.TargetLoss == 0 {
		opts.TargetLoss = 1e-8
	}
	if opts.Mitigate == nil {
		opts.Mitigate = PolicyMitigation(opts.Policy, opts.TargetLoss, opts.EffSpeed)
	}
	s := &simState{rng: rng, net: net, opts: opts}
	var samples []Sample
	ti := 0
	for t := sampleEvery; t <= horizon; t += sampleEvery {
		// Apply all events up to t in order, interleaving repairs.
		for {
			nextTrace := time.Duration(math.MaxInt64)
			if ti < len(trace) {
				nextTrace = trace[ti].At
			}
			nextRepair := s.nextRepairAt()
			if nextTrace > t && nextRepair > t {
				break
			}
			if nextRepair <= nextTrace {
				s.completeRepair()
			} else {
				s.onset(trace[ti])
				ti++
			}
		}
		samples = append(samples, s.sample(t))
	}
	return samples
}

type repairItem struct {
	at   time.Duration
	link int
}

type repairHeap []repairItem

func (h repairHeap) Len() int           { return len(h) }
func (h repairHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h repairHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *repairHeap) Push(x any)        { *h = append(*h, x.(repairItem)) }
func (h *repairHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

type simState struct {
	rng     *rand.Rand
	net     *fabric.Network
	opts    Options
	repairs repairHeap
	now     time.Duration
	ids     []int // optimizer scratch
}

func (s *simState) nextRepairAt() time.Duration {
	if len(s.repairs) == 0 {
		return time.Duration(math.MaxInt64)
	}
	return s.repairs[0].at
}

// onset handles a link starting to corrupt packets.
func (s *simState) onset(ev failtrace.Event) {
	s.now = ev.At
	if !s.net.Link(ev.LinkID).Up {
		return // already out for repair; corruption moot
	}
	s.net.SetCorrupting(ev.LinkID, ev.LossRate)
	if s.opts.lgCapable(ev.LinkID) {
		if effLoss, effSpeed, on := s.opts.Mitigate(ev.LossRate); on {
			s.net.EnableLG(ev.LinkID, effLoss, effSpeed)
		}
	}
	// CorrOpt fast checker: disable immediately if safe.
	if s.net.CanDisable(ev.LinkID, s.opts.Constraint) {
		s.disableForRepair(ev.LinkID)
	}
}

func (s *simState) disableForRepair(link int) {
	s.net.SetDown(link)
	heap.Push(&s.repairs, repairItem{at: s.now + failtrace.SampleRepairTime(s.rng), link: link})
}

// completeRepair returns a repaired link to service and runs CorrOpt's
// optimizer: newly freed capacity may allow other corrupting links to be
// disabled, worst penalty first. Only the repaired link's pod can hold a
// newly disableable link (DESIGN.md §13), so only its links are checked.
func (s *simState) completeRepair() {
	it := heap.Pop(&s.repairs).(repairItem)
	s.now = it.at
	s.net.SetUp(it.link)

	for _, id := range s.podByPenalty(it.link / s.net.Cfg().LinksPerPod()) {
		if s.net.CanDisable(id, s.opts.Constraint) {
			s.disableForRepair(id)
		}
	}
}

// podByPenalty lists a pod's up corrupting links, worst current penalty
// contribution first. Link IDs are pod-major, so the pod's links are one
// run of the sorted corrupting set.
func (s *simState) podByPenalty(pod int) []int {
	corrupting := s.net.Corrupting()
	lpp := s.net.Cfg().LinksPerPod()
	ids := s.ids[:0]
	for i := sort.SearchInts(corrupting, pod*lpp); i < len(corrupting) && corrupting[i] < (pod+1)*lpp; i++ {
		if id := corrupting[i]; s.net.Link(id).Up {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		if pa, pb := s.net.Penalty(a), s.net.Penalty(b); pa != pb {
			if pa > pb {
				return -1
			}
			return 1
		}
		return a - b // deterministic order on penalty ties
	})
	s.ids = ids
	return ids
}

func (s *simState) sample(at time.Duration) Sample {
	sm := Sample{
		At:           at,
		TotalPenalty: s.net.TotalPenalty(),
		LeastPaths:   s.net.LeastPathsFrac(),
		LeastPodCap:  s.net.LeastPodCapacityFrac(),
		Disabled:     len(s.repairs),
	}
	// Attribute each LG instance to the sending switch pipe, approximating
	// a pipe as a group of 16 ports of the pod. The corrupting set is
	// sorted, so each pipe's links are one run of it.
	pipe, run := -1, 0
	for _, id := range s.net.Corrupting() {
		l := s.net.Link(id)
		if !l.Up {
			continue
		}
		sm.ActiveCorrupting++
		if l.LG {
			sm.LGActive++
			if id/16 != pipe {
				pipe, run = id/16, 0
			}
			run++
			sm.MaxLGPerPipe = max(sm.MaxLGPerPipe, run)
		}
	}
	return sm
}

// Gain compares two runs of identical traces (vanilla vs combined) and
// returns, per sample, the gain in total penalty (vanilla/combined) and
// the decrease in least pod capacity (vanilla - combined, in percent
// points) — the Figure 16 CDF series.
func Gain(vanilla, combined []Sample) (penaltyGain, capDecrease []float64) {
	n := min(len(vanilla), len(combined))
	for i := 0; i < n; i++ {
		v, c := vanilla[i], combined[i]
		switch {
		case c.TotalPenalty == 0 && v.TotalPenalty == 0:
			penaltyGain = append(penaltyGain, 1)
		case c.TotalPenalty == 0:
			penaltyGain = append(penaltyGain, math.Inf(1))
		default:
			penaltyGain = append(penaltyGain, v.TotalPenalty/c.TotalPenalty)
		}
		capDecrease = append(capDecrease, (v.LeastPodCap-c.LeastPodCap)*100)
	}
	return penaltyGain, capDecrease
}
