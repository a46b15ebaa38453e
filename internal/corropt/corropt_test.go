package corropt

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"linkguardian/internal/fabric"
	"linkguardian/internal/failtrace"
)

func smallNet() *fabric.Network {
	return fabric.New(fabric.Config{Pods: 8, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48})
}

// denseTrace produces many corruption events concentrated in time so the
// capacity constraint actually binds on a small fabric.
func denseTrace(rng *rand.Rand, net *fabric.Network, n int, horizon time.Duration) []failtrace.Event {
	evs := make([]failtrace.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, failtrace.Event{
			At:       time.Duration(rng.Int63n(int64(horizon))),
			LinkID:   rng.Intn(net.NumLinks()),
			LossRate: failtrace.SampleLossRate(rng),
		})
	}
	// Sort by time.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].At < evs[j-1].At; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

func TestEffLossMatchesEquation2(t *testing.T) {
	cases := map[float64]float64{
		1e-4: 1e-8,  // N=1
		1e-3: 1e-9,  // N=2
		1e-5: 1e-10, // N=1
	}
	for actual, want := range cases {
		got := EffLoss(actual, 1e-8)
		if math.Abs(math.Log10(got)-math.Log10(want)) > 0.01 {
			t.Errorf("EffLoss(%g) = %g, want %g", actual, got, want)
		}
		if got > 1e-8*1.01 {
			t.Errorf("EffLoss(%g) = %g misses the 1e-8 target", actual, got)
		}
	}
}

func TestConstraintNeverViolated(t *testing.T) {
	for _, policy := range []Policy{Vanilla, WithLinkGuardian} {
		rng := rand.New(rand.NewSource(1))
		net := smallNet()
		horizon := 30 * 24 * time.Hour
		trace := denseTrace(rng, net, 600, horizon)
		samples := Run(rng, net, trace, Options{Constraint: 0.75, Policy: policy}, 6*time.Hour, horizon)
		if len(samples) == 0 {
			t.Fatal("no samples")
		}
		for _, s := range samples {
			if s.LeastPaths < 0.75-1e-9 {
				t.Fatalf("[%v] constraint violated: least paths %.3f at %v", policy, s.LeastPaths, s.At)
			}
		}
	}
}

func TestCombinedPolicyReducesPenalty(t *testing.T) {
	horizon := 60 * 24 * time.Hour
	run := func(policy Policy) []Sample {
		rng := rand.New(rand.NewSource(7))
		net := smallNet()
		trace := denseTrace(rand.New(rand.NewSource(42)), net, 1200, horizon)
		return Run(rng, net, trace, Options{Constraint: 0.75, Policy: policy}, 6*time.Hour, horizon)
	}
	vanilla := run(Vanilla)
	combined := run(WithLinkGuardian)
	gains, capDec := Gain(vanilla, combined)

	// Once corruption pressure builds, the combined policy must deliver
	// orders-of-magnitude lower penalty at nearly all sampled instants
	// with binding constraints.
	var better, total int
	maxGain := 0.0
	for _, g := range gains {
		if g > 1 {
			better++
		}
		if !math.IsInf(g, 1) && g > maxGain {
			maxGain = g
		}
		total++
	}
	if better < total/3 {
		t.Fatalf("combined better at only %d/%d samples", better, total)
	}
	if maxGain < 1e3 {
		t.Fatalf("max penalty gain %.3g, want orders of magnitude", maxGain)
	}
	// The capacity cost of running LinkGuardian is small (Figure 16b). The
	// synthetic trace here is ~100x denser than the realistic MTTF, so we
	// only bound the worst case loosely and require the typical cost to be
	// tiny.
	worst, sum := 0.0, 0.0
	for _, d := range capDec {
		if d > worst {
			worst = d
		}
		sum += d
	}
	if worst > 5.0 {
		t.Fatalf("worst least-capacity decrease %.2f%%, want < 5%%", worst)
	}
	if mean := sum / float64(len(capDec)); mean > 1.5 {
		t.Fatalf("mean least-capacity decrease %.2f%%, want ~small", mean)
	}
}

func TestVanillaStuckLinksKeepPenalty(t *testing.T) {
	// Saturate one pod's ToR so the fast checker must refuse: ToR 0 of pod
	// 0 has 4 uplinks; with a 75% constraint only one may go down.
	rng := rand.New(rand.NewSource(3))
	net := smallNet()
	var evs []failtrace.Event
	for f := 0; f < 4; f++ {
		evs = append(evs, failtrace.Event{
			At:       time.Duration(f+1) * time.Hour,
			LinkID:   net.TorLinkID(0, 0, f),
			LossRate: 1e-3,
		})
	}
	horizon := 24 * time.Hour
	samples := Run(rng, net, evs, Options{Constraint: 0.75, Policy: Vanilla}, time.Hour, horizon)
	last := samples[len(samples)-1]
	// One link disabled for repair; three remain corrupting at 1e-3.
	if last.ActiveCorrupting != 3 {
		t.Fatalf("active corrupting = %d, want 3", last.ActiveCorrupting)
	}
	if last.TotalPenalty < 2.9e-3 {
		t.Fatalf("vanilla penalty %.3g, want ~3e-3 from stuck links", last.TotalPenalty)
	}

	// Same scenario with LinkGuardian: penalty collapses to ~3 target
	// rates while capacity only dips slightly.
	rng = rand.New(rand.NewSource(3))
	net = smallNet()
	samples = Run(rng, net, evs, Options{Constraint: 0.75, Policy: WithLinkGuardian}, time.Hour, horizon)
	last = samples[len(samples)-1]
	if last.LGActive != 3 {
		t.Fatalf("LG active = %d, want 3", last.LGActive)
	}
	if last.TotalPenalty > 1e-7 {
		t.Fatalf("combined penalty %.3g, want ~3e-9", last.TotalPenalty)
	}
}

func TestRepairsEventuallyRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := smallNet()
	evs := []failtrace.Event{{At: time.Hour, LinkID: 123, LossRate: 1e-4}}
	horizon := 10 * 24 * time.Hour
	samples := Run(rng, net, evs, Options{Constraint: 0.5, Policy: Vanilla}, 12*time.Hour, horizon)
	last := samples[len(samples)-1]
	if last.TotalPenalty != 0 || last.Disabled != 0 || last.LeastPaths != 1 {
		t.Fatalf("fleet did not recover: %+v", last)
	}
	// Mid-run there must have been a repair in flight.
	sawRepair := false
	for _, s := range samples {
		if s.Disabled > 0 {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Fatal("link never scheduled for repair")
	}
}

func TestIncrementalDeployment(t *testing.T) {
	// Penalty should decrease monotonically (in expectation) as the
	// deployment fraction grows, with full deployment matching the plain
	// combined policy.
	horizon := 60 * 24 * time.Hour
	run := func(frac float64) float64 {
		rng := rand.New(rand.NewSource(7))
		net := smallNet()
		trace := denseTrace(rand.New(rand.NewSource(42)), net, 1200, horizon)
		samples := Run(rng, net, trace, Options{
			Constraint:     0.75,
			Policy:         WithLinkGuardian,
			DeployFraction: frac,
		}, 12*time.Hour, horizon)
		sum := 0.0
		for _, s := range samples {
			sum += s.TotalPenalty
		}
		return sum
	}
	p0 := run(0.0)   // 0 => treated as full deployment
	p25 := run(0.25) // partial
	p100 := run(1.0)
	// Equal up to float summation order (TotalPenalty sums a map).
	if math.Abs(p0-p100) > 1e-12*math.Max(p0, p100) {
		t.Fatalf("fraction 0 and 1 should both mean full deployment: %g vs %g", p0, p100)
	}
	if p25 <= p100 {
		t.Fatalf("25%% deployment penalty %g should exceed full deployment %g", p25, p100)
	}
	// Partial deployment still beats vanilla CorrOpt.
	rngV := rand.New(rand.NewSource(7))
	netV := smallNet()
	traceV := denseTrace(rand.New(rand.NewSource(42)), netV, 1200, horizon)
	vs := Run(rngV, netV, traceV, Options{Constraint: 0.75, Policy: Vanilla}, 12*time.Hour, horizon)
	vsum := 0.0
	for _, s := range vs {
		vsum += s.TotalPenalty
	}
	if p25 >= vsum {
		t.Fatalf("partial deployment %g should still beat vanilla %g", p25, vsum)
	}
}

func TestLGCapableDeterministicAndUniform(t *testing.T) {
	o := Options{DeployFraction: 0.3}
	n, hits := 100000, 0
	for id := 0; id < n; id++ {
		if o.lgCapable(id) {
			hits++
		}
		if o.lgCapable(id) != o.lgCapable(id) {
			t.Fatal("lgCapable not deterministic")
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("capable fraction %.3f, want ~0.30", frac)
	}
}

// runReference is Run with CorrOpt's optimizer as first written: every
// repair re-sorts all of the fleet's up corrupting links and checks each
// one, and every sample recomputes least paths from every ToR and the
// per-pipe LG count through a map. It is the oracle for the repaired-pod
// optimizer and the incremental sample metrics.
func runReference(rng *rand.Rand, net *fabric.Network, trace []failtrace.Event, opts Options, sampleEvery, horizon time.Duration) []Sample {
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
				it := heap.Pop(&s.repairs).(repairItem)
				s.now = it.at
				s.net.SetUp(it.link)
				for _, id := range referenceByPenalty(s.net) {
					if s.net.CanDisable(id, s.opts.Constraint) {
						s.disableForRepair(id)
					}
				}
			} else {
				s.onset(trace[ti])
				ti++
			}
		}
		samples = append(samples, referenceSample(s, t))
	}
	return samples
}

func referenceByPenalty(net *fabric.Network) []int {
	var ids []int
	for _, id := range net.Corrupting() {
		if net.Link(id).Up {
			ids = append(ids, id)
		}
	}
	penalty := func(id int) float64 {
		l := net.Link(id)
		if l.LG {
			return l.EffLoss
		}
		return l.LossRate
	}
	sort.Slice(ids, func(i, j int) bool {
		pi, pj := penalty(ids[i]), penalty(ids[j])
		if pi != pj {
			return pi > pj
		}
		return ids[i] < ids[j]
	})
	return ids
}

func referenceSample(s *simState, at time.Duration) Sample {
	cfg := s.net.Cfg()
	minPaths := cfg.MaxToRPaths()
	for p := 0; p < cfg.Pods; p++ {
		for t := 0; t < cfg.ToRsPerPod; t++ {
			minPaths = min(minPaths, s.net.ToRPaths(p, t))
		}
	}
	sm := Sample{
		At:           at,
		TotalPenalty: s.net.TotalPenalty(),
		LeastPaths:   float64(minPaths) / float64(cfg.MaxToRPaths()),
		LeastPodCap:  s.net.LeastPodCapacityFrac(),
		Disabled:     len(s.repairs),
	}
	perPipe := map[int]int{}
	for _, id := range s.net.Corrupting() {
		l := s.net.Link(id)
		if !l.Up {
			continue
		}
		sm.ActiveCorrupting++
		if l.LG {
			sm.LGActive++
			perPipe[id/16]++
		}
	}
	for _, c := range perPipe {
		sm.MaxLGPerPipe = max(sm.MaxLGPerPipe, c)
	}
	return sm
}

// TestRunMatchesFullScanReference pins the repaired-pod optimizer to the
// full-scan reference: identical sample series, floats compared bitwise,
// across fabric sizes, constraints, trace seeds, deployment fractions and
// both policies. Pods of 8 ToRs and 8 spines per plane make every
// constraint bind at this trace density, so every configuration has
// repairs that let the optimizer disable links; the full-size pod is
// pinned by the experiments package's fleet golden.
func TestRunMatchesFullScanReference(t *testing.T) {
	horizon := 60 * 24 * time.Hour
	for _, pods := range []int{1, 2, 4, 16} {
		cfg := fabric.Config{Pods: pods, ToRsPerPod: 8, FabricsPerPod: 4, SpinesPerPlane: 8}
		for _, constraint := range []float64{0.5, 0.75, 0.9, 0.95} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, frac := range []float64{0.25, 1} {
					for _, policy := range []Policy{Vanilla, WithLinkGuardian} {
						trace := denseTrace(rand.New(rand.NewSource(seed)), fabric.New(cfg), 200*pods, horizon)
						opts := Options{Constraint: constraint, Policy: policy, DeployFraction: frac}
						got := Run(rand.New(rand.NewSource(seed+100)), fabric.New(cfg), trace, opts, 6*time.Hour, horizon)
						want := runReference(rand.New(rand.NewSource(seed+100)), fabric.New(cfg), trace, opts, 6*time.Hour, horizon)
						if i := firstSampleDiff(got, want); i >= 0 {
							t.Fatalf("pods=%d constraint=%g seed=%d deploy=%g %v: sample %d differs:\n got %+v\nwant %+v",
								pods, constraint, seed, frac, policy, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// firstSampleDiff returns the index of the first sample that differs,
// comparing floats by bit pattern, or -1 when the series are identical.
func firstSampleDiff(a, b []Sample) int {
	for i := range a {
		if i >= len(b) {
			return i
		}
		x, y := a[i], b[i]
		same := x.At == y.At &&
			math.Float64bits(x.TotalPenalty) == math.Float64bits(y.TotalPenalty) &&
			math.Float64bits(x.LeastPaths) == math.Float64bits(y.LeastPaths) &&
			math.Float64bits(x.LeastPodCap) == math.Float64bits(y.LeastPodCap) &&
			x.ActiveCorrupting == y.ActiveCorrupting && x.Disabled == y.Disabled &&
			x.LGActive == y.LGActive && x.MaxLGPerPipe == y.MaxLGPerPipe
		if !same {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}
