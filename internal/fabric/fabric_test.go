package fabric

import (
	"math"
	"math/rand"
	"testing"
)

func small() *Network {
	return New(Config{Pods: 4, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48})
}

func TestSizing(t *testing.T) {
	n := New(DefaultConfig())
	if got := n.NumLinks(); got != 98304 {
		t.Fatalf("default fabric has %d links, want 98304 (~100K)", got)
	}
	if n.MaxToRPaths() != 192 {
		t.Fatalf("MaxToRPaths = %d, want 192 (Figure 4)", n.MaxToRPaths())
	}
}

func TestHealthyMetrics(t *testing.T) {
	n := small()
	if f := n.LeastPathsFrac(); f != 1 {
		t.Fatalf("healthy LeastPathsFrac = %v", f)
	}
	if f := n.LeastPodCapacityFrac(); f != 1 {
		t.Fatalf("healthy LeastPodCapacityFrac = %v", f)
	}
	if p := n.TotalPenalty(); p != 0 {
		t.Fatalf("healthy TotalPenalty = %v", p)
	}
}

func TestLinkIDsRoundTrip(t *testing.T) {
	n := small()
	seen := map[int]bool{}
	for pod := 0; pod < 4; pod++ {
		for tor := 0; tor < 48; tor++ {
			for fab := 0; fab < 4; fab++ {
				id := n.TorLinkID(pod, tor, fab)
				if seen[id] {
					t.Fatalf("duplicate ToR link id %d", id)
				}
				seen[id] = true
			}
		}
		for fab := 0; fab < 4; fab++ {
			for sp := 0; sp < 48; sp++ {
				id := n.SpineLinkID(pod, fab, sp)
				if seen[id] {
					t.Fatalf("duplicate spine link id %d", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != n.NumLinks() {
		t.Fatalf("enumerated %d ids, want %d", len(seen), n.NumLinks())
	}
}

func TestDisableSpineLinkAffectsAllToRs(t *testing.T) {
	n := small()
	// Figure 4's Link A scenario: one fabric-spine link down costs every
	// ToR in the pod exactly one path.
	n.SetDown(n.SpineLinkID(1, 2, 7))
	for tor := 0; tor < 48; tor++ {
		if got := n.ToRPaths(1, tor); got != 191 {
			t.Fatalf("tor %d has %d paths, want 191", tor, got)
		}
	}
	// Other pods untouched.
	if got := n.ToRPaths(0, 0); got != 192 {
		t.Fatalf("pod 0 affected: %d paths", got)
	}
	if f := n.LeastPathsFrac(); f != 191.0/192 {
		t.Fatalf("LeastPathsFrac = %v", f)
	}
}

func TestDisableToRLink(t *testing.T) {
	n := small()
	n.SetDown(n.TorLinkID(0, 5, 1))
	if got := n.ToRPaths(0, 5); got != 144 {
		t.Fatalf("ToR lost a fabric switch: %d paths, want 144", got)
	}
	if got := n.ToRPaths(0, 6); got != 192 {
		t.Fatalf("neighbor ToR affected: %d", got)
	}
}

func TestFastCheckerFigure4Scenario(t *testing.T) {
	// The paper's §2 walkthrough: with a 75% constraint, link A (a
	// ToR-fabric link) can be disabled; once it is down, link B (another
	// link of the same ToR) cannot.
	n := small()
	linkA := n.TorLinkID(2, 0, 0)
	if !n.CanDisable(linkA, 0.75) {
		t.Fatal("healthy fabric: link A must be disableable at 75%")
	}
	n.SetDown(linkA)
	// ToR 0 of pod 2 now has 144/192 = 75%: losing any further path
	// violates the constraint.
	linkB := n.TorLinkID(2, 0, 1)
	if n.CanDisable(linkB, 0.75) {
		t.Fatal("link B must not be disableable once A is down")
	}
	// A spine link on a fabric switch still serving ToR 0 is also blocked.
	spine := n.SpineLinkID(2, 1, 3)
	if n.CanDisable(spine, 0.75) {
		t.Fatal("spine link would push ToR 0 below 75%")
	}
	// But with a 50% constraint both remain fine.
	if !n.CanDisable(linkB, 0.5) || !n.CanDisable(spine, 0.5) {
		t.Fatal("50%% constraint should allow further disables")
	}
}

func TestSetUpRestores(t *testing.T) {
	n := small()
	id := n.SpineLinkID(0, 0, 0)
	n.SetCorrupting(id, 1e-3)
	n.SetDown(id)
	n.SetUp(id)
	l := n.Link(id)
	if !l.Up || l.Corrupting || l.LG || l.LossRate != 0 || l.EffSpeed != 1 {
		t.Fatalf("repair did not reset state: %+v", l)
	}
	if n.LeastPathsFrac() != 1 || n.TotalPenalty() != 0 {
		t.Fatal("metrics not restored after repair")
	}
}

func TestPenaltyAndLG(t *testing.T) {
	n := small()
	a, b := n.SpineLinkID(0, 0, 0), n.TorLinkID(1, 0, 0)
	n.SetCorrupting(a, 1e-3)
	n.SetCorrupting(b, 1e-5)
	if got := n.TotalPenalty(); got != 1e-3+1e-5 {
		t.Fatalf("TotalPenalty = %g", got)
	}
	n.EnableLG(a, 1e-9, 0.92)
	want := 1e-9 + 1e-5
	if got := n.TotalPenalty(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("with LG: TotalPenalty = %g, want %g", got, want)
	}
	// Effective speed reduces the pod's capacity fraction.
	wantCap := (float64(n.linksPerPod()) - 1 + 0.92) / float64(n.linksPerPod())
	if got := n.LeastPodCapacityFrac(); got != wantCap {
		t.Fatalf("LeastPodCapacityFrac = %v, want %v", got, wantCap)
	}
	// Disabling the LG link removes both its penalty and its capacity.
	n.SetDown(a)
	if got := n.TotalPenalty(); got != 1e-5 {
		t.Fatalf("after disable: TotalPenalty = %g", got)
	}
}

func TestPodCapacityConsistency(t *testing.T) {
	// Random walk of state changes: incremental podCap must equal a
	// from-scratch recomputation.
	n := small()
	rng := rand.New(rand.NewSource(1))
	ids := rng.Perm(n.NumLinks())[:500]
	for i, id := range ids {
		switch i % 4 {
		case 0:
			n.SetDown(id)
		case 1:
			n.SetUp(id)
		case 2:
			n.SetCorrupting(id, 1e-4)
			n.EnableLG(id, 1e-8, 0.95)
		case 3:
			n.SetUp(id)
		}
	}
	for p := 0; p < n.cfg.Pods; p++ {
		want := 0.0
		for off := 0; off < n.linksPerPod(); off++ {
			l := n.links[p*n.linksPerPod()+off]
			if l.Up {
				want += l.EffSpeed
			}
		}
		if diff := want - n.podCap[p]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("pod %d capacity drift: incremental %v, recomputed %v", p, n.podCap[p], want)
		}
	}
}

// TestLeastPathsCacheMatchesBruteForce drives random link-state changes
// on small fabrics and checks the per-pod least-paths cache against a
// from-scratch minimum over every ToR after every step.
func TestLeastPathsCacheMatchesBruteForce(t *testing.T) {
	for _, cfg := range []Config{
		{Pods: 1, ToRsPerPod: 4, FabricsPerPod: 2, SpinesPerPlane: 4},
		{Pods: 3, ToRsPerPod: 8, FabricsPerPod: 4, SpinesPerPlane: 8},
	} {
		n := New(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.Pods)))
		for step := 0; step < 5000; step++ {
			// Repairs outnumber disables 3:1, holding about a quarter of
			// the links down so path counts keep moving instead of
			// settling at zero.
			id := rng.Intn(n.NumLinks())
			switch op := rng.Intn(8); {
			case op == 0:
				n.SetDown(id)
			case op <= 3:
				n.SetUp(id)
			case op <= 5:
				n.SetCorrupting(id, 1e-4)
			default:
				n.EnableLG(id, 1e-8, 0.95)
			}
			least := n.MaxToRPaths()
			for p := 0; p < cfg.Pods; p++ {
				for tor := 0; tor < cfg.ToRsPerPod; tor++ {
					least = min(least, n.ToRPaths(p, tor))
				}
			}
			want := float64(least) / float64(n.MaxToRPaths())
			if got := n.LeastPathsFrac(); got != want {
				t.Fatalf("%+v step %d: LeastPathsFrac = %v, brute force %v", cfg, step, got, want)
			}
		}
	}
}
