// Package fabric models the Facebook datacenter fabric of Figure 4: pods
// of 48 top-of-rack switches connected to 4 fabric switches each, with each
// fabric switch uplinked to the 48 spine switches of its spine plane. It
// maintains per-link state (up/disabled, corrupting, LinkGuardian-enabled)
// and computes the §4.8 evaluation metrics: total penalty, least paths per
// ToR, and least capacity per pod.
package fabric

import (
	"fmt"
	"sort"
)

// Config sizes the fabric. The default (256 pods) yields 98,304
// switch-to-switch optical links — the paper's "about 100K links" at 1:1
// oversubscription.
type Config struct {
	Pods           int
	ToRsPerPod     int
	FabricsPerPod  int
	SpinesPerPlane int
}

// DefaultConfig is the Figure 4 pod shape at ~100K-link scale.
func DefaultConfig() Config {
	return Config{Pods: 256, ToRsPerPod: 48, FabricsPerPod: 4, SpinesPerPlane: 48}
}

// NumLinks returns the total optical link count of a fabric with this
// configuration, without allocating the (potentially ~100K-link) Network.
func (c Config) NumLinks() int {
	return c.Pods * c.LinksPerPod()
}

// TorLinksPerPod is the number of ToR-to-fabric links in one pod.
func (c Config) TorLinksPerPod() int { return c.ToRsPerPod * c.FabricsPerPod }

// SpineLinksPerPod is the number of fabric-to-spine links in one pod.
func (c Config) SpineLinksPerPod() int { return c.FabricsPerPod * c.SpinesPerPlane }

// LinksPerPod is the total optical link count of one pod. Link IDs are laid
// out pod-major: pod p owns [p*LinksPerPod(), (p+1)*LinksPerPod()), ToR
// links first, spine links after — the layout contract shared by Network
// and the compact per-shard state of internal/fleetsim.
func (c Config) LinksPerPod() int { return c.TorLinksPerPod() + c.SpineLinksPerPod() }

// MaxToRPaths is the healthy per-ToR path count (192 for the default pod).
func (c Config) MaxToRPaths() int { return c.FabricsPerPod * c.SpinesPerPlane }

// PodsFor returns the smallest pod count whose fabric has at least the
// given number of links — how cmd/fleetsim turns a -links target into a
// concrete topology.
func (c Config) PodsFor(links int) int {
	per := c.LinksPerPod()
	if links <= per {
		return 1
	}
	return (links + per - 1) / per
}

// Link is the state of one optical link.
type Link struct {
	Up         bool
	Corrupting bool
	LossRate   float64 // actual corruption loss rate when Corrupting
	LG         bool    // LinkGuardian enabled
	EffLoss    float64 // effective loss rate with LG enabled
	EffSpeed   float64 // effective capacity fraction (1.0 = full speed)
}

// Network is a fabric instance with mutable link state.
type Network struct {
	cfg   Config
	links []Link

	// spineUp[pod][fab] counts up fabric->spine links, the quantity that
	// determines every ToR's path count.
	spineUp [][]int

	// podCap[pod] sums EffSpeed over the pod's up links (ToR-fabric and
	// fabric-spine), maintained incrementally.
	podCap []float64

	// corrupting holds the IDs of currently corrupting links, kept sorted:
	// metric sweeps iterate (and sum floats over) this set every sample,
	// and map order would make those sums vary run to run.
	corrupting []int

	// podPaths caches each pod's least ToR path count. SetDown and SetUp,
	// the only mutations that change path counts, mark the pod dirty;
	// LeastPathsFrac recomputes dirty pods lazily.
	podPaths []int
	podDirty []bool
	dirty    []int
}

// New builds a fully healthy fabric.
func New(cfg Config) *Network {
	n := &Network{cfg: cfg}
	n.links = make([]Link, n.NumLinks())
	for i := range n.links {
		n.links[i] = Link{Up: true, EffSpeed: 1}
	}
	n.spineUp = make([][]int, cfg.Pods)
	n.podCap = make([]float64, cfg.Pods)
	n.podPaths = make([]int, cfg.Pods)
	n.podDirty = make([]bool, cfg.Pods)
	for p := range n.spineUp {
		n.spineUp[p] = make([]int, cfg.FabricsPerPod)
		for f := range n.spineUp[p] {
			n.spineUp[p][f] = cfg.SpinesPerPlane
		}
		n.podCap[p] = float64(n.linksPerPod())
		n.podPaths[p] = cfg.MaxToRPaths()
	}
	return n
}

// Cfg returns the network's configuration.
func (n *Network) Cfg() Config { return n.cfg }

func (n *Network) torLinksPerPod() int { return n.cfg.TorLinksPerPod() }
func (n *Network) linksPerPod() int    { return n.cfg.LinksPerPod() }

// NumLinks returns the total optical link count.
func (n *Network) NumLinks() int { return n.cfg.NumLinks() }

// TorLinkID returns the ID of the ToR-to-fabric link (pod, tor, fab).
func (n *Network) TorLinkID(pod, tor, fab int) int {
	return pod*n.linksPerPod() + tor*n.cfg.FabricsPerPod + fab
}

// SpineLinkID returns the ID of the fabric-to-spine link (pod, fab, spine).
func (n *Network) SpineLinkID(pod, fab, spine int) int {
	return pod*n.linksPerPod() + n.torLinksPerPod() + fab*n.cfg.SpinesPerPlane + spine
}

// Describe decodes a link ID.
func (n *Network) Describe(id int) string {
	pod := id / n.linksPerPod()
	off := id % n.linksPerPod()
	if off < n.torLinksPerPod() {
		return fmt.Sprintf("pod%d/tor%d-fab%d", pod, off/n.cfg.FabricsPerPod, off%n.cfg.FabricsPerPod)
	}
	off -= n.torLinksPerPod()
	return fmt.Sprintf("pod%d/fab%d-spine%d", pod, off/n.cfg.SpinesPerPlane, off%n.cfg.SpinesPerPlane)
}

// Link returns a copy of the link's state.
func (n *Network) Link(id int) Link { return n.links[id] }

// isSpineLink reports whether id is a fabric-to-spine link, and its pod and
// fabric index.
func (n *Network) isSpineLink(id int) (pod, fab int, ok bool) {
	pod = id / n.linksPerPod()
	off := id % n.linksPerPod()
	if off < n.torLinksPerPod() {
		return pod, 0, false
	}
	off -= n.torLinksPerPod()
	return pod, off / n.cfg.SpinesPerPlane, true
}

func (n *Network) pod(id int) int { return id / n.linksPerPod() }

func (n *Network) markDirty(pod int) {
	if !n.podDirty[pod] {
		n.podDirty[pod] = true
		n.dirty = append(n.dirty, pod)
	}
}

// SetDown disables a link (taking it out for repair).
func (n *Network) SetDown(id int) {
	l := &n.links[id]
	if !l.Up {
		return
	}
	n.podCap[n.pod(id)] -= l.EffSpeed
	l.Up = false
	if pod, fab, ok := n.isSpineLink(id); ok {
		n.spineUp[pod][fab]--
	}
	n.markDirty(n.pod(id))
}

// SetUp re-enables a repaired link, clearing corruption state.
func (n *Network) SetUp(id int) {
	l := &n.links[id]
	if l.Up {
		return
	}
	l.Up = true
	l.Corrupting = false
	l.LG = false
	l.LossRate, l.EffLoss = 0, 0
	l.EffSpeed = 1
	n.podCap[n.pod(id)] += 1
	if pod, fab, ok := n.isSpineLink(id); ok {
		n.spineUp[pod][fab]++
	}
	n.markDirty(n.pod(id))
	if i := sort.SearchInts(n.corrupting, id); i < len(n.corrupting) && n.corrupting[i] == id {
		n.corrupting = append(n.corrupting[:i], n.corrupting[i+1:]...)
	}
}

// SetCorrupting marks an up link as corrupting with the given loss rate.
func (n *Network) SetCorrupting(id int, lossRate float64) {
	l := &n.links[id]
	l.Corrupting = true
	l.LossRate = lossRate
	if i := sort.SearchInts(n.corrupting, id); i == len(n.corrupting) || n.corrupting[i] != id {
		n.corrupting = append(n.corrupting, 0)
		copy(n.corrupting[i+1:], n.corrupting[i:])
		n.corrupting[i] = id
	}
}

// EnableLG activates LinkGuardian on a corrupting link, setting its
// effective loss rate and effective capacity fraction.
func (n *Network) EnableLG(id int, effLoss, effSpeed float64) {
	l := &n.links[id]
	if l.Up {
		n.podCap[n.pod(id)] += effSpeed - l.EffSpeed
	}
	l.LG = true
	l.EffLoss = effLoss
	l.EffSpeed = effSpeed
}

// Penalty is the link's contribution to TotalPenalty while it is up: its
// effective loss rate when LinkGuardian is enabled, else its loss rate.
func (n *Network) Penalty(id int) float64 {
	l := &n.links[id]
	if l.LG {
		return l.EffLoss
	}
	return l.LossRate
}

// Corrupting returns the IDs of links currently corrupting (whether or not
// they are disabled or LG-protected), in ascending order. The caller must
// not modify the returned slice.
func (n *Network) Corrupting() []int {
	return n.corrupting
}

// ----------------------------------------------------------- metrics ----

// ToRPaths returns the number of valley-free paths from a ToR to the spine
// layer: for each up ToR-fabric link, the fabric switch contributes its up
// spine-link count.
func (n *Network) ToRPaths(pod, tor int) int {
	paths := 0
	for f := 0; f < n.cfg.FabricsPerPod; f++ {
		if n.links[n.TorLinkID(pod, tor, f)].Up {
			paths += n.spineUp[pod][f]
		}
	}
	return paths
}

// MaxToRPaths is the healthy per-ToR path count (192 for the default pod).
func (n *Network) MaxToRPaths() int { return n.cfg.MaxToRPaths() }

// LeastPathsFrac returns the worst-case ToR's fraction of healthy paths —
// the capacity-constraint metric of §4.8.
func (n *Network) LeastPathsFrac() float64 {
	for _, p := range n.dirty {
		least := n.MaxToRPaths()
		for t := 0; t < n.cfg.ToRsPerPod; t++ {
			if paths := n.ToRPaths(p, t); paths < least {
				least = paths
			}
		}
		n.podPaths[p] = least
		n.podDirty[p] = false
	}
	n.dirty = n.dirty[:0]
	minPaths := n.MaxToRPaths()
	for _, paths := range n.podPaths {
		minPaths = min(minPaths, paths)
	}
	return float64(minPaths) / float64(n.MaxToRPaths())
}

// LeastPodCapacityFrac returns the worst-case pod's ToR-to-spine capacity
// as a fraction of healthy capacity, where LinkGuardian-enabled links count
// at their effective speed.
func (n *Network) LeastPodCapacityFrac() float64 {
	minCap := n.podCap[0]
	for _, c := range n.podCap[1:] {
		if c < minCap {
			minCap = c
		}
	}
	return minCap / float64(n.linksPerPod())
}

// TotalPenalty sums the loss rates of all active (up) corrupting links;
// LinkGuardian-protected links contribute their effective loss rate (§4.8).
func (n *Network) TotalPenalty() float64 {
	total := 0.0
	for _, id := range n.Corrupting() {
		if n.links[id].Up {
			total += n.Penalty(id)
		}
	}
	return total
}

// ------------------------------------------------- CorrOpt fast checker --

// CanDisable implements CorrOpt's fast checker: whether taking link id down
// keeps every affected ToR at or above constraint (a fraction of healthy
// paths). Only the link's own pod is affected in this topology.
func (n *Network) CanDisable(id int, constraint float64) bool {
	if !n.links[id].Up {
		return false
	}
	need := int(constraint * float64(n.MaxToRPaths()))
	pod := n.pod(id)
	if p, fab, ok := n.isSpineLink(id); ok {
		// Every ToR attached to this fabric switch loses one path.
		for t := 0; t < n.cfg.ToRsPerPod; t++ {
			if !n.links[n.TorLinkID(p, t, fab)].Up {
				continue
			}
			if n.ToRPaths(p, t)-1 < need {
				return false
			}
		}
		return true
	}
	// ToR-fabric link: only that ToR loses the fabric switch's paths.
	off := id % n.linksPerPod()
	tor := off / n.cfg.FabricsPerPod
	fab := off % n.cfg.FabricsPerPod
	return n.ToRPaths(pod, tor)-n.spineUp[pod][fab] >= need
}
