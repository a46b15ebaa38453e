package fleetsim

import (
	"fmt"
	"math"
)

// checkInvariants audits the shard's streaming state against a brute-force
// recomputation from the packed link array. It is the oracle behind the
// per-link lifetime fuzz target and the consistency unit tests; it is
// never called on the simulation path.
//
// Invariants:
//   - per-pod capacity is never negative and never exceeds the healthy pod
//     capacity (within float tolerance);
//   - the incremental penalty, capacity, and counter aggregates match a
//     from-scratch recomputation;
//   - the corrupting set is sorted, duplicate-free, and contains exactly
//     the links whose corrupting flag is set;
//   - every scheduled repair refers to a distinct link that is down and
//     still marked corrupting (a repair is only ever dispatched for a
//     corrupting link, and only one repair per link can be in flight);
//   - spine-link up-counts match the packed link flags;
//   - every pod is settled: no up corrupting link passes canDisable. This
//     is the exactness argument of the repaired-pod optimizer (DESIGN.md
//     §13): between events the fast checker and the last optimizer pass
//     leave no disableable link anywhere, so a repair need only re-check
//     its own pod.
func (s *shard) checkInvariants() error {
	const tol = 1e-6
	var penalty float64
	podCap := make([]float64, s.pods)
	spineUp := make([]int16, len(s.spineUp))
	var activeCorr, protected int32
	corruptFlagged := 0
	for l := range s.links {
		st := &s.links[l]
		link := int32(l)
		pod := s.pod(link)
		if st.corrupting() {
			corruptFlagged++
		}
		if !st.up() {
			continue
		}
		podCap[pod] += float64(st.effSpeed)
		if s.isSpine(link) {
			spineUp[pod*s.fabrics+s.spineFab(link)]++
		}
		if st.corrupting() {
			activeCorr++
			penalty += st.contribution()
		}
		if st.protected() {
			protected++
		}
	}
	for p, c := range s.podCap {
		if c < -tol {
			return fmt.Errorf("pod %d capacity negative: %g", p, c)
		}
		if c > float64(s.lpp)+tol {
			return fmt.Errorf("pod %d capacity %g exceeds healthy %d", p, c, s.lpp)
		}
		if math.Abs(c-podCap[p]) > tol {
			return fmt.Errorf("pod %d incremental capacity %g != recomputed %g", p, c, podCap[p])
		}
	}
	if math.Abs(s.penalty-penalty) > tol*(1+math.Abs(penalty)) {
		return fmt.Errorf("incremental penalty %g != recomputed %g", s.penalty, penalty)
	}
	if s.activeCorr != activeCorr {
		return fmt.Errorf("activeCorr %d != recomputed %d", s.activeCorr, activeCorr)
	}
	if s.protectedCount != protected {
		return fmt.Errorf("protectedCount %d != recomputed %d", s.protectedCount, protected)
	}
	for i, su := range s.spineUp {
		if su != spineUp[i] {
			return fmt.Errorf("spineUp[%d] %d != recomputed %d", i, su, spineUp[i])
		}
	}
	if len(s.corrupting) != corruptFlagged {
		return fmt.Errorf("corrupting set size %d != %d flagged links", len(s.corrupting), corruptFlagged)
	}
	for i, id := range s.corrupting {
		if i > 0 && s.corrupting[i-1] >= id {
			return fmt.Errorf("corrupting set not sorted/duplicate-free at %d: %d >= %d", i, s.corrupting[i-1], id)
		}
		if !s.links[id].corrupting() {
			return fmt.Errorf("corrupting set contains non-corrupting link %d", id)
		}
		if s.canDisable(id) {
			return fmt.Errorf("pod %d unsettled: up corrupting link %d passes the fast checker", s.pod(id), id)
		}
	}
	seen := map[int32]bool{}
	for _, ev := range s.repairs {
		st := &s.links[ev.link]
		if st.up() {
			return fmt.Errorf("repair scheduled for up link %d", ev.link)
		}
		if !st.corrupting() {
			return fmt.Errorf("repair scheduled for non-corrupting link %d", ev.link)
		}
		if seen[ev.link] {
			return fmt.Errorf("link %d has two repairs in flight", ev.link)
		}
		seen[ev.link] = true
	}
	return nil
}
