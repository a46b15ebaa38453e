package main

import (
	"reflect"
	"runtime"
	"time"

	"linkguardian/internal/corropt"
	"linkguardian/internal/experiments"
	"linkguardian/internal/fabric"
	"linkguardian/internal/fleetsim"
	"linkguardian/internal/parallel"
)

// The fleet-year workload runs the paper's §4.8 fleet (256 pods, ~100k
// links) for one simulated year through both fleet engines.
const (
	fleetPods       = 256
	fleetHorizon    = 365 * 24 * time.Hour
	fleetSample     = 6 * time.Hour
	fleetConstraint = 0.75
	fleetSetups     = 15
)

// fleetCounts are one iteration's exact work counts, identical for every
// iteration of a seed.
type fleetCounts struct {
	onsets, repairs, activations uint64
	samples                      int
}

func runFleetYear(r *runner) (*outcome, error) {
	out := newOutcome()
	workers := min(2, parallel.Workers())
	parallel.SetWorkers(workers)
	out.env["fleet_workers"] = workers

	sols := []fleetsim.Solution{fleetsim.CorrOptOnly{}, fleetsim.LinkGuardian{}, fleetsim.WharfFEC{}, fleetsim.P4Protect{}}
	shape := fabric.DefaultConfig()
	shape.Pods = fleetPods
	cfg := fleetsim.Config{
		Fabric:      shape,
		Horizon:     fleetHorizon,
		SampleEvery: fleetSample,
		Seed:        r.seed,
		Constraint:  fleetConstraint,
	}

	// Set-up is what both engines build before simulating: the fabric
	// model, RunMatrix's per-shard link state. Neither engine exposes it
	// apart from the run, so it is timed as both calls at full scale over a
	// single sample interval, where simulated time, and the corruption
	// trace that grows with it, cost next to nothing.
	short := cfg
	short.Horizon = fleetSample
	for i := 0; i < fleetSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		id := r.tr.begin("fleet-year.setup", 0)
		experiments.RunFleet(fleetConstraint, experiments.FleetOpts{
			Pods: fleetPods, Horizon: fleetSample, SampleEvery: fleetSample, Seed: r.seed,
		})
		fleetsim.RunMatrix(short, sols)
		r.tr.end(id, nil)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}

	wantSamples := int(fleetHorizon / fleetSample)
	var first *fleetCounts
	var legacyCPU, matrixCPU time.Duration
	var legacyLY, matrixLY float64
	var last time.Duration
	for it := 0; r.more(it, last); it++ {
		traced := r.roundTraced(it)
		c0, w0 := cpuTime(), time.Now()
		root := r.tr.begin("fleet-year.iteration", 0)
		id := r.tr.begin("experiments.RunFleet", root)
		fc := experiments.RunFleet(fleetConstraint, experiments.FleetOpts{
			Pods: fleetPods, Horizon: fleetHorizon, SampleEvery: fleetSample, Seed: r.seed,
		})
		r.tr.end(id, nil)
		c1 := cpuTime()
		id = r.tr.begin("fleetsim.RunMatrix", root)
		m := fleetsim.RunMatrix(cfg, sols)
		r.tr.end(id, nil)
		r.tr.end(root, nil)
		c2, w2 := cpuTime(), time.Now()

		legacyCPU += c1 - c0
		matrixCPU += c2 - c1
		ly := float64(fc.Links)*2 + float64(m.Config.Fabric.NumLinks())*float64(len(sols))
		legacyLY += float64(fc.Links) * 2
		matrixLY += float64(m.Config.Fabric.NumLinks()) * float64(len(sols))
		out.addRound(traced, ly, c2-c0)
		last = w2.Sub(w0)

		counts := checkFleet(out, fc, m, wantSamples)
		if first == nil {
			first = &counts
		} else if !reflect.DeepEqual(counts, *first) {
			out.fail("fleet-year: iteration %d differs from iteration 0 at the same seed: %+v vs %+v", it, counts, *first)
		}
	}
	out.layer["corropt.linkyears_per_cpu_s"] = ratio(legacyLY, legacyCPU.Seconds())
	out.layer["fleetsim.linkyears_per_cpu_s"] = ratio(matrixLY, matrixCPU.Seconds())
	out.layer["fleetsim.onsets"] = float64(first.onsets)
	out.layer["fleetsim.repairs"] = float64(first.repairs)
	out.layer["fleetsim.activations"] = float64(first.activations)
	return out, nil
}

// checkFleet audits one iteration: every solution of the matrix saw the
// same onsets, every series has one sample per interval, and adding
// LinkGuardian never raises the fleet's total penalty at any sample, in
// either engine. Each sample compared is one attempted operation.
func checkFleet(out *outcome, fc experiments.FleetComparison, m fleetsim.MatrixResult, wantSamples int) fleetCounts {
	var counts fleetCounts
	series := map[string][]corropt.Sample{"RunFleet corropt": fc.Vanilla, "RunFleet lg+corropt": fc.Combined}
	for name, s := range series {
		if len(s) != wantSamples {
			out.fail("fleet-year: %s has %d samples, want %d", name, len(s), wantSamples)
		}
	}
	comparePenalty(out, "RunFleet", len(fc.Vanilla), len(fc.Combined), func(i int) (float64, float64) {
		return fc.Vanilla[i].TotalPenalty, fc.Combined[i].TotalPenalty
	})

	byName := map[string]fleetsim.SolutionResult{}
	for si, res := range m.Results {
		byName[res.Solution] = res
		if len(res.Samples) != wantSamples {
			out.fail("fleet-year: RunMatrix %s has %d samples, want %d", res.Solution, len(res.Samples), wantSamples)
		}
		var onsets uint64
		for sh, st := range res.Shards {
			onsets += st.Onsets
			if st.Onsets != m.Results[0].Shards[sh].Onsets {
				out.fail("fleet-year: RunMatrix shard %d: %s saw %d onsets, %s saw %d",
					sh, res.Solution, st.Onsets, m.Results[0].Solution, m.Results[0].Shards[sh].Onsets)
			}
			counts.repairs += st.Repairs
			counts.activations += st.Activations
		}
		if si == 0 {
			counts.onsets = onsets
		}
		counts.samples += len(res.Samples)
	}
	v, c := byName["corropt"], byName["lg"]
	comparePenalty(out, "RunMatrix", len(v.Samples), len(c.Samples), func(i int) (float64, float64) {
		return v.Samples[i].TotalPenalty, c.Samples[i].TotalPenalty
	})
	return counts
}

// comparePenalty checks combined ≤ vanilla at every sample.
func comparePenalty(out *outcome, engine string, nv, nc int, at func(int) (vanilla, combined float64)) {
	if nv != nc {
		out.fail("fleet-year: %s series lengths differ: %d vs %d", engine, nv, nc)
	}
	bad := 0
	for i := 0; i < min(nv, nc); i++ {
		out.attempted++
		if v, c := at(i); c > v {
			out.failed++
			if bad++; bad == 1 {
				out.fail("fleet-year: %s sample %d: LG+CorrOpt penalty %g above CorrOpt %g", engine, i, c, v)
			}
		}
	}
}
