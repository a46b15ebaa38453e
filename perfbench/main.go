// Command perfbench is the repository's benchmark: one workload per run,
// generated from a seed, measured for a fixed wall-clock budget, with every
// output checked.
//
//	go run . --workload sim-fabric --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics (endToEnd); with
// --trace 1 the run records spans around every call into a layer, writes
// them to .bench_build/trace/, and the metrics are the per-layer metrics
// (perLayer). A failed output check sets "correct" to false and the exit
// code to 1; every metric measured is still printed.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	sim-fabric      experiments.NewSegmented: 4-segment ring, every protected
//	                100G link at 85% with 10% cross-segment transit, 1e-3
//	                i.i.d. corruption, LinkGuardian Ordered, worker cap 1
//	live-mux        live.RunMulti over loopback: 8 links on one mux socket
//	                pair, 1000 flows, 256 B, open loop at 10k pps, 1e-3 drop
//	fleet-year      one simulated year of a 256-pod fleet through
//	                experiments.RunFleet and fleetsim.RunMatrix
//	results-ingest  runs submitted through the batcher into a fresh
//	                results.File store, then reopen, WriteList, WriteTrend
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// endToEnd are the metrics a user of each subsystem sees, printed by an
// untraced run. Every workload reports every one.
//
// ops_per_cpu_s counts the workload's unit of work per process CPU-second:
// a delivered simulated packet (sim-fabric), a delivered app packet
// (live-mux), a simulated link-year (fleet-year), a run stored and read
// back (results-ingest). CPU time, not wall time, because it is what
// repeats on a shared host: on 2 vCPUs shared with other tenants, wall
// times and latencies (delivery, ack, query) spread 15-75% between runs of
// the same code, wider than any bound worth gating on, so they are
// per-layer metrics of the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_cpu_s", "ops/CPU-s"},
}

type metricDef struct{ name, unit string }

// outcome is what a workload measured.
type outcome struct {
	attempted, failed uint64
	failures          []string

	setups []float64 // seconds, one per set-up

	// Index 0 holds untraced rounds, 1 traced rounds of a traced run.
	ops [2]float64
	cpu [2]time.Duration
	n   [2]int

	childRSS []float64 // peak RSS of each child process that ran the work, MB
	layer    map[string]float64
	env      map[string]any
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}, env: map[string]any{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// addRound adds one round's completed ops and the process CPU it took.
func (o *outcome) addRound(traced bool, ops float64, cpu time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	o.ops[i] += ops
	o.cpu[i] += cpu
	o.n[i]++
}

func (o *outcome) rounds() int { return o.n[0] + o.n[1] }

func (o *outcome) cpuAll() time.Duration { return o.cpu[0] + o.cpu[1] }

func (o *outcome) opsPerCPUSecond() float64 {
	return ratio(o.ops[0]+o.ops[1], o.cpuAll().Seconds())
}

// traceOverheadPct is the extra CPU per op of traced rounds over untraced
// rounds of the same run, in percent.
func (o *outcome) traceOverheadPct() float64 {
	u := ratio(o.cpu[0].Seconds(), o.ops[0])
	t := ratio(o.cpu[1].Seconds(), o.ops[1])
	return 100 * ratio(t-u, u)
}

// runner carries one invocation's settings into a workload.
type runner struct {
	seed   int64
	budget time.Duration
	start  time.Time
	tr     *tracer // nil in untraced runs
	dir    string  // scratch directory inside the checkout
}

// roundTraced reports whether round i of a traced run records spans:
// traced runs alternate, so untraced rounds of the same run measure the
// tracing overhead. It also pauses or resumes the tracer accordingly.
func (r *runner) roundTraced(i int) bool {
	if r.tr == nil {
		return false
	}
	traced := i%2 == 0
	r.tr.setPaused(!traced)
	return traced
}

// more reports whether to start round i, given how long the last round
// took: always the first (and the second of a traced run, so it has an
// untraced round to compare with), then only while at least half a round's
// worth of budget is left, so a run overshoots its budget by at most half a
// round.
func (r *runner) more(i int, last time.Duration) bool {
	if i == 0 || (r.tr != nil && i == 1) {
		return true
	}
	return time.Until(r.start.Add(r.budget)) > last/2
}

var workloads = map[string]func(*runner) (*outcome, error){
	"sim-fabric":     runSimFabric,
	"live-mux":       runLiveMux,
	"fleet-year":     runFleetYear,
	"results-ingest": runResultsIngest,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "live-child" {
		os.Exit(liveChild(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {sim-fabric|live-mux|fleet-year|results-ingest} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	correct, err := run(*workload, fn, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its result; it reports whether
// every output check passed.
func run(name string, fn func(*runner) (*outcome, error), seed int64, budget time.Duration, traced bool) (bool, error) {
	dir := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	r := &runner{seed: seed, budget: budget, dir: dir}
	if traced {
		r.tr = newTracer()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0, c0, w0 := readCPUStat(), cpuTime(), time.Now()
	r.start = w0
	out, err := fn(r)
	if err != nil {
		return false, err
	}
	wall, cpu, st1 := time.Since(w0), cpuTime()-c0, readCPUStat()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	out.env["nproc"] = runtime.NumCPU()
	out.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.env["go_version"] = runtime.Version()
	out.env["goos"] = runtime.GOOS + "/" + runtime.GOARCH
	out.env["workload"] = name
	out.env["seed"] = seed
	out.env["traced"] = traced

	rss := peakRSSMB()
	if out.childRSS != nil {
		// The smallest call's peak: a host stall only adds to a call's
		// memory (frames queue up behind it), often by half or more on a
		// noisy host, so the least disturbed call is the one that repeats.
		rss = slices.Min(out.childRSS)
		out.env["child_rss_mb"] = out.childRSS
	}
	out.env["setups"] = len(out.setups)

	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		vals := map[string]float64{
			"setup_s":       median(out.setups),
			"peak_rss_mb":   rss,
			"ops_per_cpu_s": out.opsPerCPUSecond(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	} else {
		l := out.layer
		l["fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
		l["runtime.cpu_s"] = cpu.Seconds()
		l["runtime.wall_s"] = wall.Seconds()
		l["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		l["env.steal_pct"] = stealPct(st0, st1)
		l["env.nproc"] = float64(runtime.NumCPU())
		l["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		l["trace.overhead_pct"] = out.traceOverheadPct()
		r.tr.mu.Lock()
		l["trace.spans"] = float64(len(r.tr.spans))
		r.tr.mu.Unlock()
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: l[m.name], Unit: m.unit}
		}
		tf := traceFile{
			Workload: name,
			Seed:     seed,
			Env:      out.env,
			Overhead: map[string]float64{
				"untraced_cpu_us_per_op": 1e6 * ratio(out.cpu[0].Seconds(), out.ops[0]),
				"traced_cpu_us_per_op":   1e6 * ratio(out.cpu[1].Seconds(), out.ops[1]),
				"overhead_pct":           out.traceOverheadPct(),
			},
		}
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := r.tr.write(path, tf); err != nil {
			return false, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	envLine, _ := json.Marshal(out.env)
	fmt.Printf("env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}
