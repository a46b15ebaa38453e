package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"linkguardian/internal/chaos"
	"linkguardian/internal/fleetsim"
	"linkguardian/internal/results"
)

// The results-ingest workload: one producer submits runs shaped like the
// repository's real producers' runs through the batcher into a fresh File
// store, open loop at a fixed rate well below what the store sustains, while
// a second goroutine collects acks; then the store is closed, reopened and
// queried. A fixed rate keeps ack latency a measure of the batcher and the
// backend rather than of a backlog the producer built up. It runs on one P,
// like the repository's ingest gate: on a shared 2-vCPU host CPU per run
// then repeats about twice as closely between runs as with two.
const (
	ingestRuns = 10000 // runs submitted per round
	ingestRate = 5000  // runs per second offered

	ingestSetups = 3 // set-ups per round, all but the last torn down unused
)

// timedBackend measures what each commit costs the backend itself, apart
// from how long items waited for their batch.
type timedBackend struct {
	results.Backend
	mu      sync.Mutex
	commits int
	runs    int
	busy    time.Duration
	tr      *tracer
	root    int // span of the round the commits belong to
}

func (b *timedBackend) Commit(runs []*results.Run) ([]bool, error) {
	id := b.tr.begin("results.File.Commit", b.root)
	t0 := time.Now()
	added, err := b.Backend.Commit(runs)
	d := time.Since(t0)
	b.tr.end(id, map[string]float64{"runs": float64(len(runs))})
	b.mu.Lock()
	b.commits++
	b.runs += len(runs)
	b.busy += d
	b.mu.Unlock()
	return added, err
}

// producers holds one run of every shape the repository's producers write
// into a results store, each built as its command builds it.
type producers struct {
	// fixed are re-imported unchanged every pass: the runs
	// `cmd/results import BENCH_*.json` makes of the checked-in BENCH
	// files, which scripts/bench.sh re-imports on every invocation.
	fixed []*results.Run
	// seeded are rerun at a new seed every pass: `cmd/chaos -scenario
	// <name> -results-dir` for every named scenario, the Pareto rows of
	// `cmd/fleetsim -results-dir` and the run of `cmd/lglive -mode=multi
	// -results-dir`.
	seeded []*results.Run
	prs    int // distinct PRs among the fixed runs
}

// loadProducers builds the templates from the BENCH_*.json files in the
// working directory, a real report of every named chaos scenario at seed 1
// and a real Pareto table of a small fleet. The live run's records have the
// shape cmd/lglive gives them, at its default flags with no loss visible.
func loadProducers() (*producers, error) {
	p := &producers{}
	files, _ := filepath.Glob("BENCH_*.json") // fails only on a malformed pattern
	prs := map[int]bool{}
	for _, f := range files {
		run, err := results.ImportBenchFile(f)
		if err != nil {
			return nil, err
		}
		p.fixed = append(p.fixed, run)
		prs[run.PR] = true
	}
	if len(p.fixed) == 0 {
		return nil, fmt.Errorf("results-ingest: no BENCH_*.json in the working directory; run from the repository root")
	}
	p.prs = len(prs)

	for _, name := range chaos.Names() {
		sc, _ := chaos.Named(name, 1)
		rep := chaos.RunScenario(sc)
		run := results.FromSnapshot("chaos", name, map[string]string{"seed": "1"}, rep.Metrics)
		run.Source = "cmd/chaos"
		quiesced := 0.0
		if rep.Quiesced {
			quiesced = 1
		}
		run.Records = append(run.Records,
			results.Record{Name: "report.tx_unique", Value: float64(rep.TxUnique), Unit: "count"},
			results.Record{Name: "report.forwarded", Value: float64(rep.Forwarded), Unit: "count"},
			results.Record{Name: "report.outstanding", Value: float64(rep.Outstanding), Unit: "count"},
			results.Record{Name: "report.unrecovered", Value: float64(rep.Unrecovered), Unit: "count"},
			results.Record{Name: "report.violations", Value: float64(len(rep.Violations)), Unit: "count"},
			results.Record{Name: "report.quiesced", Value: quiesced},
		)
		p.seeded = append(p.seeded, run)
	}

	fcfg := fleetsim.Config{Links: 8000, Horizon: 60 * 24 * time.Hour, SampleEvery: 6 * time.Hour, Seed: 1, Constraint: 0.75}
	m := fleetsim.RunMatrix(fcfg, []fleetsim.Solution{fleetsim.CorrOptOnly{}, fleetsim.LinkGuardian{}, fleetsim.WharfFEC{}, fleetsim.P4Protect{}})
	conf := map[string]string{"links": fmt.Sprint(m.Config.NumLinks()), "horizon": m.Config.Horizon.String(), "seed": "1"}
	for _, r := range m.Pareto() {
		p.seeded = append(p.seeded, &results.Run{
			Kind: "fleetsim", Name: "pareto/" + r.Solution, Source: "cmd/fleetsim", Config: conf,
			Records: []results.Record{
				{Name: "cost", Value: r.Cost},
				{Name: "repairs", Value: float64(r.Repairs), Unit: "count"},
				{Name: "activations", Value: float64(r.Activations), Unit: "count"},
				{Name: "penalty.mean", Value: r.MeanPenalty},
				{Name: "penalty.p99", Value: r.P99Penalty},
				{Name: "penalty.max", Value: r.MaxPenalty},
				{Name: "least_paths.min", Value: r.MinLeastPaths},
				{Name: "least_cap.min", Value: r.MinLeastCap},
				{Name: "least_cap.mean", Value: r.MeanLeastCap},
			},
		})
	}

	const count, pps = 200000, 20000 // cmd/lglive: -duration 10s at -pps 20000
	p.seeded = append(p.seeded, &results.Run{
		Kind: "lglive", Name: "multi", Source: "cmd/lglive",
		Config: map[string]string{"seed": "1", "count": fmt.Sprint(count), "pps": fmt.Sprint(pps), "size": "1000",
			"loss": "0.001", "links": "8", "flows": "0", "mode": "ordered"},
		Records: []results.Record{
			{Name: "audit.offered", Value: count, Unit: "count"},
			{Name: "audit.delivered", Value: count, Unit: "count"},
			{Name: "audit.lost", Value: 0, Unit: "count"},
			{Name: "audit.duplicate", Value: 0, Unit: "count"},
			{Name: "audit.out_of_seq", Value: 0, Unit: "count"},
			{Name: "audit.masked", Value: count * 1e-3, Unit: "count"},
			{Name: "latency.p50_sec", Value: 0.5e-3},
			{Name: "latency.p99_sec", Value: 2e-3},
			{Name: "latency.p999_sec", Value: 5e-3},
			{Name: "elapsed_sec", Value: float64(count) / pps},
		},
	})
	return p, nil
}

// genRuns replays passes of the repository's producers until n runs are
// submitted. Each pass re-imports every fixed run unchanged, so from the
// second pass on those are exact duplicates, and reruns every seeded
// producer at the pass's own seed: each record's value moves by a seeded
// factor (within about 10%), as a rerun at another seed moves it. It returns
// the submissions and the number of distinct runs among them.
func genRuns(seed int64, n int, p *producers) ([]*results.Run, int) {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]*results.Run, 0, n)
	distinct := 0
	for pass := 0; len(runs) < n; pass++ {
		for _, f := range p.fixed {
			if len(runs) < n {
				runs = append(runs, cloneRun(f))
				if pass == 0 {
					distinct++
				}
			}
		}
		runSeed := fmt.Sprint(rng.Int63())
		for _, s := range p.seeded {
			if len(runs) == n {
				break
			}
			r := cloneRun(s)
			r.ID = ""
			r.Config["seed"] = runSeed
			for j := range r.Records {
				v := r.Records[j].Value * math.Exp(0.1*rng.NormFloat64())
				if r.Records[j].Unit == "count" {
					v = math.Round(v)
				}
				r.Records[j].Value = v
			}
			runs = append(runs, r)
			distinct++
		}
	}
	return runs, distinct
}

// cloneRun copies a run deeply enough that submitting the copy never
// touches the original.
func cloneRun(r *results.Run) *results.Run {
	c := *r
	c.Config = make(map[string]string, len(r.Config))
	for k, v := range r.Config {
		c.Config[k] = v
	}
	c.Records = append([]results.Record(nil), r.Records...)
	return &c
}

// ingestRound is one round's measurements.
type ingestRound struct {
	ackMs, waitMs, latchMs []float64
	acked                  int
	ackErrs                int
	ids                    map[string]bool // acked run IDs
	deduped                int
	ingestWall             time.Duration
	genLag                 time.Duration // producer's finish past its schedule
	openWall, listWall     time.Duration
	trendWall              time.Duration
	storeBytes             int64

	listed      map[string]bool // run IDs WriteList rendered after reopen
	stored      int             // Len after reopen
	trendHeader string
}

func runResultsIngest(r *runner) (*outcome, error) {
	out := newOutcome()
	runtime.GOMAXPROCS(1)
	t0 := time.Now()
	id := r.tr.begin("results-ingest.producers", 0)
	prod, err := loadProducers()
	r.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	out.env["producers_s"] = time.Since(t0).Seconds()
	out.env["producer_runs"] = map[string]int{"fixed": len(prod.fixed), "seeded": len(prod.seeded)}
	tb := &timedBackend{tr: r.tr}
	var all ingestRound
	var last time.Duration
	for round := 0; r.more(round, last); round++ {
		traced := r.roundTraced(round)

		// Set-up: the round's inputs and a fresh store and batcher. It
		// takes tens of milliseconds, so it is done ingestSetups times and
		// every copy but the last is torn down: the run's set-up time is a
		// median over that many more samples.
		started := time.Now()
		dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", round))
		root := r.tr.begin("results-ingest.round", 0)
		var runs []*results.Run
		var distinct int
		var f *results.File
		var bt *results.Batcher
		for k := 0; k < ingestSetups; k++ {
			if bt != nil {
				if err := tearDown(bt, f, dir); err != nil {
					return nil, err
				}
			}
			runs = nil // so the collection below frees the torn-down copy's runs
			runtime.GC()
			t0 := time.Now()
			runs, distinct = genRuns(r.seed+int64(round), ingestRuns, prod)
			id := r.tr.begin("results.OpenFile", root)
			var err error
			f, err = results.OpenFile(dir, results.FileOptions{})
			r.tr.end(id, nil)
			if err != nil {
				return nil, err
			}
			tb.Backend, tb.root = f, root
			bt = results.NewBatcher(tb, results.BatcherOpts{})
			out.setups = append(out.setups, time.Since(t0).Seconds())
		}

		c0 := cpuTime()
		rd, err := ingestOnce(r.tr, root, bt, f, dir, runs)
		if err != nil {
			return nil, err
		}
		cpu := cpuTime() - c0
		r.tr.end(root, nil)
		out.addRound(traced, float64(rd.acked), cpu)
		all.ingestWall += rd.ingestWall

		out.attempted += uint64(len(runs))
		out.failed += uint64(rd.ackErrs)
		if rd.ackErrs > 0 {
			out.fail("results-ingest: round %d: %d acks carried a commit error", round, rd.ackErrs)
		}
		if err := checkStore(rd, distinct, prod.prs); err != nil {
			out.failed++
			out.fail("results-ingest: round %d: %v", round, err)
		}
		all.ackMs = append(all.ackMs, rd.ackMs...)
		all.waitMs = append(all.waitMs, rd.waitMs...)
		all.latchMs = append(all.latchMs, rd.latchMs...)
		all.acked += rd.acked
		all.deduped += rd.deduped
		all.openWall += rd.openWall
		all.listWall += rd.listWall
		all.trendWall += rd.trendWall
		all.storeBytes += rd.storeBytes
		all.genLag += rd.genLag
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		last = time.Since(started)
	}
	n := float64(out.rounds())
	l := out.layer
	l["results.ingest_runs_per_s"] = ratio(float64(all.acked), all.ingestWall.Seconds())
	l["results.ack_p50_ms"] = percentile(all.ackMs, 0.50)
	l["results.ack_p99_ms"] = percentile(all.ackMs, 0.99)
	l["results.gen_lag_ms"] = 1e3 * all.genLag.Seconds() / n
	l["results.batcher.runs_per_batch"] = ratio(float64(tb.runs), float64(tb.commits))
	l["results.batcher.enqueue_wait_ms_p99"] = percentile(all.waitMs, 0.99)
	l["results.batcher.latch_ms_p50"] = percentile(all.latchMs, 0.50)
	l["results.file.commit_ms_per_batch"] = 1e3 * ratio(tb.busy.Seconds(), float64(tb.commits))
	l["results.file.commit_us_per_run"] = 1e6 * ratio(tb.busy.Seconds(), float64(tb.runs))
	l["results.file.bytes_per_run"] = ratio(float64(all.storeBytes), float64(all.acked-all.deduped))
	l["results.dedup_ratio"] = ratio(float64(all.deduped), float64(all.acked))
	l["results.file.open_ms"] = 1e3 * all.openWall.Seconds() / n
	l["results.query.list_ms"] = 1e3 * all.listWall.Seconds() / n
	l["results.query.trend_ms"] = 1e3 * all.trendWall.Seconds() / n
	return out, nil
}

// tearDown closes an unused set-up and removes its store.
func tearDown(bt *results.Batcher, f *results.File, dir string) error {
	if err := bt.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// ingestOnce submits runs from one goroutine while another collects the
// acks in order, closes the store, then reopens it and renders the list
// and trend views into memory.
func ingestOnce(tr *tracer, root int, bt *results.Batcher, f *results.File, dir string, runs []*results.Run) (*ingestRound, error) {
	rd := &ingestRound{ids: make(map[string]bool, len(runs))}
	type pending struct {
		ack <-chan results.Ack
		due time.Time
	}
	// Sized for every submission, so the producer never waits on the
	// collector and the batcher's own queue is the only backpressure.
	q := make(chan pending, len(runs))
	start := time.Now()
	var last time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range q {
			ack := <-p.ack
			now := time.Now()
			tr.record("results.ack", root, p.due, now)
			rd.ackMs = append(rd.ackMs, float64(now.Sub(p.due))/1e6)
			rd.waitMs = append(rd.waitMs, float64(ack.Timing.EnqueueWait)/1e6)
			rd.latchMs = append(rd.latchMs, float64(ack.Timing.BatchLatch)/1e6)
			if ack.Err != nil {
				rd.ackErrs++
				continue
			}
			rd.acked++
			rd.ids[ack.ID] = true
			if !ack.Added {
				rd.deduped++
			}
			last = now
		}
	}()
	// Each ack is timed from when its run was due, so a stalled producer
	// delays the acks of every run behind it.
	for i, run := range runs {
		due := start.Add(time.Duration(i) * time.Second / ingestRate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		id := tr.begin("results.Batcher.Submit", root)
		ch := bt.Submit(run)
		tr.end(id, nil)
		q <- pending{ack: ch, due: due}
	}
	rd.genLag = time.Since(start) - time.Duration(len(runs)-1)*time.Second/ingestRate
	close(q)
	<-done
	rd.ingestWall = last.Sub(start)
	if err := bt.Close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "segments", "*")) // fails only on a malformed pattern
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			rd.storeBytes += st.Size()
		}
	}

	t0 := time.Now()
	id := tr.begin("results.OpenFile", root)
	g, err := results.OpenFile(dir, results.FileOptions{})
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	t1 := time.Now()
	var list, trend bytes.Buffer
	id = tr.begin("results.WriteList", root)
	err = results.WriteList(&list, g, "")
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	id = tr.begin("results.WriteTrend", root)
	err = results.WriteTrend(&trend, g, "bench", "")
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	rd.openWall, rd.listWall, rd.trendWall = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	rd.listed = listedIDs(list.Bytes())
	rd.stored = g.Len()
	rd.trendHeader, _, _ = strings.Cut(trend.String(), "\n")
	return rd, nil
}

// listedIDs returns the run IDs of a rendered WriteList table.
func listedIDs(table []byte) map[string]bool {
	ids := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(table))
	sc.Scan() // header
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 0 {
			ids[f[0]] = true
		}
	}
	return ids
}

// checkStore verifies a round's store after reopen: every acked run is
// listed, the store holds exactly the distinct runs submitted, and the
// trend view covers every PR.
func checkStore(rd *ingestRound, distinct, prs int) error {
	for id := range rd.ids {
		if !rd.listed[id] {
			return fmt.Errorf("acked run %s missing after reopen", id)
		}
	}
	if rd.stored != distinct || len(rd.listed) != distinct {
		return fmt.Errorf("store holds %d runs (%d listed), %d distinct submitted", rd.stored, len(rd.listed), distinct)
	}
	if want := fmt.Sprintf("trend kind=bench prs=%d metrics=", prs); !strings.HasPrefix(rd.trendHeader, want) {
		return fmt.Errorf("trend header %q, want prefix %q", rd.trendHeader, want)
	}
	return nil
}
