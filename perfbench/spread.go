package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spreadMain reads benchmark result lines (files named on the command
// line, or standard input) and prints, per metric, the median and the
// interquartile range as a share of the median: the steadiness figure the
// benchmark's bounds are judged against.
//
//	for s in 1 2 3 4 5; do bash perfbench/run.sh --workload sim-fabric --seed $s --seconds 20 --trace 0; done | .bench_build/perfbench spread
func spreadMain(args []string) int {
	var in []io.Reader
	for _, name := range args {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spread:", err)
			return 1
		}
		defer f.Close()
		in = append(in, f)
	}
	if len(in) == 0 {
		in = append(in, os.Stdin)
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	runs, bad := 0, 0
	sc := bufio.NewScanner(io.MultiReader(in...))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			fmt.Fprintln(os.Stderr, "spread:", err)
			return 1
		}
		runs++
		if !res.Correct || res.Failed > 0 {
			bad++
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("runs=%d failing=%d\n", runs, bad)
	fmt.Printf("%-40s %14s %14s %14s %8s  %s\n", "METRIC", "Q1", "MEDIAN", "Q3", "SPREAD", "UNIT")
	for _, n := range names {
		q1, q2, q3 := quartiles(vals[n])
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %7.2f%%  %s\n", n, q1, q2, q3, 100*ratio(q3-q1, q2), units[n])
	}
	return 0
}
