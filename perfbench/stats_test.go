package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the functions the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 3}, 0.5, 2.0, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
		{[]float64{0.81, 0.79, 0.8, 0.83, 0.9, 0.77, 0.85, 0.8, 0.82, 0.84}, 0.7975, 0.815, 0.8425},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, q2, q3)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.99, 49.6}, {1, 50}, {0.125, 15}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []uint64{10, 20, 10, 0} // buckets (0,1], (1,2], (2,4], overflow
	for _, c := range []struct{ q, want float64 }{
		{0.125, 0.5}, // rank 5 of the 10 in (0,1]
		{0.25, 1},    // exactly the first bucket's upper edge
		{0.5, 1.5},   // rank 20: halfway through (1,2]
		{0.875, 3},   // rank 35: halfway through (2,4]
		{0.99, 3.92}, // rank 39.6
		{1.0, 4},     // the last sample
	} {
		if got := histQuantile(bounds, counts, c.q); !near(got, c.want) {
			t.Errorf("histQuantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A quantile in the overflow bucket is floored at the last bound.
	if got := histQuantile(bounds, []uint64{1, 0, 0, 9}, 0.5); got != 4 {
		t.Errorf("overflow quantile = %v, want 4", got)
	}
	if got := histQuantile(bounds, make([]uint64, 4), 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

// The metric names the binary prints must be exactly the ones
// BENCHMARK.json declares, with the same units, and every workload it
// lists must exist.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the binary prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the binary", w.Name)
		}
	}
}
