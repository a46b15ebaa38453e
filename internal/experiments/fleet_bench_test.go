package experiments

import (
	"testing"
	"time"
)

// BenchmarkRunFleet measures the corropt fleet engine end to end: both
// policies of RunFleet over the 256-pod (~100K-link) fabric for one
// simulated year per iteration. The custom metric is link-years of
// simulation per wall-clock second, the same unit as the sharded engine's
// BenchmarkFleetPareto in internal/fleetsim.
func BenchmarkRunFleet(b *testing.B) {
	opts := FleetOpts{Pods: 256, Horizon: 365 * 24 * time.Hour, SampleEvery: 6 * time.Hour, Seed: 1}
	var links int
	for i := 0; i < b.N; i++ {
		fc := RunFleet(0.75, opts)
		if len(fc.Vanilla) == 0 || len(fc.Combined) == 0 {
			b.Fatal("empty fleet series")
		}
		links = fc.Links
	}
	b.ReportMetric(float64(2*links*b.N)/b.Elapsed().Seconds(), "linkyears/sec")
}
