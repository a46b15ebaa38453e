package main

// perLayer are the metrics a traced run prints: one layer's work, cost,
// waiting and failures each, named "<layer>.<metric>". A layer a workload
// does not exercise reports 0 there. The comment on each group names the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// eventq → ops_per_cpu_s on sim-fabric; flat on live-mux.
	{"eventq.events_per_pkt", "events/pkt"},
	{"eventq.ns_per_event", "ns"},
	{"eventq.peak_depth", "events"},
	// simnet → ops_per_cpu_s and peak_rss_mb on sim-fabric.
	{"simnet.engine.handoffs_per_pkt", "handoffs/pkt"},
	{"simnet.engine.windows", "count"},
	{"simnet.engine.stall_ratio", "ratio"},
	{"simnet.allocs_per_pkt", "allocs/pkt"},
	{"simnet.link.corrupted", "count"},
	{"simnet.port.pauses", "count"},
	{"simnet.port.queue_drops", "count"},
	// core → ops_per_cpu_s on sim-fabric and live-mux; failures on both.
	{"core.lost_pkts", "count"},
	{"core.retx_copies_per_loss", "copies/loss"},
	{"core.unrecovered", "count"},
	{"core.dummies_per_pkt", "dummies/pkt"},
	{"core.acks_per_pkt", "acks/pkt"},
	{"core.rxbuf_peak_bytes", "B"},
	{"core.txbuf_peak_bytes", "B"},
	// live → ops_per_cpu_s and failures on live-mux.
	{"live.lat_p50_ms", "ms"},
	{"live.lat_p99_ms", "ms"},
	{"live.lat_samples", "count"},
	{"live.wire_dgrams_per_pkt", "dgrams/pkt"},
	{"live.mux.tx_dgrams_per_call", "dgrams/call"},
	{"live.mux.rx_dgrams_per_call", "dgrams/call"},
	{"live.mux.arena_frames_peak", "frames"},
	{"live.proxy.dropped", "count"},
	{"live.masked_ratio", "ratio"},
	{"live.unaccounted_fwd", "dgrams"},
	{"live.unaccounted_rev", "dgrams"},
	{"live.gen_lag_ms", "ms"},
	{"live.wire.send_retries", "count"},
	{"live.wire.decode_drops", "count"},
	{"live.wire.send_drops", "count"}, // send-queue overflow, exhausted retries, non-transient errors
	{"live.offer_s", "s"},
	{"live.drain_s", "s"},
	{"live.stop_s", "s"},
	// corropt and fleetsim → ops_per_cpu_s on fleet-year.
	{"corropt.linkyears_per_cpu_s", "link-yr/CPU-s"},
	{"fleetsim.linkyears_per_cpu_s", "link-yr/CPU-s"},
	{"fleetsim.onsets", "count"},
	{"fleetsim.repairs", "count"},
	{"fleetsim.activations", "count"},
	// results → ops_per_cpu_s on results-ingest.
	{"results.ack_p50_ms", "ms"},
	{"results.ack_p99_ms", "ms"},
	{"results.gen_lag_ms", "ms"},
	{"results.ingest_runs_per_s", "runs/s"},
	{"results.batcher.runs_per_batch", "runs/batch"},
	{"results.batcher.enqueue_wait_ms_p99", "ms"},
	{"results.batcher.latch_ms_p50", "ms"},
	{"results.file.commit_ms_per_batch", "ms"},
	{"results.file.commit_us_per_run", "us"},
	{"results.file.bytes_per_run", "B"},
	{"results.dedup_ratio", "ratio"},
	{"results.file.open_ms", "ms"},
	{"results.query.list_ms", "ms"},
	{"results.query.trend_ms", "ms"},
	// Every workload.
	{"fail_ratio", "ratio"},
	{"runtime.cpu_s", "s"},
	{"runtime.wall_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"env.steal_pct", "%"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
