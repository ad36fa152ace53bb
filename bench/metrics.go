package main

// metricDef names one reported metric. Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricDef) lowerIsBetter() bool { return m.Better == "lower" }

// endToEnd are the metrics a user of the simulator, the suite driver or
// tipd sees, reported by every workload. Each timing is the median over the
// run's passes, except op_geomean_ms, the geometric mean over all the run's
// operations. An operation is the unit a user waits for: one benchmark's
// evaluation in the suites, one sampled run in sampled-long, one job
// (submit to pprof received) in tipd-fleet. The operations' median is
// printed without a bound: in the suites it is one benchmark's latency,
// and which benchmark sits in the middle changes from run to run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25},
	{Name: "heap_p90_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics. Every traced run reports all of
// them: a layer the workload does not exercise is probed through its public
// entry point on the workload's own inputs, so its per-event cost is known
// even where it adds nothing to the workload's wall time. The README maps
// each one to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "workload.load_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "cpu.cycles", Unit: "count", Better: "lower"},
	{Name: "cpu.ff_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "cpu.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "cpu.restore_us", Unit: "us", Better: "lower"},
	{Name: "trace.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.records", Unit: "count", Better: "lower"},
	{Name: "trace.capture_bytes_per_record", Unit: "B/record", Better: "lower"},
	{Name: "trace.ring_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.broadcast_ns_per_chunk.1", Unit: "ns", Better: "lower"},
	{Name: "trace.broadcast_ns_per_chunk.2", Unit: "ns", Better: "lower"},
	{Name: "profiler.dispatch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "profiler.samples", Unit: "count", Better: "lower"},
	{Name: "profile.error_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.capture_s", Unit: "s", Better: "lower"},
	{Name: "experiments.replay_s", Unit: "s", Better: "lower"},
	{Name: "sampled.sweep_s", Unit: "s", Better: "lower"},
	{Name: "sampled.measure_s", Unit: "s", Better: "lower"},
	{Name: "sampled.windows", Unit: "count", Better: "lower"},
	{Name: "sampled.ff_insts", Unit: "count", Better: "lower"},
	{Name: "sampled.detailed_fraction", Unit: "ratio", Better: "lower"},
	{Name: "sampled.leg_overlap", Unit: "ratio", Better: "higher"},
	{Name: "pprofenc.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "pprofenc.bytes", Unit: "B", Better: "lower"},
	{Name: "server.queue_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "server.exec_ms.warm.p50", Unit: "ms", Better: "lower"},
	{Name: "server.exec_ms.cold.p50", Unit: "ms", Better: "lower"},
	{Name: "server.replay_ms.warm.p50", Unit: "ms", Better: "lower"},
	{Name: "server.client_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "server.pprof_fetch_ms.p50", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.simulations", Unit: "count", Better: "lower"},
	{Name: "server.job_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.proxy_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.steal_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fleet.retries_429", Unit: "count", Better: "lower"},
	{Name: "fleet.store_puts", Unit: "count", Better: "lower"},
	{Name: "fleet.store_hits", Unit: "count", Better: "lower"},
	{Name: "attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "unexplained_s", Unit: "s", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
