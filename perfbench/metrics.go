package main

// metricDef is one metric as BENCHMARK.json lists it; TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd metrics are reported by every workload. The throughput and
// latency are of the workload's own unit of work (README.md maps them to
// their usual names: pps, react_*, converge_* and sim_flows_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MiB", "lower", 0.1},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
}

// layerNames are the layers self time is reported for; "bench" is the
// benchmark's own work between layer calls.
var layerNames = []string{"topo", "bgp", "core", "dataplane", "traffic", "netsim", "bench"}

// perLayer metrics are reported by a traced run of every workload; a layer
// the workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "dataplane.send_ns", unit: "ns", better: "lower"},
	{name: "dataplane.ns_per_hop", unit: "ns", better: "lower"},
	{name: "dataplane.hops_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.bytes_per_pkt", unit: "B", better: "lower"},
	{name: "dataplane.deflect_share", unit: "ratio", better: "higher"},
	{name: "dataplane.encap_share", unit: "ratio", better: "higher"},
	{name: "dataplane.drops.valleyfree", unit: "ratio", better: "lower"},
	{name: "dataplane.drops.ttl", unit: "ratio", better: "lower"},
	{name: "dataplane.drops.noroute", unit: "ratio", better: "lower"},
	{name: "dataplane.self_ms", unit: "ms", better: "lower"},
	{name: "core.refresh_ms", unit: "ms", better: "lower"},
	{name: "core.daemon_epoch_us", unit: "us", better: "lower"},
	{name: "core.install_ms", unit: "ms", better: "lower"},
	{name: "core.deploy_build_ms", unit: "ms", better: "lower"},
	{name: "core.fib_publish_useful", unit: "ratio", better: "higher"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "bgp.table_build_ms", unit: "ms", better: "lower"},
	{name: "bgp.recompute_ms", unit: "ms", better: "lower"},
	{name: "bgp.dirty_dests", unit: "count", better: "lower"},
	{name: "bgp.recompute_useful", unit: "ratio", better: "higher"},
	{name: "bgp.clean_skipped_share", unit: "ratio", better: "higher"},
	{name: "bgp.self_ms", unit: "ms", better: "lower"},
	{name: "topo.generate_ms", unit: "ms", better: "lower"},
	{name: "topo.self_ms", unit: "ms", better: "lower"},
	{name: "traffic.next_ns", unit: "ns", better: "lower"},
	{name: "traffic.self_ms", unit: "ms", better: "lower"},
	{name: "netsim.run_s", unit: "s", better: "lower"},
	{name: "netsim.peak_active", unit: "count", better: "lower"},
	{name: "netsim.switches_per_flow", unit: "count", better: "lower"},
	{name: "netsim.offload_frac", unit: "ratio", better: "higher"},
	{name: "netsim.self_ms", unit: "ms", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "go.alloc_mb", unit: "MiB", better: "lower"},
	{name: "bench.fail_frac", unit: "ratio", better: "lower"},
	{name: "bench.tail_pct", unit: "%", better: "higher"},
	{name: "bench.self_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ops_frac", unit: "ratio", better: "lower"},
	{name: "trace.overhead_p50_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.shed", unit: "count", better: "lower"},
}
