package main

import (
	"hoyan/internal/gen"
)

// The fixtures are explicit literals — today's gen.WAN(k) values — so that a
// later edit to gen.WAN cannot silently change what a workload measures. Only
// Seed varies: it is the benchmark's -seed (in the generator it draws the
// flow set; topology, configurations and input routes are structural).
func wanProfile(name string, seed int64, k int) gen.Profile {
	return gen.Profile{
		Name:             name,
		Seed:             seed,
		Regions:          2 + k,
		CoresPerRegion:   2 + k,
		BordersPerRegion: 2,
		RRsPerRegion:     1,
		DCsPerRegion:     2,
		ISPsPerRegion:    1,
		PrefixesPerDC:    8 * k,
		PrefixesPerISP:   6 * k,
		Flows:            200 * k,
	}
}

// wan6: 112 devices, 169 links, 1056 inputs, 1200 flows, 119,212 RIB rows.
func wan6(seed int64) gen.Profile { return wanProfile("bench-wan6", seed, 6) }

// wan8: 160 devices, 233 links, 1760 inputs, 1600 flows, 282,514 RIB rows.
func wan8(seed int64) gen.Profile { return wanProfile("bench-wan8", seed, 8) }

// wan10: 216 devices, 301 links, 2640 inputs, 2000 flows, 617,776 RIB rows.
func wan10(seed int64) gen.Profile { return wanProfile("bench-wan10", seed, 10) }

// workload is one entry of the benchmark: a fixture, one kind of operation,
// and the reason it is measured.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop client goroutines (1 unless the
	// system under test is a server).
	clients int
	// minOps is the fewest timed operations a run reports on, however short
	// -seconds is.
	minOps int
	// setup builds the fixture and brings the system to the state the first
	// timed operation needs, including one untimed warm-up operation. Its wall
	// time is setup_s.
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{
		name:    "cold_verify",
		why:     "cold path, configs to verdict: fixpoint, EC expansion, RIB merge and forwarding do all the work; incremental, wire and substrate code none",
		clients: 1, minOps: 3,
		setup: setupCold,
	},
	{
		name:    "kfail_sweep",
		why:     "warm path under topology deltas: K=1 sweep of every link, 13 links per op, as forks of a base converged in set-up (SPF reuse, warm BGP restart, flow reuse, merged RIB)",
		clients: 1, minOps: 5,
		setup: setupKfail,
	},
	{
		name:    "route_churn",
		why:     "same fork engine under input deltas: no SPF work, ECs recomputed, no table sharing, no flow reuse; guards against link-fork gains paid for here",
		clients: 1, minOps: 10,
		setup: setupChurn,
	},
	{
		name:    "fleet_run",
		why:     "two-worker dsim fleet over in-memory substrates: wire codec, objstore/mq/taskdb, worker caches and master route_collect carry a large share",
		clients: 1, minOps: 3,
		setup: setupFleet,
	},
	{
		name:    "serve_mix",
		why:     "client-visible hoyand latency, closed loop of 2 clients: HTTP, admission, queue, fork, digest, diff; verify queries never fork, so queue cost shows apart from engine time",
		clients: 2, minOps: 50,
		setup: setupServe,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef declares one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer metrics,
// which are not gated).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them from the untraced run. BENCHMARK.json repeats this table and
// TestManifestMatchesCode keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{name: "config.parse_s", unit: "s", better: "lower"},
	{name: "config.bytes", unit: "B", better: "lower"},
	{name: "isis.spf_s", unit: "s", better: "lower"},
	{name: "core.new_engine_s", unit: "s", better: "lower"},
	{name: "ec.route_classes_s", unit: "s", better: "lower"},
	{name: "ec.route_reduction", unit: "ratio", better: "higher"},
	{name: "ec.expand_s", unit: "s", better: "lower"},
	{name: "bgp.fixpoint_s", unit: "s", better: "lower"},
	{name: "bgp.rounds", unit: "count", better: "lower"},
	{name: "bgp.par_rounds", unit: "count", better: "higher"},
	{name: "bgp.stripe_imbalance", unit: "ratio", better: "lower"},
	{name: "netmodel.rib_merge_s", unit: "s", better: "lower"},
	{name: "netmodel.rib_rows", unit: "count", better: "lower"},
	{name: "ec.flow_classes_s", unit: "s", better: "lower"},
	{name: "traffic.simulate_s", unit: "s", better: "lower"},
	{name: "traffic.flows", unit: "count", better: "lower"},
	{name: "intent.verify_s", unit: "s", better: "lower"},
	{name: "netmodel.digest_s", unit: "s", better: "lower"},
	{name: "netmodel.diff_s", unit: "s", better: "lower"},
	{name: "core.fork_s_p50", unit: "s", better: "lower"},
	{name: "core.fork_s_p90", unit: "s", better: "lower"},
	{name: "kfail.overhead_s", unit: "s", better: "lower"},
	{name: "isis.recompute_s", unit: "s", better: "lower"},
	{name: "isis.spf_reused_share", unit: "ratio", better: "higher"},
	{name: "bgp.tables_dirty_share", unit: "ratio", better: "lower"},
	{name: "bgp.warm_rounds", unit: "count", better: "lower"},
	{name: "traffic.flows_reused_share", unit: "ratio", better: "higher"},
	{name: "core.full_fallbacks", unit: "count", better: "lower"},
	{name: "dsim.upload_snapshot_s", unit: "s", better: "lower"},
	{name: "dsim.route_wait_s", unit: "s", better: "lower"},
	{name: "dsim.route_collect_s", unit: "s", better: "lower"},
	{name: "dsim.traffic_wait_s", unit: "s", better: "lower"},
	{name: "dsim.traffic_collect_s", unit: "s", better: "lower"},
	{name: "dsim.snapshot_cache_hit_share", unit: "ratio", better: "higher"},
	{name: "dsim.rib_cache_hit_share", unit: "ratio", better: "higher"},
	{name: "dsim.worker_engine_s", unit: "s", better: "lower"},
	{name: "dsim.worker_encode_s", unit: "s", better: "lower"},
	{name: "dsim.worker_ribs_load_s", unit: "s", better: "lower"},
	{name: "objstore.puts", unit: "count", better: "lower"},
	{name: "objstore.gets", unit: "count", better: "lower"},
	{name: "objstore.bytes_in", unit: "B", better: "lower"},
	{name: "objstore.bytes_out", unit: "B", better: "lower"},
	{name: "mq.pushed", unit: "count", better: "lower"},
	{name: "wire.encode_routes_s", unit: "s", better: "lower"},
	{name: "wire.decode_routes_s", unit: "s", better: "lower"},
	{name: "wire.routes_bytes", unit: "B", better: "lower"},
	{name: "wire.snapshot_encode_s", unit: "s", better: "lower"},
	{name: "wire.snapshot_bytes", unit: "B", better: "lower"},
	{name: "serve.load_network_s", unit: "s", better: "lower"},
	{name: "serve.whatif_link_s_p50", unit: "s", better: "lower"},
	{name: "serve.whatif_device_s_p50", unit: "s", better: "lower"},
	{name: "serve.verify_s_p50", unit: "s", better: "lower"},
	{name: "serve.op_s_p95", unit: "s", better: "lower"},
	{name: "serve.queue_wait_s_p50", unit: "s", better: "lower"},
	{name: "serve.queue_wait_s_p95", unit: "s", better: "lower"},
	{name: "serve.run_s_p50", unit: "s", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "run.ops_per_s", unit: "1/s", better: "higher"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_s", unit: "s", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},
}
