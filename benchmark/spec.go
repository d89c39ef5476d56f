package main

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root states the same lists for the driver; spec_test.go
// fails when the two disagree, so a name exists in exactly one spelling.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wRoutedSmall  = "routed-small"
	wDirectSmall  = "direct-small"
	wRoutedLarge  = "routed-large"
	wOverloadOpen = "overload-open"
	wSimStress    = "sim-stress"
	wSimKernel    = "sim-kernel"
)

var workloads = []workloadSpec{
	{wRoutedSmall, "closed loop, 64 B echo through ReliableClient, router (hash policy) and 3 daemons: per-message cost of two wire hops plus routing dominates"},
	{wDirectSmall, "same payloads, wire.Client straight to one daemon: bypasses federation and ReliableClient, so a router-only change predicts no move here"},
	{wRoutedLarge, "routed path with 64 KiB payloads: bytes, copies and allocation instead of messages; router re-framing shows here and barely on routed-small"},
	{wOverloadOpen, "open loop, seeded Poisson arrivals at 0.5x/0.8x/2x of an 800/s daemon with admission on: the only workload with a queue; wire cost is diluted by the 5 ms handler"},
	{wSimStress, "1000-node generated stress scenario through scenario, core engine, placement, netsim, fault and kernel as one stack: engine and placement dominate"},
	{wSimKernel, "hold model on the calendar-queue kernel alone, 1 M pending events: engine and scenario changes predict no move; kernel changes move this first"},
}

// End-to-end metrics. The driver requires every one of them from every
// workload, so each is defined per workload (see README.md): an
// "operation" is an invoke on the closed-loop workloads, a request
// finishing inside the 50 ms limit at the 2x step on overload-open, a
// simulated task on sim-stress and a schedule+fire cycle on sim-kernel.
// The bounds are as wide as the reference box's run-to-run spread makes
// them (README.md has the measured spreads).
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"good_frac", "ratio", "higher", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, from the traced run. A metric whose layer is not
// on a workload's path reads 0 there.
var perLayer = []metricSpec{
	{"client.invoke_mean_us", "us", "lower", 0},
	{"client.invoke_p99_us", "us", "lower", 0},
	{"wire.hop_self_us", "us", "lower", 0},
	{"wire.client_hop_self_us", "us", "lower", 0},
	{"wire.payload_mb_per_s", "MB/s", "higher", 0},
	{"wire.retries", "count", "lower", 0},
	{"wire.failovers", "count", "lower", 0},
	{"wire.conn_reuse", "count", "higher", 0},
	{"wire.encode_ns_64", "ns", "lower", 0},
	{"wire.decode_ns_64", "ns", "lower", 0},
	{"wire.encode_ns_64k", "ns", "lower", 0},
	{"wire.decode_ns_64k", "ns", "lower", 0},
	{"wire.frame_bytes_64", "B", "lower", 0},
	{"wire.frame_bytes_64k", "B", "lower", 0},
	{"federation.route_self_us", "us", "lower", 0},
	{"federation.route_excess_us", "us", "lower", 0},
	{"federation.order_self_ns", "ns", "lower", 0},
	{"federation.order_ns_3members", "ns", "lower", 0},
	{"federation.order_ns_64members", "ns", "lower", 0},
	{"federation.order_ll_ns_64members", "ns", "lower", 0},
	{"federation.routes", "count", "higher", 0},
	{"federation.route_errors", "count", "lower", 0},
	{"federation.member_share_max", "ratio", "lower", 0},
	{"faas.admit_self_us", "us", "lower", 0},
	{"faas.exec_self_us", "us", "lower", 0},
	{"faas.queue_wait_p50_ms", "ms", "lower", 0},
	{"faas.queue_wait_p99_ms", "ms", "lower", 0},
	{"faas.queue_depth_max", "count", "lower", 0},
	{"faas.shed_frac", "ratio", "lower", 0},
	{"faas.shed_low", "count", "lower", 0},
	{"faas.shed_normal", "count", "lower", 0},
	{"faas.shed_high", "count", "lower", 0},
	{"faas.shed_p50_us", "us", "lower", 0},
	{"faas.slot_limit_end", "count", "higher", 0},
	{"faas.high_p99_ms", "ms", "lower", 0},
	{"faas.good_frac_0.5x", "ratio", "higher", 0},
	{"faas.good_frac_2x", "ratio", "higher", 0},
	{"faas.cold_starts", "count", "lower", 0},
	{"faas.warm_hits", "count", "higher", 0},
	{"trace.spans_overhead_frac", "ratio", "lower", 0},
	{"metrics.overhead_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.cpu_ms_per_kop", "ms", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.offered_per_s", "1/s", "higher", 0},
	{"scenario.generate_s", "s", "lower", 0},
	{"scenario.validate_s", "s", "lower", 0},
	{"scenario.run_s", "s", "lower", 0},
	{"scenario.run_traced_s", "s", "lower", 0},
	{"scenario.run_parallel_s", "s", "lower", 0},
	{"trace.sim_overhead_frac", "ratio", "lower", 0},
	{"core.tasks_per_s_64n", "1/s", "higher", 0},
	{"sim.completed", "count", "higher", 0},
	{"sim.retries", "count", "lower", 0},
	{"sim.lost", "count", "lower", 0},
	{"sim.report_sha", "hash", "higher", 0},
	{"sim.kernel_fired", "count", "higher", 0},
	{"sim.events_per_s_1k", "1/s", "higher", 0},
	{"sim.heap_events_per_s", "1/s", "higher", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.cancel_cycle_ns", "ns", "lower", 0},
	{"sim.group_events_per_s", "1/s", "higher", 0},
	{"sim.group_identical", "count", "higher", 0},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
