package main

import "fmt"

// metricDef is one metric the benchmark prints. For a per-layer metric,
// moves names the end-to-end metric it should move and on which workload,
// and span, when set, names the traced call whose median self time it is.
type metricDef struct {
	name, unit, better string
	moves              string
	span               string
}

// Workload names; each is generated from the --seed argument.
const (
	wSuite  = "suite"
	wTrials = "trials-sync"
	wScale  = "scale-100k"
)

var workloads = []string{wSuite, wTrials, wScale}

// endToEnd lists what a user of the repository sees, printed by every
// untraced run. A unit of work is one full E1–E21 suite (suite), one trial
// of the four-config mix (trials-sync) or one warm simulated slot
// (scale-100k), so work_ms_p50 is the suite's wall time, the inverse of
// trials per second and the warm per-slot time respectively. The times are
// wall times scaled to the reference host speed (see hostProbe); the
// traced run's host.probe_ms gives the factor back.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "work_ms_p50", unit: "ms", better: "lower"},
	{name: "work_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer lists the numbers of the traced run. Every traced run prints all
// of them; a layer a workload does not call reads 0 there. Times are the
// median self time of one call of the traced span; counts and ratios are
// medians per timed round (one suite, one pass of the trial mix, one warm
// run), with ratios given beside their base.
var perLayer = func() []metricDef {
	var out []metricDef
	for i := 1; i <= 21; i++ {
		id := fmt.Sprintf("E%d", i)
		out = append(out, metricDef{name: "experiment." + id + "_s", unit: "s", better: "lower",
			moves: "work_ms_p50 on suite", span: "experiment." + id})
	}
	for _, c := range []string{"uniform", "staged", "lossy", "churn"} {
		out = append(out, metricDef{name: "m2hew.run_trials_s." + c, unit: "s", better: "lower",
			moves: "work_ms_p50, work_per_s on trials-sync", span: "m2hew.run_trials." + c})
	}
	return append(out, []metricDef{
		{name: "harness.busy_s", unit: "s", better: "lower", moves: "work_ms_p50 on suite and trials-sync"},
		{name: "harness.queue_wait_s", unit: "s", better: "lower", moves: "work_ms_p50 on suite and trials-sync"},
		{name: "harness.utilization", unit: "ratio", better: "higher", moves: "work_per_s on suite and trials-sync (busy / wall x workers)"},
		{name: "harness.items", unit: "count", better: "higher", moves: "base of harness.utilization"},
		{name: "topology.build_s", unit: "s", better: "lower", moves: "setup_s on trials-sync", span: "topology.build"},
		{name: "topology.generate_s", unit: "s", better: "lower", moves: "setup_s on scale-100k", span: "topology.generate"},
		{name: "topology.assign_s", unit: "s", better: "lower", moves: "setup_s on scale-100k", span: "topology.assign"},
		{name: "topology.tiling_s", unit: "s", better: "lower", moves: "setup_s on scale-100k", span: "topology.tiling"},
		{name: "topology.inbound_candidates_s", unit: "s", better: "lower", moves: "setup_s, work_ms_p50 on scale-100k", span: "topology.inbound_candidates"},
		{name: "topology.discoverable_links_s", unit: "s", better: "lower", moves: "setup_s, work_ms_p50 on scale-100k", span: "topology.discoverable_links"},
		{name: "core.protocols_s", unit: "s", better: "lower", moves: "setup_s on scale-100k", span: "core.protocols"},
		{name: "sim.first_run_s", unit: "s", better: "lower", moves: "setup_s on scale-100k", span: "sim.first_run"},
		{name: "sim.run_s", unit: "s", better: "lower", moves: "work_ms_p50 on scale-100k", span: "sim.run"},
		{name: "sim.allocs_per_slot", unit: "count", better: "lower", moves: "peak_rss_mb, work_ms_p50 on scale-100k and trials-sync"},
		{name: "sim.alloc_bytes_per_slot", unit: "B", better: "lower", moves: "peak_rss_mb, work_ms_p50 on scale-100k and trials-sync"},
		{name: "sim.slots", unit: "count", better: "higher", moves: "base of the per-slot and path counts"},
		{name: "sim.tiled_slots", unit: "count", better: "higher", moves: "which path carries work_ms_p50 (all workloads)"},
		{name: "sim.batched_slots", unit: "count", better: "lower", moves: "which path carries work_ms_p50 (all workloads)"},
		{name: "sim.kernel_slots", unit: "count", better: "lower", moves: "which path carries work_ms_p50 (all workloads)"},
		{name: "sim.scalar_slots", unit: "count", better: "lower", moves: "which path carries work_ms_p50 (all workloads)"},
		{name: "sim.halo_words_per_slot", unit: "count", better: "lower", moves: "work_ms_p50 on scale-100k"},
		{name: "sim.deliveries_per_slot", unit: "count", better: "higher", moves: "work_ms_p50 on scale-100k and trials-sync"},
		{name: "sim.links_covered", unit: "count", better: "higher", moves: "checked to repeat exactly; moves nothing"},
		{name: "sim.scratch_hit_ratio", unit: "ratio", better: "higher", moves: "work_ms_p50 on suite and scale-100k"},
		{name: "sim.scratch_lookups", unit: "count", better: "higher", moves: "base of sim.scratch_hit_ratio"},
		{name: "channel.or_into_ns", unit: "ns", better: "lower", moves: "work_ms_p50 on scale-100k and trials-sync"},
		{name: "channel.overlap_resolve_ns", unit: "ns", better: "lower", moves: "work_ms_p50 on scale-100k and trials-sync"},
		{name: "channel.mask_words", unit: "count", better: "lower", moves: "shape of the channel.* kernel masks"},
		{name: "host.probe_ms", unit: "ms", better: "lower", moves: "none: the host's speed, which the end-to-end times are scaled by (probeRefMs / host.probe_ms)"},
		{name: "trace.untraced_work_ms_p50", unit: "ms", better: "lower", moves: "work_ms_p50 measured in the traced run's untraced half"},
		{name: "trace.traced_work_ms_p50", unit: "ms", better: "lower", moves: "work_ms_p50 with spans and counters attached"},
		{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "tracing overhead: traced over untraced work_ms_p50, minus 100"},
	}...)
}()
