package main

// The metric catalog. BENCHMARK.json lists the bounded end-to-end metrics
// as end_to_end, and e2e.<name> for each unbounded one followed by the
// layer metrics as per_layer (TestCatalogMatchesBenchmarkJSON holds the
// two together). Every traced run prints every per-layer metric on every
// workload: a per-layer metric reads 0 on a workload that bypasses its
// layer.

// e2eMetric is one end-to-end metric. The serving and the RL workloads
// measure different operations, so each metric names a role and the
// issue-level name it carries on each side. Every run prints every
// end-to-end metric; an unbounded one is too unsteady on a shared host to
// carry a regression bound, or is the as-measured twin of a probe-scaled
// bounded one (README.md), so the JSON line reports it only in traced
// runs, as the per-layer metric e2e.<name>.
type e2eMetric struct {
	name, unit, better string
	bounded            bool
	rlAs, serveAs      string // the operation measured on rl_* and on serve/fleet
}

var e2eCatalog = []e2eMetric{
	{"setup_s", "s", "lower", true,
		"process start to first timed frame: runtime, model, replay warm-up (median of set-ups, probe-scaled)",
		"process start to first timed request: snapshots, servers, install, connections (median of set-ups, probe-scaled)"},
	{"setup_raw_s", "s", "lower", false, "setup_s as measured, not probe-scaled", "setup_s as measured, not probe-scaled"},
	{"predict_us_p50", "us", "lower", true,
		"infer_frame_us_p50: one Test-mode frame, encode -> Runtime.PredictCtx -> step (Table 3 exec/frame), probe-scaled",
		"lone_us_p50: one closed-loop client's predict round trip"},
	{"predict_us_p99", "us", "lower", false, "infer_frame_us_p99, probe-scaled", "lone_us_p99"},
	{"predict_raw_us_p50", "us", "lower", false, "infer_frame_us_p50 as measured", "lone_us_p50 (never scaled)"},
	{"mixed_us_p50", "us", "lower", true,
		"train_frame_us_p50: one annotated Train frame, extract -> NNRL (DQN learns) -> write-back -> step, au_restore at episode end, probe-scaled",
		"open_us_p50: open-loop predict latency from its due time, observes and reloads mixed in"},
	{"mixed_us_p99", "us", "lower", false, "train_frame_us_p99, probe-scaled", "open_us_p99"},
	{"mixed_raw_us_p50", "us", "lower", false, "train_frame_us_p50 as measured", "open_us_p50 (never scaled)"},
	{"ops_per_s", "1/s", "higher", false,
		"Train frames per second over the Train phase",
		"sat_rps: completed predicts per second from nproc closed-loop clients"},
	{"reload_ms", "ms", "lower", false,
		"publish the trained model: SaveModel -> Test-mode Runtime load -> CompileModel (median)",
		"hot Reload round trip between the two snapshots (median)"},
	{"heap_mb", "MB", "lower", true, "live heap after a final GC", "live heap after a final GC"},
}

// layerMetric is one per-layer metric and the end-to-end metric it
// should move, on the workloads named.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerCatalog = []layerMetric{
	{"core.extract_us", "us", "lower", "mixed_us_p50 (train frame) on rl_*"},
	{"core.nnrl_us_p50", "us", "lower", "mixed_us_p50 (train frame) on rl_*"},
	{"core.nnrl_us_p99", "us", "lower", "e2e.mixed_us_p99 (train frame) on rl_*"},
	{"core.writeback_us", "us", "lower", "mixed_us_p50 (train frame) on rl_*"},
	{"core.restore_us", "us", "lower", "e2e.mixed_us_p99 (train frame) on rl_*"},
	{"core.predict_us", "us", "lower", "predict_us_p50 (infer frame) on rl_*"},
	{"rl.act_us", "us", "lower", "mixed_us_p50 (train frame) on rl_*; core.nnrl minus rl.* is core's own cost"},
	{"rl.observe_us", "us", "lower", "mixed_us_p50 (train frame) on rl_*"},
	{"nn.forward_backward_us", "us", "lower", "mixed_us_p50 (train frame) on rl_*"},
	{"nn.plan_predict_us", "us", "lower", "predict_us_p50 on rl_* (dominant on rl_raw); predict_us_p50 on serve/fleet (negligible)"},
	{"tensor.conv_fwd_us", "us", "lower", "mixed_us_p50 and predict_us_p50 on rl_raw"},
	{"tensor.conv_bwd_us", "us", "lower", "mixed_us_p50 on rl_raw"},
	{"host.probe_us", "us", "lower", "none: the host's speed; a raw frame time over its probe-scaled twin is about (host.probe_us/20)^(2/3) (rl_*)"},
	{"games.step_us", "us", "lower", "plain-frame baseline the frame metrics are read against (rl_*)"},
	{"games.encode_us", "us", "lower", "predict_us_p50 and mixed_us_p50 on rl_*"},
	{"serve.handler_us_p50", "us", "lower", "predict_us_p50 (lone) on serve/fleet; client minus handler is TCP + client"},
	{"serve.queue_wait_us_p50", "us", "lower", "mixed_us_p50, e2e.mixed_us_p99 (open) and e2e.ops_per_s (sat) on serve/fleet"},
	{"serve.batch_assemble_us_p50", "us", "lower", "mixed_us_p50, e2e.mixed_us_p99 (open) and e2e.ops_per_s (sat) on serve/fleet"},
	{"serve.batch_size_mean", "count", "higher", "e2e.ops_per_s (sat) on serve/fleet"},
	{"serve.overloaded", "count", "lower", "mixed_us_p50, e2e.mixed_us_p99 (open) and e2e.ops_per_s (sat) on serve/fleet"},
	{"serve.observe_us_p50", "us", "lower", "the observe writes of the open phase on serve/fleet"},
	{"fleet.hop_us_p50", "us", "lower", "predict_us_p50 (lone) on fleet"},
	{"loadgen.late_us_p99", "us", "lower", "validity of mixed_us_* (open) on serve/fleet"},
	{"trace.predict_overhead_us", "us", "lower", "tracing cost: traced minus untraced predict_us_p50"},
	{"trace.mixed_overhead_us", "us", "lower", "tracing cost: traced minus untraced mixed_us_p50"},
	{"trace.train_coverage_pct", "%", "higher", "share of a train frame the timed calls account for (rl_*)"},
	{"trace.infer_coverage_pct", "%", "higher", "share of an infer frame the timed calls account for (rl_*)"},
	{"count.frames", "count", "higher", "work done (rl_*)"},
	{"count.episodes", "count", "higher", "au_restore calls (rl_*)"},
	{"count.dqn_steps", "count", "higher", "transitions the DQN observed (rl_*)"},
	{"count.requests_sent", "count", "higher", "work done (serve/fleet)"},
	{"count.requests_ok", "count", "higher", "work done (serve/fleet)"},
	{"count.requests_failed", "count", "lower", "failed_frac (serve/fleet)"},
	{"count.requests_shed", "count", "lower", "failed_frac (serve/fleet)"},
	{"count.observes", "count", "higher", "work done (serve/fleet)"},
	{"count.reloads", "count", "higher", "work done (serve/fleet)"},
}
