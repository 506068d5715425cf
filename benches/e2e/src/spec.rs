//! What the benchmark declares: its workloads and every metric by name,
//! unit and direction. `BENCHMARK.json` at the repository root repeats this
//! table (a self-test holds the two equal in both directions); the bounds
//! live only there, because they come from calibration runs, not from code.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or value that repeats exactly at a fixed seed: it separates
    /// "faster" from "computes something else". `calibrate` holds two sets
    /// of runs to bit-equality on these.
    pub exact: bool,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, exact: false }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, exact: false }
}

const fn exact(m: MetricSpec) -> MetricSpec {
    MetricSpec { exact: true, ..m }
}

/// The four workloads and, in one line each, why they exist.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "gen_local",
        "dataset production on the local pool: simulators+core+runtime+data(write) do all the work, ppx/tensor/nn none; the control for PPX and kernel changes",
    ),
    (
        "gen_ppx",
        "the same traces through 8 PPX sessions over TCP and one mux reactor: codec, frame, syscall and reactor work dominate; a PPX gain shows here and must not move gen_local",
    ),
    (
        "train_tau",
        "IC training steps driven from outside (sampler, get_many, Trainer::step): tensor+nn+train do the work, data is used on its read side, ppx/runtime idle",
    ),
    (
        "infer_tau",
        "observation to IC posterior: step-wise B=1 nn forward per sample on top of simulator+core; prior-IS and RMH (no nn) are its controls",
    ),
];

/// End-to-end metrics, measured with tracing off, defined on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    lo("setup_s", "s"),
    hi("traces_per_s", "1/s"),
    lo("op_latency_p50_ms", "ms"),
    lo("op_latency_p75_ms", "ms"),
    lo("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `<crate>.<metric>`, measured in the traced run. A
/// layer a workload does not call reports 0 for its metrics there.
pub const PER_LAYER: [MetricSpec; 71] = [
    lo("harness.trace_overhead_frac", "ratio"),
    // simulators + core: one trace, single thread.
    lo("simulators.trace_us", "us"),
    exact(lo("simulators.samples_per_trace", "count")),
    lo("core.record_us", "us"),
    // runtime: the batch runner around them.
    lo("runtime.overhead_us_per_trace", "us"),
    hi("runtime.worker_busy_frac", "ratio"),
    lo("runtime.imbalance", "ratio"),
    lo("runtime.steals", "count"),
    exact(lo("runtime.retries", "count")),
    exact(lo("runtime.failures", "count")),
    hi("runtime.scaling_eff_2w", "ratio"),
    // data: records and shards, write side then read side.
    lo("data.from_trace_us", "us"),
    lo("data.encode_us", "us"),
    lo("data.decode_us", "us"),
    exact(lo("data.bytes_per_trace", "B")),
    hi("data.shard_write_mb_s", "MB/s"),
    hi("data.shard_read_mb_s", "MB/s"),
    lo("data.dataset_open_us", "us"),
    lo("data.sort_s", "s"),
    lo("data.sampler_plan_ms", "ms"),
    lo("data.get_many_us_per_trace", "us"),
    // ppx: codec, blocking round trip, mux reactor.
    exact(lo("ppx.msgs_per_trace", "count")),
    exact(lo("ppx.bytes_per_trace", "B")),
    lo("ppx.encode_ns_per_msg", "ns"),
    lo("ppx.decode_ns_per_msg", "ns"),
    lo("ppx.blocking_rtt_us", "us"),
    lo("ppx.mux_polls_per_msg", "ratio"),
    exact(lo("ppx.mux_frames_in", "count")),
    exact(lo("ppx.mux_frames_out", "count")),
    exact(lo("ppx.conn_failures", "count")),
    lo("ppx.overhead_us_per_trace", "us"),
    // tensor: kernels against the machine peak measured in the same run.
    hi("tensor.peak_fma_gflops", "GFLOP/s"),
    hi("tensor.stream_gb_s", "GB/s"),
    hi("tensor.gemm_lstm_gflops", "GFLOP/s"),
    hi("tensor.gemm_lstm_roofline_frac", "ratio"),
    hi("tensor.gemm_at_b_gflops", "GFLOP/s"),
    hi("tensor.conv3d_fwd_gflops", "GFLOP/s"),
    hi("tensor.conv3d_bwd_data_gflops", "GFLOP/s"),
    hi("tensor.conv3d_bwd_weights_gflops", "GFLOP/s"),
    hi("tensor.pool_speedup_2t", "ratio"),
    exact(lo("tensor.flops_per_step", "count")),
    // nn: layers at the training and the inference shapes.
    lo("nn.lstm_fwd_us", "us"),
    lo("nn.lstm_bwd_us", "us"),
    lo("nn.lstm_step_inference_us", "us"),
    lo("nn.cnn3d_fwd_us", "us"),
    lo("nn.cnn3d_bwd_us", "us"),
    lo("nn.cnn3d_inference_us", "us"),
    lo("nn.heads_loss_us", "us"),
    lo("nn.heads_proposal_us", "us"),
    lo("nn.adam_step_us", "us"),
    // train: where a step's wall time goes.
    lo("train.forward_s", "s"),
    lo("train.backward_s", "s"),
    lo("train.optimizer_s", "s"),
    lo("train.other_s", "s"),
    lo("train.data_wait_s", "s"),
    exact(lo("train.sub_minibatches_per_step", "count")),
    exact(hi("train.used_traces", "count")),
    exact(lo("train.dropped_traces", "count")),
    exact(lo("train.final_loss", "nat")),
    // inference: the three engines on one observation.
    lo("inference.ic_trace_us", "us"),
    lo("inference.prior_trace_us", "us"),
    lo("inference.rmh_iter_us", "us"),
    lo("inference.ic_nn_share", "ratio"),
    exact(hi("inference.ic_ess_frac", "ratio")),
    exact(hi("inference.prior_is_ess_frac", "ratio")),
    exact(hi("inference.rmh_accept_rate", "ratio")),
    exact(lo("inference.rmh_iact", "count")),
    exact(lo("inference.ic_rmh_mean_tv", "ratio")),
    hi("inference.ic_ess_per_s", "1/s"),
    hi("inference.prior_is_ess_per_s", "1/s"),
    hi("inference.rmh_ess_per_s", "1/s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w), "workload {w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
            assert!(seen.insert(w), "{w} declared twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "metric {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(m.name.contains('.'), "{} is not <crate>.<metric>", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// (name, unit, better) triples of one section of `BENCHMARK.json`.
    fn declared(doc: &Json, section: &str) -> BTreeSet<(String, String, String)> {
        doc.get(section)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn printed(specs: &[MetricSpec]) -> BTreeSet<(String, String, String)> {
        specs
            .iter()
            .map(|m| {
                let better = if m.better == Better::Higher { "higher" } else { "lower" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        // Set equality covers both directions: nothing printed is
        // undeclared, nothing declared goes unprinted.
        assert_eq!(declared(&doc, "end_to_end"), printed(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), printed(&PER_LAYER));
        let workloads: BTreeSet<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: BTreeSet<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, ours);
        for m in doc.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }
}
