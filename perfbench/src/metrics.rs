//! The benchmark's metric names and units, and the result line that
//! carries them. `BENCHMARK.json` declares the same lists; a test keeps the
//! two in step.

use runtime::json::Json;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("wire.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("beamforming.plan_build_ms", "ms"),
    ("beamforming.plan_mb", "MiB"),
    ("beamforming.plan_entries", "count"),
    ("beamforming.plan_cache_misses_after_warm", "count"),
    ("beamforming.tof_ms", "ms"),
    ("beamforming.das_ms", "ms"),
    ("core.rows_ms", "ms"),
    ("core.infer_ms.fp", "ms"),
    ("core.infer_ms.fx24", "ms"),
    ("core.infer_ms.fx20", "ms"),
    ("core.infer_ms.fx16", "ms"),
    ("core.infer_ms.w8a20", "ms"),
    ("core.infer_ms.w8a16", "ms"),
    ("core.gops_per_s.fp", "GOP/s"),
    ("core.gops_per_s.fx24", "GOP/s"),
    ("core.gops_per_s.fx20", "GOP/s"),
    ("core.gops_per_s.fx16", "GOP/s"),
    ("core.gops_per_s.w8a20", "GOP/s"),
    ("core.gops_per_s.w8a16", "GOP/s"),
    ("core.gops_per_frame", "GOP"),
    ("neural.encoder_ms", "ms"),
    ("neural.qkv_ms", "ms"),
    ("neural.scores_ms", "ms"),
    ("neural.softmax_ms", "ms"),
    ("neural.attn_v_ms", "ms"),
    ("neural.mlp_ms", "ms"),
    ("neural.decoder_ms", "ms"),
    ("runtime.madd_block_us", "us"),
    ("runtime.i64_mac_row_us", "us"),
    ("runtime.gather_two_tap_us", "us"),
    ("accel.cycle_share.encoder", "share"),
    ("accel.cycle_share.qkv", "share"),
    ("accel.cycle_share.scores", "share"),
    ("accel.cycle_share.softmax", "share"),
    ("accel.cycle_share.attn_v", "share"),
    ("accel.cycle_share.mlp", "share"),
    ("accel.cycle_share.decoder", "share"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.frames_per_s", "1/s"),
    ("trace.requests", "count"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values of one run, checked against a declared list.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `declared`.
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        assert!(
            declared.iter().all(|(name, _)| valid_name(name)),
            "illegal metric name"
        );
        Self {
            declared,
            values: vec![None; declared.len()],
        }
    }

    /// Records `name`. Panics on an undeclared name: that is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values[index] = Some(value);
    }

    /// Names declared but not recorded, or recorded as a non-finite number.
    pub fn missing(&self) -> Vec<&'static str> {
        self.declared
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|((n, _), _)| *n)
            .collect()
    }

    /// The `metrics` object of the result line, in declared order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.declared
                .iter()
                .zip(&self.values)
                .filter_map(|((name, unit), value)| {
                    let value = (*value)?;
                    Some((
                        name.to_string(),
                        Json::obj([("value", Json::num(value)), ("unit", Json::str(*unit))]),
                    ))
                })
                .collect(),
        )
    }
}

/// The result line: the last line a run prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn names(value: &Json, key: &str) -> Vec<String> {
        value
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named entry")
                    .to_string()
            })
            .collect()
    }

    fn units(value: &Json, key: &str) -> Vec<String> {
        value
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut deduped = all.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), all.len(), "duplicate metric names");
        assert!(
            !valid_name("latency ms")
                && !valid_name(".hidden")
                && !valid_name("a/b")
                && !valid_name("")
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let declared = Json::parse(&text).expect("BENCHMARK.json parses");
        let emitted =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let emitted_units =
            |list: &[(&str, &str)]| list.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&declared, "end_to_end"), emitted(&END_TO_END));
        assert_eq!(units(&declared, "end_to_end"), emitted_units(&END_TO_END));
        assert_eq!(names(&declared, "per_layer"), emitted(&PER_LAYER));
        assert_eq!(units(&declared, "per_layer"), emitted_units(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names(&declared, "workloads"), workloads);
    }

    #[test]
    fn result_line_carries_every_recorded_metric_with_its_unit() {
        let mut metrics = Metrics::new(&END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            metrics.set(name, 1.5 + i as f64);
        }
        assert!(metrics.missing().is_empty());
        let line = Json::parse(&result_line(true, 10, 0, &metrics)).expect("result line parses");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(10));
        let index = END_TO_END
            .iter()
            .position(|(n, _)| *n == "setup_s")
            .expect("setup_s declared");
        let setup = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(1.5 + index as f64)
        );
    }

    #[test]
    fn unrecorded_and_non_finite_metrics_are_missing() {
        let mut metrics = Metrics::new(&END_TO_END);
        metrics.set("setup_s", f64::NAN);
        assert_eq!(metrics.missing().len(), END_TO_END.len());
    }
}
