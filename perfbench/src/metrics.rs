//! The metric catalogue (names, units, directions) and the result line.
//! `BENCHMARK.json` must list exactly these names; a test checks it.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured untraced; what a user of the library sees.
    EndToEnd,
    /// Measured in the traced run; one layer each.
    Layer,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the `BENCHMARK.json` parity test.
    #[allow(dead_code)]
    pub higher_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        kind: Kind::Layer,
    }
}

const LOWER: bool = false;
const HIGHER: bool = true;

pub const CATALOGUE: &[Metric] = &[
    e2e("soi_p50_s", "s", LOWER),
    e2e("soi_p90_s", "s", LOWER),
    e2e("ct_p50_s", "s", LOWER),
    e2e("snr_db", "dB", HIGHER),
    e2e("setup_s", "s", LOWER),
    e2e("peak_rss_mib", "MiB", LOWER),
    // soifft-core::conv
    layer("conv_s", "s", LOWER),
    layer("conv_gflops", "GFLOP/s", HIGHER),
    layer("conv_gbps", "GB/s", HIGHER),
    layer("conv_roofline_frac", "ratio", HIGHER),
    // soifft-fft
    layer("block_dft_s", "s", LOWER),
    layer("recovery_fft_s", "s", LOWER),
    layer("recovery_fft_gflops", "GFLOP/s", HIGHER),
    layer("single_node_fft_s", "s", LOWER),
    layer("single_node_fft_gflops", "GFLOP/s", HIGHER),
    // soifft-cluster: exchange and transport
    layer("ghost_s", "s", LOWER),
    layer("a2a_s", "s", LOWER),
    layer("a2a_gbps", "GB/s", HIGHER),
    layer("a2a_roofline_frac", "ratio", HIGHER),
    layer("ct_exchange_s", "s", LOWER),
    layer("barrier_wait_s", "s", LOWER),
    layer("a2a_bytes", "B", LOWER),
    layer("a2a_messages", "count", LOWER),
    layer("retransmits", "count", LOWER),
    layer("comm_allocs", "count", LOWER),
    // memory
    layer("heap_bytes_per_transform", "B", LOWER),
    layer("heap_allocs_per_transform", "count", LOWER),
    // setup
    layer("window_s", "s", LOWER),
    layer("plan_s", "s", LOWER),
    layer("workspace_s", "s", LOWER),
    layer("mesh_s", "s", LOWER),
    layer("engine_start_s", "s", LOWER),
    // soifft-core::pipeline (residual)
    layer("unattributed_s", "s", LOWER),
    layer("replay_frac", "ratio", HIGHER),
    layer("replay_bit_identical", "bool", HIGHER),
    // soifft-serve
    layer("submit_us", "us", LOWER),
    layer("queue_wait_ms", "ms", LOWER),
    layer("service_ms", "ms", LOWER),
    layer("generator_lag_ms", "ms", LOWER),
    layer("rejected", "count", LOWER),
    layer("shed", "count", LOWER),
    layer("retries", "count", LOWER),
    layer("useful_frac", "ratio", HIGHER),
    layer("serve_lo_p50_ms", "ms", LOWER),
    layer("serve_lo_p99_ms", "ms", LOWER),
    layer("serve_hi_p50_ms", "ms", LOWER),
    layer("serve_hi_p99_ms", "ms", LOWER),
    layer("overload_goodput_per_s", "1/s", HIGHER),
    layer("slo_rate_per_s", "1/s", HIGHER),
    layer("failed_frac", "ratio", LOWER),
    // machine roofline
    layer("stream_copy_gbps", "GB/s", HIGHER),
    layer("stream_triad_gbps", "GB/s", HIGHER),
    layer("fft_peak_gflops", "GFLOP/s", HIGHER),
    layer("axpy_peak_gflops", "GFLOP/s", HIGHER),
    layer("stream_array_mib", "MiB", HIGHER),
    layer("llc_mib", "MiB", HIGHER),
    // provenance
    layer("cores", "count", HIGHER),
    layer("ranks", "count", HIGHER),
];

fn lookup(name: &str) -> &'static Metric {
    CATALOGUE
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Values measured by one run, keyed by catalogue name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        lookup(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// The result line: every metric of `kind`, in catalogue order. A layer
/// a workload does not exercise reads 0; a missing end-to-end metric is
/// a bug in the workload.
pub fn result_json(outcome: &Outcome, kind: Kind) -> String {
    let metrics: Vec<String> = CATALOGUE
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| {
            let value = match (outcome.values.get(m.name), kind) {
                (Some(v), _) => v,
                (None, Kind::Layer) => 0.0,
                (None, Kind::EndToEnd) => panic!("end-to-end metric {} not measured", m.name),
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every entry in one section of
    /// `BENCHMARK.json`, read with plain string scanning.
    fn section(text: &str, key: &str) -> Vec<(String, String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let open = start + text[start..].find('[').unwrap();
        let close = open + text[open..].find(']').unwrap();
        let field = |obj: &str, f: &str| -> String {
            let at = obj
                .find(&format!("\"{f}\""))
                .unwrap_or_else(|| panic!("{f} in {obj}"));
            let rest = &obj[at + f.len() + 2..];
            let q = rest.find('"').unwrap();
            let rest = &rest[q + 1..];
            rest[..rest.find('"').unwrap()].to_string()
        };
        text[open + 1..close]
            .split('}')
            .filter(|o| o.contains("\"name\""))
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect()
    }

    fn catalogue(kind: Kind) -> Vec<(String, String, String)> {
        CATALOGUE
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert_eq!(section(&text, "end_to_end"), catalogue(Kind::EndToEnd));
        assert_eq!(section(&text, "per_layer"), catalogue(Kind::Layer));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = CATALOGUE.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOGUE.len());
        for m in CATALOGUE {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_kind() {
        let mut values = Values::default();
        for m in CATALOGUE.iter().filter(|m| m.kind == Kind::EndToEnd) {
            values.set(m.name, 1.25);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        let line = result_json(&outcome, Kind::EndToEnd);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let layers = result_json(&outcome, Kind::Layer);
        assert!(layers.contains("\"conv_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!layers.contains("setup_s"));
    }
}
