//! Every metric the benchmark prints, by name. `BENCHMARK.json` at the
//! repository root lists the same names, units, directions and bounds; a
//! test below keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, printed by every
/// workload, guarded by a bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "repro_paper",
    "attack_grid",
    "internet_trials",
    "rtr_fleet_delta",
    "rtr_fleet_reset",
];

/// The end-to-end metrics. Each workload reads `round` and `op` its own
/// way (see the README's table); the definitions are otherwise the same
/// everywhere, which is what lets every workload print every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The per-layer metrics: `(name, unit, direction)`. A traced run prints
/// every one; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // The benchmark's own accounting.
    ("bench.wall_s", "s", Better::Lower),
    ("bench.rounds", "count", Better::Higher),
    ("bench.round_q1_ms", "ms", Better::Lower),
    ("bench.round_q3_ms", "ms", Better::Lower),
    ("bench.traced_rounds", "count", Better::Higher),
    ("bench.trace_overhead_share", "ratio", Better::Lower),
    ("bench.unattributed_share", "ratio", Better::Lower),
    ("bench.driver_share", "ratio", Better::Lower),
    ("bench.share.roa_rov_core", "ratio", Better::Higher),
    ("bench.share.bgpsim", "ratio", Better::Higher),
    ("bench.share.rtr", "ratio", Better::Higher),
    // repro_paper: one span per pipeline stage.
    ("datasets.world.generate_s", "s", Better::Lower),
    ("roa.envelope.seal_write_s", "s", Better::Lower),
    ("roa.scan.scan_dir_s", "s", Better::Lower),
    ("roa.scan.vrps_s", "s", Better::Lower),
    ("roa.scan.files", "count", Better::Higher),
    ("roa.scan.rejected", "count", Better::Lower),
    ("roa.scan.bytes_read", "bytes", Better::Higher),
    ("core.bgp.index_s", "s", Better::Lower),
    ("rov.index.build_s", "s", Better::Lower),
    ("rov.index.freeze_s", "s", Better::Lower),
    ("rov.frozen.validate_table_s", "s", Better::Lower),
    ("rov.frozen.routes_per_s", "1/s", Better::Higher),
    ("core.vulnerability.census_s", "s", Better::Lower),
    ("core.minimal.minimalize_s", "s", Better::Lower),
    ("core.compress.status_quo_s", "s", Better::Lower),
    ("core.compress.minimal_s", "s", Better::Lower),
    ("core.bounds.full_deployment_s", "s", Better::Lower),
    ("core.compress.full_deployment_s", "s", Better::Lower),
    ("core.compress.tuples_per_s", "1/s", Better::Higher),
    ("core.scenarios.table1_s", "s", Better::Lower),
    ("core.bounds.lower_bound_s", "s", Better::Lower),
    ("core.vulnerability.assess_risk_s", "s", Better::Lower),
    ("rtr.cache.new_s", "s", Better::Lower),
    ("rtr.server.reset_sync_8_s", "s", Better::Lower),
    ("bgpsim.matrix.small_grid_s", "s", Better::Lower),
    // attack_grid and internet_trials: executor counts, engine probes.
    ("bgpsim.exec.items", "count", Better::Higher),
    ("bgpsim.exec.executed", "count", Better::Lower),
    ("bgpsim.exec.footprint_checks", "count", Better::Higher),
    ("bgpsim.exec.cells_replayed", "count", Better::Higher),
    ("bgpsim.exec.cells_repropagated", "count", Better::Lower),
    ("bgpsim.exec.compilations", "count", Better::Lower),
    ("bgpsim.exec.replay_ratio", "ratio", Better::Higher),
    ("bgpsim.engine.propagate_us", "us", Better::Lower),
    ("bgpsim.engine.propagate_ns_per_as", "ns", Better::Lower),
    ("bgpsim.engine.footprint_validate_ns", "ns", Better::Lower),
    ("bgpsim.engine.compile_policies_ms", "ms", Better::Lower),
    ("bgpsim.deployment.policies_ms", "ms", Better::Lower),
    ("bgpsim.engine.filter_build_ns", "ns", Better::Lower),
    ("bgpsim.exec.propagate_share_est", "ratio", Better::Higher),
    ("bgpsim.exec.overhead_share_est", "ratio", Better::Lower),
    ("bgpsim.exec.seq_pass_s", "s", Better::Lower),
    ("bgpsim.exec.par_speedup", "ratio", Better::Higher),
    ("bgpsim.engine.workspace_bytes", "bytes", Better::Lower),
    ("bgpsim.topology.bytes", "bytes", Better::Lower),
    ("bgpsim.topology.generate_s", "s", Better::Lower),
    // rtr_fleet_delta: per-epoch and per-catch-up costs, fan-out counts.
    ("rtr.fleet.initial_sync_s", "s", Better::Lower),
    ("rtr.fleet.epoch_converge_tail_ms", "ms", Better::Lower),
    ("rtr.fleet.epoch_converge_tail_pct", "pct", Better::Higher),
    ("rtr.server.update_notify_us", "us", Better::Lower),
    ("rtr.server.receive_us", "us", Better::Lower),
    ("rtr.server.drain_us", "us", Better::Lower),
    ("rtr.wire.decode_us", "us", Better::Lower),
    ("rtr.client.handle_us", "us", Better::Lower),
    ("rtr.wire.encode_query_ns", "ns", Better::Lower),
    ("rov.chain.apply_epoch_us", "us", Better::Lower),
    ("rov.chain.refreezes", "count", Better::Lower),
    ("rtr.server.images_built", "count", Better::Lower),
    ("rtr.server.images_reused", "count", Better::Higher),
    ("rtr.server.image_reuse_ratio", "ratio", Better::Higher),
    ("rtr.server.notifies", "count", Better::Higher),
    ("rtr.server.overflow_drops", "count", Better::Lower),
    ("rtr.server.teardowns", "count", Better::Lower),
    ("rtr.server.bytes_out_per_epoch", "bytes", Better::Lower),
    ("rtr.wire.pdus_per_epoch", "count", Better::Lower),
    ("rtr.client.reset_fallbacks", "count", Better::Lower),
    ("rtr.client.extra_rounds", "count", Better::Lower),
    // rtr_fleet_reset: TCP tails, cache updates, the sans-io split.
    ("rtr.transport.connect_ms", "ms", Better::Lower),
    ("rtr.tcp.sync_p90_ms", "ms", Better::Lower),
    ("rtr.tcp.sync_p99_ms", "ms", Better::Lower),
    ("rtr.tcp.goodput_mb_s", "MB/s", Better::Higher),
    ("rtr.cache.update_delta_ms", "ms", Better::Lower),
    ("rtr.tcp.first_sync_after_update_ms", "ms", Better::Lower),
    ("rtr.server.payload_bytes_per_sync", "bytes", Better::Higher),
    ("rtr.server.reset_receive_ms", "ms", Better::Lower),
    ("rtr.server.reset_drain_ms", "ms", Better::Lower),
    ("rtr.wire.decode_snapshot_ms", "ms", Better::Lower),
    ("rtr.client.apply_snapshot_ms", "ms", Better::Lower),
    ("rtr.transport.loopback_overhead_ms", "ms", Better::Lower),
];

/// Whether `name` is a registered per-layer metric.
pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|(n, _, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The string values of `"key": "value"` pairs inside the JSON array
    /// that follows `"section":` — enough of a reader for a file whose
    /// shape this test also pins.
    fn section_values(json: &str, section: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let body = &json[open..close];
        let needle = format!("\"{key}\"");
        let mut out = Vec::new();
        let mut rest = body;
        while let Some(at) = rest.find(&needle) {
            rest = &rest[at + needle.len()..];
            let colon = rest.find(':').expect("key has a value");
            let value = rest[colon + 1..].trim_start();
            let value = match value.strip_prefix('"') {
                Some(quoted) => quoted[..quoted.find('"').expect("string closes")].to_string(),
                None => value[..value
                    .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
                    .expect("scalar ends")]
                    .to_string(),
            };
            out.push(value);
        }
        out
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for m in &END_TO_END {
            assert!(legal_name(m.name) && legal_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(legal_name(name) && legal_unit(unit), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for w in WORKLOADS {
            assert!(legal_name(w) && seen.insert(w), "{w}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END[0].name, "setup_s");
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, widest, "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` and the printed metrics must name the same
    /// things, in the same order, with the same units and bounds.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(json.len() <= 64 * 1024);

        let workloads = section_values(&json, "workloads", "name");
        assert_eq!(workloads, WORKLOADS);
        for why in section_values(&json, "workloads", "why") {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let names = section_values(&json, "end_to_end", "name");
        let units = section_values(&json, "end_to_end", "unit");
        let better = section_values(&json, "end_to_end", "better");
        let bounds = section_values(&json, "end_to_end", "bound");
        assert_eq!(names.len(), END_TO_END.len());
        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(names[i], m.name);
            assert_eq!(units[i], m.unit, "{}", m.name);
            assert_eq!(better[i], m.better.word(), "{}", m.name);
            assert_eq!(bounds[i].parse::<f64>().unwrap(), m.bound, "{}", m.name);
        }

        let names = section_values(&json, "per_layer", "name");
        let units = section_values(&json, "per_layer", "unit");
        let better = section_values(&json, "per_layer", "better");
        assert_eq!(names.len(), PER_LAYER.len());
        for (i, (name, unit, dir)) in PER_LAYER.iter().enumerate() {
            assert_eq!(names[i], *name);
            assert_eq!(units[i], *unit, "{name}");
            assert_eq!(better[i], dir.word(), "{name}");
        }

        assert!(json.contains("\"paths\": [\"benchmark\"]"));
        assert!(json.contains("\"command\": [\"bash\", \"benchmark/run.sh\"]"));
    }
}
