//! The benchmark's catalogue: every workload and metric name, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names (a
//! unit test keeps the two in step); the README explains each.

/// A metric's name and unit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The six workloads, in the order a run without `--workload` takes them.
pub const WORKLOADS: [&str; 6] = [
    "zoo_tp2",
    "gpt_tp8",
    "llama_deep",
    "moe_ep",
    "bugs18",
    "cert_recheck",
];

/// What a user of the checker sees; reported by the untraced run.
pub const END_TO_END: [MetricSpec; 4] = [
    m("setup_s", "s"),
    m("wall_ms_p50", "ms"),
    m("cpu_ms_p50", "ms"),
    m("peak_rss_mb", "MB"),
];

/// One layer each (layer = crate name); reported by the traced run.
pub const PER_LAYER: [MetricSpec; 49] = [
    m("cli.spawn_floor_ms", "ms"),
    m("cli.stage_sum_share", "share"),
    m("cli.advisory_share", "share"),
    m("trace.overhead_pct", "%"),
    m("core.stage_lint_ms", "ms"),
    m("core.stage_shard_ms", "ms"),
    m("core.stage_map_ms", "ms"),
    m("core.stage_certify_ms", "ms"),
    m("core.stage_numeric_ms", "ms"),
    m("core.relation_ms", "ms"),
    m("core.check_ms", "ms"),
    m("core.operators", "count"),
    m("core.saturation_runs", "count"),
    m("ir.parse_ms", "ms"),
    m("ir.parse_mb_per_s", "MB/s"),
    m("ir.nodes", "count"),
    m("lint.graph_ms", "ms"),
    m("shard.analyze_ms", "ms"),
    m("shard.hinted_tensors", "count"),
    m("iso.analyze_ms", "ms"),
    m("iso.classes", "count"),
    m("iso.covered_ops", "count"),
    m("lemmas.registry_ms", "ms"),
    m("lemmas.rules", "count"),
    m("rules.backoff_schedule_ms", "ms"),
    m("egraph.compile_ms", "ms"),
    m("egraph.search_ms", "ms"),
    m("egraph.apply_ms", "ms"),
    m("egraph.rebuild_ms", "ms"),
    m("egraph.iterations", "count"),
    m("egraph.peak_nodes", "count"),
    m("egraph.matches", "count"),
    m("egraph.applications", "count"),
    m("egraph.useful_ratio", "ratio"),
    m("par.cache_hit_rate", "ratio"),
    m("par.template_hits", "count"),
    m("par.template_instantiated", "count"),
    m("par.template_fallbacks", "count"),
    m("par.jobs_speedup", "ratio"),
    m("cert.verify_ms", "ms"),
    m("cert.mappings", "count"),
    m("cert.steps", "count"),
    m("cert.to_json_ms", "ms"),
    m("cert.from_json_ms", "ms"),
    m("cert.bytes", "B"),
    m("cert.json_mb_per_s", "MB/s"),
    m("num.analyze_ms", "ms"),
    m("num.analyze_cached_ms", "ms"),
    m("num.corpus_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string value of `key` in the flat JSON object `obj`.
    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let rest = obj.split_once(&format!("\"{key}\": \""))?.1;
        Some(rest.split_once('"')?.0)
    }

    /// The `(name, unit)` of every object in the array under `section`
    /// (the arrays of `BENCHMARK.json` hold flat objects only).
    fn listed(section: &str) -> Vec<(&'static str, Option<&'static str>)> {
        let body = BENCHMARK_JSON
            .split_once(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .1
            .split_once(']')
            .expect("the array closes")
            .0;
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("a name"), field(obj, "unit")))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(well_formed(name), "{name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_fixes_the_run_length_the_benchmark_defaults_to() {
        let rest = BENCHMARK_JSON
            .split_once("\"run_seconds\": ")
            .expect("BENCHMARK.json has run_seconds")
            .1;
        let seconds: f64 = rest
            .split_once(',')
            .expect("another key follows")
            .0
            .parse()
            .expect("a number");
        assert_eq!(seconds, crate::RUN_SECONDS);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let workloads: Vec<&str> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        for (section, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let emitted: Vec<_> = specs.iter().map(|m| (m.name, Some(m.unit))).collect();
            assert_eq!(listed(section), emitted, "{section}");
        }
    }
}
