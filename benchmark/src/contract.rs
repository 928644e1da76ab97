//! What the harness promises to report, and the checks that keep that
//! promise in step with `BENCHMARK.json` and with the program the rest of
//! the repository builds.

use crate::workloads;
use quarc_campaign::Json;

/// A reported quantity: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's value by which it may worsen; end-to-end
    /// metrics only.
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// Host time unless the name starts with `sim_`, which is simulated time.
/// The `sim_*` bounds are not the gate on simulated behaviour — at a fixed
/// seed those values and `sim_digest` must repeat exactly, which `repeat`
/// enforces — they only have to exceed the spread between seeds.
pub const END_TO_END: [Metric; 6] = [
    gate("setup_s", "s", "lower", 0.25),
    gate("wall_s", "s", "lower", 0.25),
    gate("work_per_s", "1/s", "higher", 0.25),
    gate("peak_rss_mb", "MiB", "lower", 0.15),
    gate("sim_latency_cycles", "cycles", "lower", 0.15),
    gate("sim_delivered_frac", "ratio", "higher", 0.01),
];

pub const PER_LAYER: [Metric; 67] = [
    layer("sim.build_s", "s", "lower"),
    layer("sim.run_s", "s", "lower"),
    layer("sim.extract_s", "s", "lower"),
    layer("sim.ns_per_flit_hop", "ns", "lower"),
    layer("sim.ns_per_cycle", "ns", "lower"),
    layer("sim.flit_hops", "count", "higher"),
    layer("sim.cycles", "count", "lower"),
    layer("sim.msgs_delivered", "count", "higher"),
    layer("sim.phase.arrivals_share", "ratio", "lower"),
    layer("sim.phase.polls_share", "ratio", "lower"),
    layer("sim.phase.gather_share", "ratio", "lower"),
    layer("sim.phase.commit_share", "ratio", "lower"),
    layer("sim.phase.gather_ns_per_item", "ns", "lower"),
    layer("sim.phase.commit_ns_per_item", "ns", "lower"),
    layer("sim.active.routers_per_cycle", "count", "lower"),
    layer("sim.active.links_per_cycle", "count", "lower"),
    layer("sim.active.poll_sources_per_cycle", "count", "lower"),
    layer("sim.credit_stalls", "count", "lower"),
    layer("sim.fault_on_ratio", "ratio", "lower"),
    layer("sim.recovery_on_ratio", "ratio", "lower"),
    layer("sim.fault_recovery_on_ratio", "ratio", "lower"),
    layer("sim.retransmissions", "count", "lower"),
    layer("sim.flits_dropped", "count", "lower"),
    layer("sim.recovered_receivers", "count", "higher"),
    layer("sim.ack_latency_cycles", "cycles", "lower"),
    layer("probe.profile_on_ratio", "ratio", "lower"),
    layer("probe.counters_on_ratio", "ratio", "lower"),
    layer("probe.trace_on_ratio", "ratio", "lower"),
    layer("workloads.poll_ns", "ns", "lower"),
    layer("workloads.next_due_ns", "ns", "lower"),
    layer("workloads.msgs_generated", "count", "higher"),
    layer("engine.rng_ns", "ns", "lower"),
    layer("engine.hist_record_ns", "ns", "lower"),
    layer("engine.hist_merge_us", "us", "lower"),
    layer("core.quarc_route_ns", "ns", "lower"),
    layer("core.bitslab_cycle_ns", "ns", "lower"),
    layer("core.config_validate_ns", "ns", "lower"),
    layer("analytical.sat_bound_us", "us", "lower"),
    layer("analytical.model_err_rel", "ratio", "lower"),
    layer("campaign.expand_s", "s", "lower"),
    layer("campaign.expand_us_per_point", "us", "lower"),
    layer("campaign.points", "count", "higher"),
    layer("campaign.key_hash_ns", "ns", "lower"),
    layer("campaign.exec_busy_frac", "ratio", "higher"),
    layer("campaign.exec_steals", "count", "lower"),
    layer("campaign.exec_steps", "count", "lower"),
    layer("campaign.sim_share", "ratio", "higher"),
    layer("campaign.point_wall_p50_ms", "ms", "lower"),
    layer("campaign.point_wall_p90_ms", "ms", "lower"),
    layer("campaign.reps_simulated", "count", "lower"),
    layer("campaign.reps_per_point", "count", "lower"),
    layer("campaign.merge_us_per_point", "us", "lower"),
    layer("campaign.cache_store_us", "us", "lower"),
    layer("campaign.cache_load_us", "us", "lower"),
    layer("campaign.cache_bytes", "bytes", "lower"),
    layer("campaign.cache_hits", "count", "higher"),
    layer("campaign.cache_misses", "count", "lower"),
    layer("campaign.topups", "count", "lower"),
    layer("campaign.json_encode_mb_s", "MB/s", "higher"),
    layer("campaign.json_decode_mb_s", "MB/s", "higher"),
    layer("campaign.artifact_write_s", "s", "lower"),
    layer("host.calib_ns", "ns", "lower"),
    layer("host.wall_median_s", "s", "lower"),
    layer("host.wall_iqr_s", "s", "lower"),
    layer("host.passes", "count", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.unattributed_frac", "ratio", "lower"),
];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn listed(doc: &Json, key: &str, second: &str) -> Result<Vec<(String, String)>, String> {
    let entries = doc.get(key).and_then(Json::as_arr).ok_or(format!("{key}: missing"))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
            field("name").zip(field(second)).ok_or(format!("{key}: entry without name/{second}"))
        })
        .collect()
}

/// Check that `BENCHMARK.json` (its text) names exactly the workloads and
/// metrics this harness reports, with the same units, directions and
/// bounds, so the file and the harness cannot drift apart.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {}", e.message))?;

    let named: Vec<String> = listed(&doc, "workloads", "why")?.into_iter().map(|w| w.0).collect();
    if named != workloads::NAMES {
        return Err(format!("workloads: file has {named:?}, harness has {:?}", workloads::NAMES));
    }
    for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let ours: Vec<_> = table.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
        if let Some(bad) = ours.iter().find(|(name, _)| !valid_name(name)) {
            return Err(format!("{key}: invalid metric name {:?}", bad.0));
        }
        let theirs = listed(&doc, key, "unit")?;
        if ours != theirs {
            let stray = theirs
                .iter()
                .find(|m| !ours.contains(m))
                .or(ours.iter().find(|m| !theirs.contains(m)));
            return Err(format!("{key}: file and harness disagree (first difference: {stray:?})"));
        }
        for (entry, metric) in doc.get(key).and_then(Json::as_arr).into_iter().flatten().zip(table)
        {
            if entry.get("better").and_then(Json::as_str) != Some(metric.better) {
                return Err(format!("{key}: {} has a different direction", metric.name));
            }
            let bound = entry.get("bound").and_then(Json::as_f64);
            if key == "end_to_end" && bound != Some(metric.bound) {
                return Err(format!("{key}: {} has a different bound", metric.name));
            }
        }
    }
    Ok(())
}

/// The settings of a manifest's `[profile.release]` table, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.replace(' ', ""))
        .collect();
    settings.sort();
    settings
}

/// Check that the repository's manifest and this package's build with the
/// same release profile: a different one would measure a different program.
pub fn check_release_profiles(root_manifest: &str, own_manifest: &str) -> Result<(), String> {
    let (root, own) = (release_profile(root_manifest), release_profile(own_manifest));
    if root.is_empty() || root != own {
        return Err(format!("release profiles differ: repository {root:?}, benchmark {own:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_and_harness_agree() {
        let text = include_str!("../../BENCHMARK.json");
        check_benchmark_json(text).unwrap();
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn a_renamed_metric_is_caught() {
        let text = include_str!("../../BENCHMARK.json").replace("\"wall_s\"", "\"wall_seconds\"");
        assert!(check_benchmark_json(&text).unwrap_err().contains("end_to_end"));
    }

    #[test]
    fn the_two_manifests_share_a_release_profile() {
        let own = include_str!("../Cargo.toml");
        check_release_profiles(include_str!("../../Cargo.toml"), own).unwrap();
        let thin = own.replace("lto = \"fat\"", "lto = \"thin\"");
        assert!(check_release_profiles(include_str!("../../Cargo.toml"), &thin).is_err());
    }
}
