//! `trace` — capture a flit-event trace and emit Chrome trace-event JSON.
//!
//! Runs one (topology, n, rate, β) point with the [`SimProbe`] flit tracer
//! on and writes the ring's contents in the Chrome trace-event object form,
//! loadable directly in `chrome://tracing` or Perfetto: one instant event
//! per inject / hop / clone-at-branch / deliver, `ts` = cycle, `tid` = node,
//! per-message detail in `args`. The ring is bounded — at capacity the
//! oldest events are overwritten (and counted), so a long run yields the
//! *last* `capacity` events, which is what a "why is it still saturated"
//! investigation wants.
//!
//! ```text
//! trace [--topology T] [--n N] [--rate R] [--beta B] [--cycles C]
//!       [--capacity CAP] [--out PATH]
//! trace --validate PATH
//! ```
//!
//! `--validate` parses an existing trace artifact and checks the shape the
//! CI smoke job relies on — valid JSON, a `traceEvents` array with a
//! `process_name` metadata record first and at least one instant event, and
//! `ph`/`ts`/`pid`/`tid` on every event — exiting non-zero on any problem.

use quarc_bench::cli::Cli;
use quarc_bench::outln;
use quarc_campaign::{CurveParams, Json};
use quarc_core::topology::TopologyKind;
use quarc_sim::{build_any, NocSim, ProbeConfig};
use quarc_workloads::Synthetic;
use std::process::exit;

const CLI: Cli = Cli {
    name: "trace",
    usage: "usage: trace [--topology quarc|spidergon|mesh|torus] [--n N] [--rate R] \
     [--beta B] [--cycles C] [--capacity CAP] [--out PATH] | trace --validate PATH",
};

/// Largest event ring `--capacity` may ask for (the ring is allocated up
/// front, 32 bytes an event).
const MAX_CAPACITY: usize = 1 << 24;

/// Check the Chrome trace-event shape. Returns (metadata records, instant
/// events) or a description of the first problem found.
fn validate(text: &str) -> Result<(usize, usize), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    if doc.get("displayTimeUnit").and_then(Json::as_str).is_none() {
        return Err("missing `displayTimeUnit`".into());
    }
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".into());
    }
    let mut meta = 0usize;
    let mut instants = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph =
            ev.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i} lacks `ph`"))?;
        for key in ["ts", "pid", "tid"] {
            if ev.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("event {i} lacks numeric `{key}`"));
            }
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i} lacks `name`"));
        }
        match ph {
            "M" => meta += 1,
            "i" => instants += 1,
            other => return Err(format!("event {i} has unexpected phase `{other}`")),
        }
    }
    if meta == 0 {
        return Err("no process_name metadata record".into());
    }
    if instants == 0 {
        return Err("no flit events captured (all records are metadata)".into());
    }
    Ok((meta, instants))
}

fn main() {
    // The network flags fill a campaign curve, so the traced network is the
    // one a campaign runs.
    let mut curve = CurveParams::paper(TopologyKind::Quarc, 16, 8, 0.05);
    let mut rate = 0.05;
    let mut cycles: u64 = 2_000;
    let mut capacity: usize = 1 << 16;
    let mut out = String::from("trace.json");
    let mut validate_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { CLI.usage_error(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--topology" => curve.topology = CLI.parse(&flag, &value),
            "--n" => curve.n = CLI.parse(&flag, &value),
            "--rate" => rate = CLI.parse(&flag, &value),
            "--beta" => curve.beta = CLI.parse(&flag, &value),
            "--cycles" => cycles = CLI.parse(&flag, &value),
            "--capacity" => capacity = CLI.parse(&flag, &value),
            "--out" => out = value,
            "--validate" => validate_path = Some(value),
            other => CLI.usage_error(&format!("unknown flag {other}")),
        }
    }

    if let Some(path) = validate_path {
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| validate(&text).map_err(|why| format!("MALFORMED: {why}")));
        match verdict {
            Ok((meta, instants)) => {
                outln!("# {path}: OK ({meta} metadata record(s), {instants} flit events)")
            }
            Err(why) => {
                eprintln!("{path}: {why}");
                exit(1);
            }
        }
        return;
    }

    // What the tracer would otherwise assert on, and traffic the point
    // cannot carry, are usage errors; an invalid network exits 1.
    if capacity == 0 || capacity > MAX_CAPACITY {
        CLI.usage_error("--capacity must lie in 1..=16777216 events (0 disables tracing)");
    }
    let point = curve.point(rate, 0xBE7C);
    if let Err(e) = point.traffic.check(point.noc.n) {
        CLI.usage_error(&e.to_string());
    }
    if let Err(e) = point.check() {
        eprintln!("trace: {e}");
        exit(1);
    }
    let mut net = build_any(point.noc);
    let mut wl = Synthetic::new(net.num_nodes(), point.traffic);
    net.probe_mut().configure(ProbeConfig { trace_capacity: capacity, ..ProbeConfig::off() });
    for _ in 0..cycles {
        net.step(&mut wl);
    }
    let probe = net.probe();
    let captured = probe.events().count();
    // The process name is the traced network and its load, so the file
    // says what it shows.
    let label = format!("{} rate={rate} beta={}", point.noc, curve.beta);
    if let Err(e) = std::fs::write(&out, probe.chrome_trace_json(&label)) {
        eprintln!("trace: cannot write {out}: {e}");
        exit(1);
    }
    outln!(
        "# {out}: {captured} events over {cycles} cycles ({} overwritten at capacity {capacity})",
        probe.events_dropped()
    );
    outln!("# load in chrome://tracing or https://ui.perfetto.dev");
}
