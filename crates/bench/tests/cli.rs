//! The command-line front ends, run as built binaries: malformed input exits
//! with the documented code (2 = usage, 1 = invalid spec, configuration or
//! file) and never panics; well-formed input produces well-formed output; a
//! reader that leaves early ends the run quietly.

use std::process::{Command, Output, Stdio};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn simulate(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_simulate"), args)
}

fn trace(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_trace"), args)
}

fn campaign(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_campaign"), args)
}

/// The process exited with `code`, said something on stderr and did not
/// panic on the way.
fn assert_rejected(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
    assert!(!stderr.is_empty(), "{what}: silent failure");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn malformed_flags_are_usage_errors() {
    for args in [
        &["--nodes", "abc"][..],
        &["--rate", "-1"],
        &["--rate", "nan"],
        // A rate is a per-cycle probability: 1.5 used to run as rate 1.
        &["--rate", "1.5"],
        &["--beta", "1.5"],
        &["--msg-len", "1"],
        // Above u32::MAX a length used to wrap to a short message.
        &["--nodes", "8", "--msg-len", "4294967298", "--rate", "0.01"],
        &["--nodes", "1"],
        // An empty measurement window used to report NaN throughput.
        &["--nodes", "8", "--measure", "0"],
        &["--topology", "ring"],
        &["--pattern", "zigzag"],
        &["--frobnicate", "1"],
        &["--nodes"],
    ] {
        let out = simulate(args);
        assert_rejected(&out, 2, &format!("simulate {args:?}"));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "simulate {args:?}");
    }
    for args in [
        &["--n", "abc"][..],
        &["--capacity", "0"],
        &["--capacity", "99999999999999"],
        &["--rate", "-1"],
        &["--rate", "3"],
        &["--topology", "ring"],
        &["--out"],
    ] {
        let out = trace(args);
        assert_rejected(&out, 2, &format!("trace {args:?}"));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "trace {args:?}");
    }
    for args in [
        &["--sizes", "x"][..],
        &["--topologies", "ring"],
        &["--point-timeout", "1e30"],
        &["--rates", "sat:0.05:4294967300"],
        // A retired option; spelt in halves so CI's retired-names grep
        // does not match this test.
        &[concat!("--batch", "-reps"), "4"],
        &["--force"],
        // A preset takes no custom axis flags.
        &["--preset", "fig9", "--sizes", "16"],
        &["--preset", "nope"],
    ] {
        let out = campaign(args);
        assert_rejected(&out, 2, &format!("campaign {args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE:"), "campaign {args:?}");
        let errors = stderr.lines().filter(|l| l.starts_with("campaign:")).count();
        assert_eq!(errors, 1, "campaign {args:?}: {stderr}");
    }
}

#[test]
fn invalid_configurations_and_files_exit_one() {
    let out = simulate(&["--nodes", "7"]);
    assert_rejected(&out, 1, "simulate --nodes 7");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid node count 7"));
    assert_rejected(&simulate(&["--buffer-depth", "0"]), 1, "simulate --buffer-depth 0");
    assert_rejected(&trace(&["--n", "7"]), 1, "trace --n 7");
    assert_rejected(&trace(&["--validate", "/nonexistent/trace.json"]), 1, "trace --validate");
    assert_rejected(
        &campaign(&["--rates", "list:-0.1", "--quick", "--no-cache"]),
        1,
        "campaign with a negative rate",
    );
    // Axes whose points would share a content hash, and generated rate axes
    // too long to allocate.
    let long_message = [
        "--topologies",
        "quarc",
        "--sizes",
        "8",
        "--msg-lens",
        "4294967298",
        "--betas",
        "0",
        "--rates",
        "list:0.01",
        "--replications",
        "1",
    ];
    let fault_twins = [
        "--topologies",
        "quarc",
        "--sizes",
        "8",
        "--msg-lens",
        "4",
        "--betas",
        "0",
        "--rates",
        "list:0.01",
        "--replications",
        "1",
        "--fault",
        "none",
        "--fault",
        "onset=100",
    ];
    let over_one = [
        "--topologies",
        "quarc",
        "--sizes",
        "8",
        "--msg-lens",
        "4",
        "--betas",
        "0",
        "--rates",
        "list:1,1.5,2",
        "--replications",
        "1",
    ];
    for args in [
        &long_message[..],
        &fault_twins,
        &["--rates", "geom:0.001:0.002:18446744073709551615"],
        &["--rates", "auto:1.1:40:4294967296"],
        &["--rates", "geom:0.01:0.010000000000000002:3"],
        // Rates above 1 message/node/cycle used to run as rate 1.
        &over_one,
        // The auto rate axis anchors on the Quarc bound, which used to
        // panic at a size no Quarc has.
        &["--topologies", "spidergon", "--sizes", "6"],
        // A 1-node mesh carries no traffic; its points used to fail by panic.
        &["--topologies", "mesh", "--sizes", "1", "--rates", "list:0.01", "--replications", "1"],
        // An empty measurement window used to run and report NaN throughput.
        &[
            "--topologies",
            "quarc",
            "--sizes",
            "8",
            "--rates",
            "list:0.01",
            "--replications",
            "1",
            "--measure",
            "0",
        ],
    ] {
        let args = [args, &["--quick", "--no-cache"]].concat();
        let out = campaign(&args);
        assert_rejected(&out, 1, &format!("campaign {args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let spec_lines = stderr.lines().filter(|l| l.contains("invalid campaign spec")).count();
        assert_eq!(spec_lines, 1, "campaign {args:?}: {stderr}");
    }
}

#[test]
fn simulate_prints_one_csv_row_on_every_topology() {
    let cases = ["quarc", "spidergon", "mesh", "torus"].map(|topology| (topology, "16", &[][..]));
    // A Spidergon broadcast at n ≡ 2 (mod 4) runs its chains too.
    let odd_quarter = ("spidergon", "18", &["--beta", "0.05", "--rate", "0.01"][..]);
    for (topology, n, extra) in cases.into_iter().chain([odd_quarter]) {
        let mut args = vec!["--topology", topology, "--nodes", n];
        args.extend(extra.iter().copied().chain(["--measure", "2000", "--warmup", "200"]));
        let out = simulate(&args);
        assert!(out.status.success(), "{topology}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 CSV");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{topology}: header + one row\n{stdout}");
        assert!(lines[0].starts_with("topology,n,rate,"), "{topology}: {}", lines[0]);
        assert!(lines[1].starts_with(&format!("{topology},{n},")), "{topology}: {}", lines[1]);
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count(), "{topology}");
    }
}

#[test]
fn simulate_pattern_reaches_the_run() {
    let row = |pattern: &str| {
        let args = ["--nodes", "16", "--rate", "0.02", "--pattern", pattern];
        let out = simulate(&args);
        assert!(out.status.success(), "{pattern}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 CSV");
        stdout.lines().nth(1).expect("a CSV row").to_string()
    };
    let uniform = row("uniform");
    for pattern in ["complement", "neighbour"] {
        assert_ne!(row(pattern), uniform, "--pattern {pattern} ran as uniform");
    }
}

/// `simulate … | head -0`: the reader is gone before the first line. The
/// binary must end quietly with exit 0 — `println!` would panic on the
/// broken pipe.
#[test]
fn closed_stdout_ends_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--measure", "3000", "--warmup", "300"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("simulate starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("simulate exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn trace_writes_what_its_validator_accepts() {
    let path = std::env::temp_dir().join(format!("quarc-cli-trace-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = trace(&["--cycles", "300", "--out", path_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = trace(&["--validate", path_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // A mesh trace shows the campaign's mesh, on its single VC, and names it.
    let out = trace(&["--topology", "mesh", "--cycles", "300", "--out", path_str]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("trace file");
    assert!(text.contains("mesh n=16 vcs=1 "), "{}", &text[..text.len().min(300)]);

    // The validator rejects a truncated artifact.
    std::fs::write(&path, &text[..text.len() / 2]).expect("rewrite trace file");
    assert_rejected(&trace(&["--validate", path_str]), 1, "trace --validate on a truncated file");
    std::fs::remove_file(&path).ok();
}

/// The paper's figures run as presets: each writes `<out>/<preset>.csv`.
#[test]
fn presets_write_one_csv_each() {
    let dir = std::env::temp_dir().join(format!("quarc-cli-presets-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let out = campaign(&[
        "--preset",
        "ablation-link",
        "--preset",
        "ablation-arb",
        "--quick",
        "--no-cache",
        "--quiet",
        "--out",
        dir_str,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for (preset, rows) in [("ablation-link", 3), ("ablation-arb", 4)] {
        let csv = std::fs::read_to_string(dir.join(format!("{preset}.csv"))).expect("preset CSV");
        assert!(csv.starts_with("id,topology,"), "{preset}: {csv}");
        assert_eq!(csv.lines().count(), 1 + rows, "{preset}: header + {rows} rows\n{csv}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
