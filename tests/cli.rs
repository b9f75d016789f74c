//! Black-box tests of the `bcast` CLI binary.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

fn bcast() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bcast"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bcast().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "bcast {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn optimal_demo_two_channels() {
    let out = run_ok(&["optimal", "--demo", "--channels", "2"]);
    assert!(out.contains("3.7714"), "expected the paper optimum: {out}");
    assert!(out.contains("C1 |"));
}

#[test]
fn render_demo() {
    let out = run_ok(&["render", "--demo"]);
    assert!(out.contains("A (w=20)"));
    assert!(out.contains("9 nodes"));
}

#[test]
fn simulate_demo_traces_an_access() {
    let out = run_ok(&[
        "simulate",
        "--demo",
        "--channels",
        "2",
        "--item",
        "C",
        "--tune-in",
        "3",
    ]);
    assert!(out.contains("fetch 'C'"));
    assert!(out.contains("fleet expectation"));
}

#[test]
fn heuristic_with_replication_advice() {
    let out = run_ok(&[
        "heuristic",
        "--demo",
        "--channels",
        "1",
        "--method",
        "sorting",
        "--replicas",
        "8",
    ]);
    assert!(out.contains("heuristic: sorting"));
    assert!(out.contains("best root replication"));
}

#[test]
fn gen_pipes_into_optimal() {
    let tree_text = run_ok(&["gen", "--items", "6", "--dist", "uniform", "--seed", "9"]);
    assert!(tree_text.starts_with("index"));
    let mut child = bcast()
        .args(["optimal", "--channels", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(tree_text.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("average data wait"));
}

#[test]
fn a_reader_that_closes_the_pipe_ends_the_command_quietly() {
    // `bcast gen … | head -1`: the tree text outgrows the pipe buffer,
    // so the writer is still writing when the reader goes away.
    let mut child = bcast()
        .args(["gen", "--items", "20000", "--dist", "zipf"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 16];
    stdout.read_exact(&mut head).expect("read the first bytes");
    assert!(head.starts_with(b"index"));
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn helpful_errors() {
    let out = bcast()
        .args(["optimal", "--demo"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--channels"));

    let out = bcast().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bcast()
        .args(["simulate", "--demo", "--channels", "2", "--item", "ZZZ"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no node labeled"));
}

/// `--replicas` sizes the root-copy grid, so each command refuses one
/// more replica than the slots they spread over — the schedule length of
/// the demo tree on one channel (9), and the cycle length of its lossy
/// simulation on two (5) — and accepts the bound itself.
#[test]
fn replicas_past_the_cycle_are_refused() {
    let heuristic = ["heuristic", "--demo", "--channels", "1", "--replicas"];
    let simulate = [
        "simulate",
        "--demo",
        "--channels",
        "2",
        "--item",
        "C",
        "--loss",
        "0.1",
        "--replicas",
    ];
    for (args, bound, what) in [
        (&heuristic[..], 9, "schedule length 9"),
        (&simulate[..], 5, "cycle length 5"),
    ] {
        let at = bound.to_string();
        run_ok(&[args, &[at.as_str()]].concat());
        let over = (bound + 1).to_string();
        let out = bcast().args(args).arg(&over).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?} {over}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("--replicas {over} exceeds the {what}")),
            "{err}"
        );
    }
}

/// `--retries` bounds how long a delivered access can take, and the
/// serving kernel records each access time as a `u32`: on the demo's
/// 5-slot cycle (default backoff cap 4, one root) 53,687,094 retries
/// reach at most 9 + 5 × (31 + 16 × 53,687,089) = 4,294,967,284 slots,
/// and one more retry could pass `u32::MAX`, so it is refused by name.
#[test]
fn retries_past_the_access_time_bound_are_refused() {
    let simulate = [
        "simulate",
        "--demo",
        "--channels",
        "2",
        "--item",
        "C",
        "--loss",
        "0.1",
        "--requests",
        "100",
        "--retries",
    ];
    run_ok(&[&simulate[..], &["53687094"]].concat());
    let out = bcast()
        .args(simulate)
        .arg("53687095")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--retries 53687095"), "{err}");
    assert!(!err.contains("--replicas"), "{err}");
}

/// Loss probabilities past 1 are refused before any lossy work, through
/// the fault plan's own constructors; 1 itself is a channel that loses
/// everything.
#[test]
fn loss_probabilities_past_one_are_refused() {
    let simulate = ["simulate", "--demo", "--channels", "2", "--item", "C"];
    run_ok(&[&simulate[..], &["--loss", "1"]].concat());
    for (flag, value, name) in [
        ("--loss", "1.5", "erasure_p = 1.5"),
        ("--burst", "0.1,0.2,0,2", "loss_bad = 2"),
    ] {
        let out = bcast()
            .args(simulate)
            .args([flag, value])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{name} outside [0, 1]")), "{err}");
    }
}

#[test]
fn zero_channels_is_a_clean_error() {
    let out = bcast()
        .args(["optimal", "--demo", "--channels", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("at least 1"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = bcast()
        .args(["optimal", "--demo", "--channels", "2", "--chanels", "3"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --chanels"));
}

#[test]
fn search_commands_take_no_threads_flag() {
    // The exact search is sequential; `--threads` belongs to `serve` only.
    for cmd in ["optimal", "compare"] {
        let out = bcast()
            .args([cmd, "--demo", "--channels", "2", "--threads", "2"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "bcast {cmd} --threads");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag --threads for this command"),
            "bcast {cmd}: {err}"
        );
    }
}

#[test]
fn tune_in_past_cycle_wraps_cyclically() {
    let a = run_ok(&[
        "simulate",
        "--demo",
        "--channels",
        "2",
        "--item",
        "C",
        "--tune-in",
        "99",
    ]);
    assert!(!a.contains("4294"), "no u32 underflow in probe wait: {a}");
}

#[test]
fn compare_lists_every_method() {
    let out = run_ok(&["compare", "--demo", "--channels", "2"]);
    for m in ["optimal", "sorting", "frontier greedy", "random"] {
        assert!(out.contains(m), "missing {m}: {out}");
    }
    assert!(out.contains("3.7714"), "paper optimum shown: {out}");
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["help"]);
    assert!(out.contains("optimal"));
    assert!(out.contains("heuristic"));
    assert!(out.contains("serve"));
}

#[test]
fn serve_runs_a_scenario_and_reports_phases() {
    let small = &[
        "--tenants",
        "3",
        "--items",
        "32",
        "--rate",
        "150",
        "--slices",
        "6",
    ];
    let out = run_ok(&[&["serve", "--scenario", "flash-crowd"], &small[..]].concat());
    assert!(out.contains("scenario flash-crowd"), "{out}");
    for phase in ["calm", "spike", "decay"] {
        assert!(out.contains(phase), "missing phase {phase}: {out}");
    }
    assert!(out.contains("ok"), "phases should pass their SLOs: {out}");

    // Determinism surfaces in the output: same seed + scenario => same
    // fingerprint at a different thread count.
    let a = run_ok(
        &[
            &["serve", "--scenario", "flash-crowd", "--threads", "1"],
            &small[..],
        ]
        .concat(),
    );
    let b = run_ok(
        &[
            &["serve", "--scenario", "flash-crowd", "--threads", "4"],
            &small[..],
        ]
        .concat(),
    );
    // The rebuild_ms column is wall time — machine-dependent,
    // deliberately excluded from the fingerprint — and the pool footer
    // reports worker count and per-lane busy wall time, both of which
    // legitimately vary with --threads. Mask both before demanding
    // textual equality; everything else (including the alias column)
    // must match exactly.
    let mask_wall = |out: &str| -> String {
        out.lines()
            .map(|line| {
                if line.trim_start().starts_with("pool:") {
                    return "  pool: -".to_string();
                }
                let cols: Vec<&str> = line.split_whitespace().collect();
                match cols.as_slice() {
                    // phase rows: ... touch_ppm rebuild_ms downtime alias slo
                    [.., _ppm, _wall, _downtime, _alias, _slo] if cols.len() == 13 => {
                        let mut cols = cols;
                        cols[9] = "-";
                        cols.join(" ")
                    }
                    _ => line.to_string(),
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        mask_wall(&a),
        mask_wall(&b),
        "serve output must be thread-count invariant outside rebuild_ms"
    );

    // Unknown scenarios are a clean error.
    let out = bcast()
        .args(["serve", "--scenario", "earthquake"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

/// `serve` is scriptable: a violated phase SLO is a non-zero exit, not
/// just a table row. A starvation budget under a lossless SLO guarantees
/// shedding, and shedding under lossless is a delivery-rate violation.
#[test]
fn serve_exits_non_zero_when_slos_are_violated() {
    let out = bcast()
        .args([
            "serve",
            "--scenario",
            "flash-crowd",
            "--tenants",
            "3",
            "--items",
            "32",
            "--rate",
            "150",
            "--slices",
            "6",
            "--budget",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "a starved budget must violate the lossless SLO"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("VIOLATED"),
        "table marks the phase: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("one or more phase SLOs were violated"),
        "exit reason names the SLO failure: {stderr}"
    );

    // The same scenario under the same load passes without the budget —
    // the violation above is the shed, not the workload.
    run_ok(&[
        "serve",
        "--scenario",
        "flash-crowd",
        "--tenants",
        "3",
        "--items",
        "32",
        "--rate",
        "150",
        "--slices",
        "6",
    ]);
}

/// The robustness scenario scripts are reachable from the CLI: the
/// overload storm sheds within its degraded SLO and the poison pill's
/// quarantine keeps every phase green — both exit zero.
#[test]
fn serve_runs_the_robustness_scenarios() {
    let small = &[
        "--tenants",
        "3",
        "--items",
        "32",
        "--rate",
        "120",
        "--slices",
        "6",
    ];
    let out = run_ok(&[&["serve", "--scenario", "overload-storm"], &small[..]].concat());
    assert!(out.contains("scenario overload-storm"), "{out}");
    assert!(out.contains("storm"), "{out}");
    let out = run_ok(&[&["serve", "--scenario", "poison-pill"], &small[..]].concat());
    assert!(out.contains("scenario poison-pill"), "{out}");
    assert!(
        !out.contains("VIOLATED"),
        "quarantine keeps SLOs green: {out}"
    );
}

/// Checkpoint/restore round-trips through the CLI: a checkpointed run
/// leaves manifests behind, and `--restore` resumes from them and
/// reports the same fingerprint as the original run. An empty directory
/// fails closed with a non-zero exit.
#[test]
fn serve_checkpoints_and_restores_from_manifests() {
    let dir = std::env::temp_dir().join(format!("bcast-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf8 temp path");

    // Restoring before any checkpoint exists is a clean error.
    let out = bcast()
        .args([
            "serve",
            "--scenario",
            "flash-crowd",
            "--checkpoint-dir",
            dir_arg,
            "--restore",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot restore"));

    let small = &[
        "--tenants",
        "3",
        "--items",
        "32",
        "--rate",
        "150",
        "--slices",
        "6",
        "--seed",
        "77",
    ];
    let fresh = run_ok(
        &[
            &[
                "serve",
                "--scenario",
                "flash-crowd",
                "--checkpoint-dir",
                dir_arg,
                "--checkpoint-every",
                "2",
            ],
            &small[..],
        ]
        .concat(),
    );
    assert!(fresh.contains("checkpoint: manifests in"), "{fresh}");
    assert!(
        std::fs::read_dir(&dir)
            .expect("checkpoint dir exists")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".bcp")),
        "run leaves manifests behind"
    );

    // Resume from the final manifest: the driver restores the completed
    // run (including every phase report) and prints the same scenario
    // line — fingerprint equality proves the manifest carried the run.
    let restored = run_ok(
        &[
            &[
                "serve",
                "--scenario",
                "flash-crowd",
                "--checkpoint-dir",
                dir_arg,
                "--restore",
            ],
            &small[..],
        ]
        .concat(),
    );
    let fingerprint_line = |out: &str| {
        out.lines()
            .find(|l| l.contains("fingerprint"))
            .expect("scenario header line")
            .to_string()
    };
    assert_eq!(fingerprint_line(&fresh), fingerprint_line(&restored));

    // Restoring under a different spec is refused, never silently run.
    let out = bcast()
        .args(
            [
                &[
                    "serve",
                    "--scenario",
                    "tenant-churn",
                    "--checkpoint-dir",
                    dir_arg,
                    "--restore",
                ],
                &small[..],
            ]
            .concat(),
        )
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("spec"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tree deeper than a route record can count — a 65,535-item chain is
/// 65,536 levels deep — is refused by `snapshot save` with the typed
/// publish error and exit 1: no panic, and no snapshot file written.
#[test]
fn snapshot_save_refuses_a_too_deep_tree() {
    let items = 65_535;
    let mut text = String::from("index I1 -\n");
    for i in 1..=items {
        text.push_str(&format!("data D{i} I{i} 1\n"));
        if i < items {
            text.push_str(&format!("index I{} I{i}\n", i + 1));
        }
    }
    let dir = std::env::temp_dir();
    let input = dir.join(format!("bcast-cli-chain-{}.tree", std::process::id()));
    let output = dir.join(format!("bcast-cli-chain-{}.snap", std::process::id()));
    std::fs::write(&input, text).expect("write tree");
    let out = bcast()
        .args(["snapshot", "save", "--channels", "2", "--input"])
        .arg(&input)
        .arg("--output")
        .arg(&output)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&input).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains("tree depth 65536 exceeds the route record limit of 65535"),
        "got: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
    assert!(!output.exists(), "a refused publish writes no snapshot");
}
