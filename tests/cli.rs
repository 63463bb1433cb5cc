//! Black-box tests of the `spca` binary's argument handling: unknown
//! flags must be rejected with a nonzero exit naming the flag, never
//! silently ignored.

use std::process::Command;

fn spca(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spca"))
        .args(args)
        .output()
        .expect("spawn spca")
}

#[test]
fn unknown_flag_is_rejected_and_named() {
    for (cmd, bogus) in [
        ("generate", "--outt"),
        ("run", "--engnes"),
        ("inspect", "--snapshots"),
        ("simulate", "--placment"),
    ] {
        let out = spca(&[cmd, bogus, "x"]);
        assert!(
            !out.status.success(),
            "{cmd} {bogus}: expected nonzero exit"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(bogus),
            "{cmd}: stderr must name the offending flag, got: {stderr}"
        );
        assert!(
            stderr.contains(cmd),
            "{cmd}: stderr must name the subcommand, got: {stderr}"
        );
    }
}

#[test]
fn flag_valid_for_one_subcommand_rejected_on_another() {
    // --seed belongs to `generate`, not `simulate`.
    let out = spca(&["simulate", "--seed", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}

#[test]
fn repeated_flag_is_rejected() {
    let out = spca(&["generate", "--out", "a.csv", "--out", "b.csv"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn missing_value_is_rejected() {
    let out = spca(&["generate", "--out"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn zero_batch_is_rejected() {
    let out = spca(&["run", "--input", "nonexistent.csv", "--batch", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch"));
}

#[test]
fn help_exits_zero() {
    let out = spca(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown flags are rejected"));
    assert!(stdout.contains("--batch"));
}

#[test]
fn bad_fault_spec_is_rejected_and_named() {
    // Spec validation happens before any input I/O, so no file is needed.
    for bad in ["panic@engine1", "jitter@engine0:5", "drop@split:3"] {
        let out = spca(&["run", "--input", "nonexistent.csv", "--faults", bad]);
        assert!(!out.status.success(), "'{bad}': expected nonzero exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--faults"),
            "'{bad}': stderr must name the flag, got: {stderr}"
        );
        assert!(
            stderr.contains(bad),
            "'{bad}': stderr must echo the offending entry, got: {stderr}"
        );
    }
}

#[test]
fn fault_flags_pass_the_allow_list() {
    // A valid spec with a missing input must fail on the *input*, proving
    // --faults and --snapshot-dir themselves were accepted.
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--faults",
        "panic@engine1:5000",
        "--snapshot-dir",
        "/tmp/does-not-matter",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "expected the input-file error, got: {stderr}"
    );
    assert!(
        !stderr.contains("unknown flag"),
        "fault flags must be allow-listed, got: {stderr}"
    );
}

#[test]
fn repeated_fault_flag_is_rejected() {
    let out = spca(&[
        "run",
        "--faults",
        "panic@engine0:1",
        "--faults",
        "panic@engine1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn backfill_unknown_and_duplicate_flags_rejected() {
    let out = spca(&["backfill", "--partitons", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--partitons"), "got: {stderr}");
    assert!(stderr.contains("backfill"), "got: {stderr}");

    let out = spca(&["backfill", "--workers", "2", "--workers", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");

    // `run`-only flags do not leak into backfill's allow list.
    let out = spca(&["backfill", "--sync", "ring"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sync"));
}

#[test]
fn backfill_flags_parse_and_missing_input_is_the_only_error() {
    // All backfill flags accepted: the failure must be the missing input
    // file, not flag parsing.
    let out = spca(&[
        "backfill",
        "--input",
        "nonexistent.csv",
        "--partitions",
        "4",
        "--state-dir",
        "/tmp/does-not-matter",
        "--workers",
        "2",
        "--components",
        "3",
        "--memory",
        "1000",
        "--out",
        "merged.snapshot",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "expected the input error, got: {stderr}"
    );
    assert!(!stderr.contains("unknown flag"), "got: {stderr}");
}

#[test]
fn backfill_rejects_bad_flag_values() {
    let out = spca(&["backfill", "--input", "x.csv", "--partitions", "abc"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--partitions"), "got: {stderr}");

    let out = spca(&["backfill", "--input", "x.csv", "--partitions", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--partitions"));

    let out = spca(&["backfill", "--workers"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn backfill_requires_input() {
    let out = spca(&["backfill", "--partitions", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn serve_unknown_and_duplicate_flags_rejected() {
    let out = spca(&["serve", "--adddr", "127.0.0.1:8080"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--adddr"), "got: {stderr}");
    assert!(stderr.contains("serve"), "got: {stderr}");

    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:8080",
        "--addr",
        "127.0.0.1:8081",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");
}

#[test]
fn serve_requires_addr() {
    let out = spca(&["serve", "--input", "nonexistent.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn serve_rejects_bad_bind_address() {
    // Address validation happens before any ingest I/O, so a bad port is
    // reported even though the input does not exist either.
    for bad in ["127.0.0.1:notaport", "127.0.0.1", "localhost:8080"] {
        let out = spca(&["serve", "--addr", bad, "--input", "nonexistent.csv"]);
        assert!(!out.status.success(), "addr '{bad}' must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--addr"), "got: {stderr}");
        assert!(stderr.contains("IP:PORT"), "got: {stderr}");
    }
}

#[test]
fn serve_rejects_bad_flag_values() {
    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "0",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));

    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--rate-limit",
        "-5",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rate-limit"));
}

#[test]
fn serve_thread_pools_beyond_reader_slots_rejected() {
    // Each server worker claims one epoch-store reader slot (64 total);
    // an oversized pool must be a CLI error, not a panic at server start.
    let out = spca(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "65",
        "--input",
        "nonexistent.csv",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "got: {stderr}");
    assert!(stderr.contains("at most 64"), "got: {stderr}");

    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--serve",
        "127.0.0.1:0",
        "--serve-threads",
        "65",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--serve-threads"), "got: {stderr}");
    assert!(stderr.contains("at most 64"), "got: {stderr}");
}

#[test]
fn run_serve_flag_validates_address_and_dependents() {
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--serve",
        "1.2.3.4:bad",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--serve"), "got: {stderr}");
    assert!(stderr.contains("IP:PORT"), "got: {stderr}");

    // Serving-only flags are rejected when --serve is absent, same policy
    // as every other inapplicable-flag case.
    for flag in ["--serve-threads", "--rate-limit", "--publish-every"] {
        let out = spca(&["run", "--input", "nonexistent.csv", flag, "4"]);
        assert!(!out.status.success(), "{flag} without --serve must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires --serve"), "{flag}: got {stderr}");
    }
}

#[test]
fn run_elastic_flags_validate_before_any_work() {
    // A zero monitoring epoch is meaningless.
    let out = spca(&["run", "--input", "nonexistent.csv", "--elastic", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--elastic"), "got: {stderr}");
    assert!(stderr.contains("at least 1 ms"), "got: {stderr}");

    // --max-engines is an elastic-only knob.
    let out = spca(&["run", "--input", "nonexistent.csv", "--max-engines", "4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires --elastic"), "got: {stderr}");

    // The ceiling must cover the starting fleet.
    let out = spca(&[
        "run",
        "--input",
        "nonexistent.csv",
        "--engines",
        "4",
        "--elastic",
        "200",
        "--max-engines",
        "2",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("below the starting fleet"), "got: {stderr}");
}

#[test]
fn backfill_cold_then_warm_round_trip() {
    let dir = std::env::temp_dir().join(format!("spca-cli-backfill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("corpus.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "400",
        "--pixels",
        "24",
        "--seed",
        "9",
    ]);
    assert!(gen.status.success());

    let store = dir.join("store");
    let run = |out_name: &str| {
        spca(&[
            "backfill",
            "--input",
            csv.to_str().unwrap(),
            "--partitions",
            "4",
            "--state-dir",
            store.to_str().unwrap(),
            "--workers",
            "2",
            "--components",
            "3",
            "--out",
            dir.join(out_name).to_str().unwrap(),
        ])
    };
    let cold = run("cold.snapshot");
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_out = String::from_utf8_lossy(&cold.stdout);
    assert!(
        cold_out.contains("0 cache hits, 4 computed, 0 quarantined"),
        "{cold_out}"
    );

    let warm = run("warm.snapshot");
    assert!(warm.status.success());
    let warm_out = String::from_utf8_lossy(&warm.stdout);
    assert!(
        warm_out.contains("4 cache hits, 0 computed, 0 quarantined"),
        "{warm_out}"
    );

    let a = std::fs::read(dir.join("cold.snapshot")).unwrap();
    let b = std::fs::read(dir.join("warm.snapshot")).unwrap();
    assert_eq!(a, b, "cold and warm merged snapshots must be bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dimension_probe_skips_leading_comments_and_blank_lines() {
    let dir = std::env::temp_dir().join(format!("spca-cli-probe-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let generated = dir.join("generated.csv");
    let gen = spca(&[
        "generate",
        "--out",
        generated.to_str().unwrap(),
        "--n",
        "300",
        "--pixels",
        "16",
        "--seed",
        "5",
    ]);
    assert!(gen.status.success());
    let csv = dir.join("commented.csv");
    let body = std::fs::read_to_string(&generated).unwrap();
    std::fs::write(
        &csv,
        format!("# survey extract\n\n   \n# 16 pixels\n{body}"),
    )
    .unwrap();
    let input = csv.to_str().unwrap();

    let run = spca(&[
        "run",
        "--input",
        input,
        "--engines",
        "1",
        "--components",
        "3",
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("(d = 16,"), "{stdout}");

    let snaps = dir.join("snaps");
    let coord = spca(&[
        "coordinator",
        "--input",
        input,
        "--workers",
        "0",
        "--engines",
        "1",
        "--components",
        "3",
        "--snapshots",
        snaps.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&coord.stdout);
    assert!(
        coord.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&coord.stderr)
    );
    assert!(stdout.contains("300 observations"), "{stdout}");

    let empty = dir.join("comments-only.csv");
    std::fs::write(&empty, "# nothing yet\n\n").unwrap();
    let out = spca(&["run", "--input", empty.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no data rows"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_generate_round_trips() {
    let dir = std::env::temp_dir().join(format!("spca-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_csv = dir.join("tiny.csv");
    let out = spca(&[
        "generate",
        "--out",
        out_csv.to_str().unwrap(),
        "--n",
        "5",
        "--pixels",
        "16",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out_csv.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_subcommands_reject_unknown_and_duplicate_flags() {
    for (cmd, bogus) in [("worker", "--cordinator"), ("coordinator", "--workerz")] {
        let out = spca(&[cmd, bogus, "x"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bogus), "{cmd}: got: {stderr}");
        assert!(stderr.contains(cmd), "{cmd}: got: {stderr}");
    }
    let out = spca(&[
        "worker",
        "--index",
        "0",
        "--index",
        "1",
        "--coordinator",
        "127.0.0.1:1",
        "--data",
        "127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "got: {stderr}");

    let out = spca(&["coordinator", "--workers"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing a value"));
}

#[test]
fn worker_rejects_malformed_addresses() {
    for bad in ["localhost:99", "10.0.0.1", "1.2.3.4:notaport", "[::1]"] {
        let out = spca(&[
            "worker",
            "--coordinator",
            bad,
            "--index",
            "0",
            "--data",
            "127.0.0.1:1",
        ]);
        assert!(!out.status.success(), "addr '{bad}' must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("as IP:PORT") && stderr.contains(bad),
            "addr '{bad}': got: {stderr}"
        );
    }
}

#[test]
fn worker_accepts_bracketed_ipv6_addresses() {
    // A well-formed [addr]:port must get past address validation; the
    // invocation then dies on the unparsable --index, proving the
    // address itself was accepted without dialing anything.
    let out = spca(&[
        "worker",
        "--coordinator",
        "[::1]:7400",
        "--index",
        "x",
        "--data",
        "[::1]:7401",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--index") && !stderr.contains("as IP:PORT"),
        "got: {stderr}"
    );
}

#[test]
fn worker_requires_its_mandatory_flags() {
    for (args, missing) in [
        (
            vec!["worker", "--index", "0", "--data", "127.0.0.1:1"],
            "--coordinator",
        ),
        (
            vec![
                "worker",
                "--coordinator",
                "127.0.0.1:1",
                "--data",
                "127.0.0.1:1",
            ],
            "--index",
        ),
        (
            vec!["worker", "--coordinator", "127.0.0.1:1", "--index", "0"],
            "--data",
        ),
    ] {
        let out = spca(&args);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(missing),
            "expected '{missing}' in: {stderr}"
        );
    }
}

#[test]
fn coordinator_validates_listen_address_before_any_networking() {
    let dir = std::env::temp_dir().join(format!("spca-coord-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let gen = spca(&[
        "generate",
        "--out",
        csv.to_str().unwrap(),
        "--n",
        "8",
        "--pixels",
        "16",
    ]);
    assert!(gen.status.success());

    let out = spca(&[
        "coordinator",
        "--input",
        csv.to_str().unwrap(),
        "--snapshots",
        dir.join("snaps").to_str().unwrap(),
        "--workers",
        "2",
        "--listen",
        "not-an-address",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--listen") && stderr.contains("as IP:PORT"),
        "got: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
