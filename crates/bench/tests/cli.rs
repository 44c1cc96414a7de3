//! End-to-end tests of the `maxlength` binary: every subcommand at tiny
//! scale, the exit codes `analyze` promises, the flag rejections, and
//! `--csv` writing into a directory it creates.

use std::path::PathBuf;
use std::process::{Command, Output};

fn maxlength(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maxlength"))
        .args(args)
        .output()
        .expect("run maxlength")
}

/// Runs a subcommand that must succeed and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = maxlength(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlcli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn gen_then_analyze_round_trip() {
    let dir = tmp("gen");
    let d = dir.to_str().unwrap();
    stdout_of(&["gen_dataset", d, "--scale", "0.004", "--seed", "123"]);
    let listing: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(listing.len(), 8, "one file per week");

    let snapshot = dir.join("week-7-6-1.txt");
    let out = maxlength(&["analyze", snapshot.to_str().unwrap(), "--lint-top", "2"]);
    // The generated world contains vulnerable tuples: exit code 3.
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Today (compressed)"));
    assert!(stdout.contains("ML-FORGED-ORIGIN"));
    assert!(stdout.contains("vulnerable"));
    assert!(stdout.contains(" more"), "--lint-top 2 truncates the list");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_garbage_file() {
    let dir = tmp("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    std::fs::write(&path, "not a dataset\n").unwrap();
    let out = maxlength(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figure2_asserts_and_prints() {
    let stdout = stdout_of(&["figure2"]);
    assert!(stdout.contains("87.254.32.0/19-20 => AS31283"));
    assert!(stdout.contains("authorized route sets identical: true"));
}

#[test]
fn table1_writes_csv_into_a_fresh_directory() {
    let dir = tmp("table1").join("nested");
    let d = dir.to_str().unwrap();
    let stdout = stdout_of(&["table1", "--scale", "0.003", "--csv", d]);
    for label in [
        "Today",
        "Full deployment, lower bound (max permissive ROAs)",
    ] {
        assert!(stdout.contains(label), "missing row {label}");
    }
    let csv = std::fs::read_to_string(dir.join("table1.csv")).unwrap();
    assert!(csv.lines().count() > 7, "{csv}");
    assert!(dir.join("table1.md").exists());
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn figure3_and_section6_run_at_tiny_scale() {
    let dir = tmp("figure3");
    let d = dir.to_str().unwrap();
    let stdout = stdout_of(&["figure3", "--scale", "0.003", "--csv", d]);
    assert!(stdout.contains("Figure 3a") && stdout.contains("Figure 3b"));
    assert!(dir.join("figure3a.csv").exists() && dir.join("figure3b.csv").exists());
    std::fs::remove_dir_all(&dir).ok();

    let stdout = stdout_of(&["section6", "--scale", "0.003"]);
    assert!(stdout.contains("maxLength census"));
    assert!(stdout.contains("gap to bound"));
}

#[test]
fn attack_grids_run_at_tiny_size() {
    let stdout = stdout_of(&["attacks", "--topology", "60", "--trials", "1"]);
    assert!(stdout.contains("mean interception vs ROV adoption"));

    let dir = tmp("matrix");
    let d = dir.to_str().unwrap();
    let stdout = stdout_of(&[
        "matrix",
        "--scale",
        "0.003",
        "--topology",
        "60",
        "--trials",
        "1",
        "--csv",
        d,
    ]);
    assert!(stdout.contains("Reading the grid"));
    for file in ["matrix.csv", "risk.csv"] {
        assert!(dir.join(file).exists(), "{file} not in --csv DIR");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overhead_and_churn_run_at_tiny_scale() {
    let stdout = stdout_of(&["overhead", "--scale", "0.003"]);
    assert!(stdout.contains("frozen snapshot"));

    let stdout = stdout_of(&["churn", "--scale", "0.003", "--epochs", "2", "--churn", "4"]);
    assert!(stdout.contains("churn summary     : 2 epochs"));
    assert!(stdout.contains("differential check"));
}

#[test]
fn help_lists_every_subcommand() {
    let stdout = stdout_of(&["help"]);
    for sub in [
        "analyze <snapshot> [--lint-top 10]",
        "table1 [--scale 1] [--csv DIR]",
        "figure2",
        "figure3",
        "section6",
        "gen_dataset <dir> [--scale 0.05] [--seed N]",
        "attacks [--topology 2000] [--trials 30]",
        "matrix",
        "overhead",
        "churn [--scale 1] [--epochs 24] [--churn 64]",
    ] {
        assert!(stdout.contains(sub), "help lacks {sub}");
    }
}

#[test]
fn bad_flags_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &[],
        &["nonsense"],
        &["table1", "--scale", "nan"],
        &["table1", "--scale", "-1"],
        &["table1", "--scale", "0"],
        &["table1", "--scale", "inf"],
        &["table1", "--scale"],
        &["table1", "--banana", "1"],
        &["table1", "--trials", "3"],
        &["table1", "stray"],
        &["figure2", "--scale", "0.01"],
        &["attacks", "--trials", "0"],
        &["attacks", "--topology", "1.5"],
        &["churn", "--epochs", "-3"],
        &["gen_dataset", "--scale", "0.01"],
        &["gen_dataset", "out", "--seed", "-1"],
        &["analyze", "snapshot.txt", "--lint-top", "x"],
        &["analyze", "snapshot.txt", "--lint-top"],
        &["matrix", "--csv", ""],
    ];
    for args in cases {
        let out = maxlength(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: maxlength"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
