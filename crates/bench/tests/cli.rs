//! Command-line rejection of `exea-bench`: every malformed invocation exits
//! with status 2 and a one-line message before any dataset is loaded.
//! Case-insensitive selection of the accepted names is a unit test in
//! `src/main.rs`.

use std::process::Command;

fn reject(args: &[&str], expect: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_exea-bench"))
        .args(args)
        .env_remove("EXEA_CANDIDATE_SEARCH")
        .output()
        .expect("run exea-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(
        stderr.starts_with("exea-bench: ") && stderr.contains(expect),
        "{args:?}: stderr {stderr:?}"
    );
}

#[test]
fn misspelled_scale_is_rejected() {
    reject(&["fig4", "--scale", "benhc"], "unknown scale \"benhc\"");
}

#[test]
fn non_positive_or_non_numeric_samples_are_rejected() {
    for bad in ["x", "0", "-3", "2.5", ""] {
        reject(
            &["fig4", "--samples", bad],
            "--samples needs a positive integer",
        );
    }
}

#[test]
fn flags_without_values_are_rejected() {
    reject(&["fig4", "--scale"], "--scale needs a value");
    reject(&["fig4", "--samples"], "--samples needs a value");
}

#[test]
fn unknown_flags_are_rejected() {
    reject(&["fig4", "--bogus"], "unknown flag \"--bogus\"");
    reject(
        &["fig4", "--scale", "small", "extra"],
        "unknown flag \"extra\"",
    );
}

#[test]
fn unknown_experiments_are_rejected() {
    let names = "table1|table2|fig4|fig5|table3|table4|fig6|table5|table6|table7|table8|all";
    reject(
        &["topk"],
        &format!("unknown experiment \"topk\" (expected {names})"),
    );
    reject(
        &["nonsense"],
        &format!("unknown experiment \"nonsense\" (expected {names})"),
    );
}

#[test]
fn retired_candidate_search_values_are_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_exea-bench"))
        .arg("table1")
        .env("EXEA_CANDIDATE_SEARCH", "sharded-ivf-sq8")
        .output()
        .expect("run exea-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(
        stderr.starts_with("exea-bench: ")
            && stderr.contains("\"sharded-ivf-sq8\"")
            && stderr.contains("exact, sq8, ivf or ivf-sq8"),
        "stderr {stderr:?}"
    );
}
