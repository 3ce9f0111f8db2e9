//! Tiny-scale smoke of every workload: each declared metric is printed
//! with its declared unit, the accuracy metrics repeat exactly, and a
//! corrupted reference digest is counted as a failure.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["cold_figs", "whatif_warm", "served_mix"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark lives inside the repository")
        .to_path_buf()
}

/// Runs the benchmark at tiny scale and returns its stdout.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The result line's `(name, value text, unit)` metrics and its
/// `failed` count.
fn result(stdout: &str) -> (Vec<(String, String, String)>, u64) {
    let line = stdout.lines().last().expect("a result line");
    let failed = field(line, "\"failed\": ")
        .parse()
        .expect("failed is a whole number");
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    for entry in body.split("}, ") {
        let name = entry
            .trim_start_matches('"')
            .split('"')
            .next()
            .unwrap_or("");
        if name.is_empty() {
            continue;
        }
        let value = field(entry, "\"value\": ");
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .expect("unit")
            .split('"')
            .next()
            .unwrap();
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    (metrics, failed)
}

/// The text after `key` up to the next `,` or `}`.
fn field(text: &str, key: &str) -> String {
    let rest = &text[text.find(key).unwrap_or_else(|| panic!("{key} in {text}")) + key.len()..];
    rest.split([',', '}']).next().unwrap().trim().to_string()
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|m| {
            let name = m.split('"').next().unwrap().to_string();
            let unit = m
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            (name, unit.to_string())
        })
        .collect()
}

fn assert_prints(stdout: &str, section: &str, workload: &str) {
    let (metrics, failed) = result(stdout);
    assert_eq!(failed, 0, "{workload}: unchanged code must not fail");
    let got: Vec<(String, String)> = metrics.into_iter().map(|(n, _, u)| (n, u)).collect();
    assert_eq!(
        got,
        declared(section),
        "{workload}: {section} metrics and units"
    );
    for (name, _) in declared(section) {
        assert!(
            stdout.lines().any(|l| l.starts_with(&format!("{name} "))),
            "{workload}: table row for {name}"
        );
    }
    assert!(
        stdout.lines().any(|l| l.starts_with("failed_frac ")),
        "{workload}: failed_frac row"
    );
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for w in WORKLOADS {
        assert_prints(&run(w, 1, false, &[]), "end_to_end", w);
        assert_prints(&run(w, 1, true, &[]), "per_layer", w);
    }
}

#[test]
fn accuracy_metrics_repeat_exactly() {
    let accuracy = |stdout: &str| -> Vec<(String, String, String)> {
        result(stdout)
            .0
            .into_iter()
            .filter(|(n, _, _)| n.starts_with("refsim_"))
            .collect()
    };
    let first = accuracy(&run("cold_figs", 5, false, &[]));
    assert_eq!(first.len(), 2);
    assert_eq!(first, accuracy(&run("cold_figs", 6, false, &[])));
}

#[test]
fn a_corrupted_reference_digest_is_a_failure() {
    let text = std::fs::read_to_string(repo_root().join("perfbench/digests.txt")).expect("digests");
    let corrupted: String = text
        .lines()
        .map(|l| match l.strip_prefix("cold_figs tiny fig4_time ") {
            Some(_) => "cold_figs tiny fig4_time 0000000000000000".to_string(),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(
        corrupted.trim(),
        text.trim(),
        "the tiny fig4_time digest is present"
    );
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted-digests.txt");
    std::fs::write(&path, corrupted).expect("write corrupted digests");
    let stdout = run(
        "cold_figs",
        1,
        false,
        &["--digests", path.to_str().expect("utf-8 path")],
    );
    let (_, failed) = result(&stdout);
    assert!(failed > 0, "a digest mismatch must count as a failure");
    let frac = stdout
        .lines()
        .find_map(|l| l.strip_prefix("failed_frac "))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("failed_frac row");
    assert!(frac > 0.0, "failed_frac must be positive, got {frac}");
}
