//! Smoke test of the benchmark: every workload at `--size tiny`, untraced
//! and traced. Every metric `BENCHMARK.json` names must print with its unit,
//! and every operation must pass its oracle. A run with one expected answer
//! spoiled must report the failure.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["batch-closure", "serve-mixed", "genome-reads"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('"').collect();
            let at = |key: &str| {
                let i = fields.iter().position(|f| *f == key)?;
                fields.get(i + 2).map(|v| (*v).to_string())
            };
            Some((at("name")?, at("unit")?))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout)
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (bool, String) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn assert_prints(stdout: &str, metrics: &[(String, String)]) {
    let json = stdout.lines().last().expect("output ends with a JSON line");
    assert!(json.starts_with("{\"correct\": true, "), "{stdout}");
    assert!(json.contains("\"failed\": 0, "), "{stdout}");
    assert!(stdout.contains("\nerror_rate = 0 ratio ("), "{stdout}");
    assert_eq!(json.matches("\"value\": ").count(), metrics.len(), "{json}");
    for (name, unit) in metrics {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{name} = ")))
            .unwrap_or_else(|| panic!("{name} not printed:\n{stdout}"));
        assert!(
            line.contains(&format!(" {unit}")),
            "{name} without {unit}: {line}"
        );
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = json
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} not in {json}"));
        let rest = &json[at + entry.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("value is a number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: {rest}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = catalogue("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let (ok, stdout) = tiny(w, "0", &[]);
        assert!(ok, "{w} failed:\n{stdout}");
        assert_prints(&stdout, &metrics);
    }
}

#[test]
fn every_workload_traces_every_layer_metric() {
    let metrics = catalogue("per_layer");
    assert!(metrics.len() > 20);
    for w in WORKLOADS {
        let (ok, stdout) = tiny(w, "1", &[]);
        assert!(ok, "{w} failed:\n{stdout}");
        assert_prints(&stdout, &metrics);
    }
}

#[test]
fn a_corrupted_expected_answer_raises_the_error_rate() {
    for w in WORKLOADS {
        let (ok, stdout) = tiny(w, "0", &["--corrupt-oracle"]);
        assert!(ok, "{w} failed:\n{stdout}");
        let json = stdout.lines().last().expect("JSON line");
        assert!(json.starts_with("{\"correct\": false, "), "{json}");
        assert!(!json.contains("\"failed\": 0, "), "{json}");
        assert!(!stdout.contains("\nerror_rate = 0 ratio"), "{stdout}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for line in [
        "--workload serve-mixed --seconds 1 --trace 0",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve-mixed --seed 1 --seconds 1 --trace 2",
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let (ok, stdout) = run(&args);
        assert!(!ok, "{line} succeeded");
        assert!(!stdout.contains("\"correct\""), "{stdout}");
    }
}
