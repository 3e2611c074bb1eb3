//! Byte-level goldens for the per-drive trace analyses and every surface
//! that prints them: the test-scale `repro` JSON of the trace-only
//! experiments, the `ssdstat` report (with and without `--audit`, uniform
//! and importance-sampled archives), and the fleet service's summary and
//! survival answers.
//!
//! Each test renders its outputs into `target/tmp/golden/` and compares
//! them byte for byte with the committed copies in `tests/golden/`, so a
//! change to any pinned number is a failing diff that has to be reviewed
//! and committed on purpose. After an intended change, regenerate with:
//!
//! ```text
//! cargo test --test golden; cp -r target/tmp/golden/. tests/golden/
//! ```
//!
//! and explain the diff of `tests/golden/` in the change description.

use ssd_field_study_core::serve::{FleetService, ScorerSpec, ServeConfig};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::source::TraceSource;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The experiments `repro` computes from the trace alone (no model
/// training), in DESIGN.md order.
const TRACE_IDS: [&str; 15] = [
    "fig1", "tab1", "tab2", "tab3", "tab4", "fig3", "fig4", "fig5", "tab5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11",
];

/// Where this run's outputs are rendered; mirrors `tests/golden/`.
fn actual_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A fresh per-test working directory for generated archives.
fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden-work")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear work dir");
    }
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compares each rendered file with its golden and reports every mismatch
/// at once.
fn assert_goldens(names: &[String]) {
    let mismatched: Vec<&String> = names
        .iter()
        .filter(|name| {
            let actual = std::fs::read(actual_dir().join(name))
                .unwrap_or_else(|e| panic!("read rendered {name}: {e}"));
            std::fs::read(golden_dir().join(name)).ok() != Some(actual)
        })
        .collect();
    assert!(
        mismatched.is_empty(),
        "outputs differ from tests/golden/ (rendered copies in {}): {mismatched:?}",
        actual_dir().display()
    );
}

fn write_actual(name: &str, bytes: &[u8]) {
    let path = actual_dir().join(name);
    std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
        .expect("create golden output dir");
    std::fs::write(path, bytes).expect("write rendered output");
}

#[test]
fn repro_trace_experiments_match_goldens() {
    let out = actual_dir().join("repro");
    std::fs::create_dir_all(&out).expect("create repro output dir");
    let mut args = vec!["--scale", "test", "--seed", "7", "--json", out.to_str().unwrap()];
    args.extend(TRACE_IDS);
    run(env!("CARGO_BIN_EXE_repro"), &args);
    let names: Vec<String> = TRACE_IDS.iter().map(|id| format!("repro/{id}.json")).collect();
    assert_goldens(&names);
}

/// Generates the 120-drive, 800-day verify smoke fleet and returns the
/// `ssdstat` stdout over it.
fn ssdstat_on_smoke_fleet(name: &str, gen_extra: &[&str], stat_extra: &[&str]) -> Vec<u8> {
    let dir = work_dir(name);
    let mut gen_args = vec![
        "--out",
        dir.to_str().unwrap(),
        "--drives",
        "40",
        "--days",
        "800",
        "--seed",
        "11",
        "--format",
        "bin",
    ];
    gen_args.extend(gen_extra);
    run(env!("CARGO_BIN_EXE_ssdgen"), &gen_args);
    let archive = dir.join("trace.ssdfs");
    let mut stat_args = vec!["--trace", archive.to_str().unwrap()];
    stat_args.extend(stat_extra);
    run(env!("CARGO_BIN_EXE_ssdstat"), &stat_args)
}

#[test]
fn ssdstat_audit_report_matches_golden() {
    let stdout = ssdstat_on_smoke_fleet("audit", &[], &["--audit"]);
    write_actual("ssdstat_audit.txt", &stdout);
    assert_goldens(&["ssdstat_audit.txt".into()]);
}

#[test]
fn ssdstat_importance_weighted_report_matches_golden() {
    let stdout = ssdstat_on_smoke_fleet("importance", &["--fast-forward", "--importance", "4"], &[]);
    write_actual("ssdstat_importance.txt", &stdout);
    assert_goldens(&["ssdstat_importance.txt".into()]);
}

#[test]
fn serve_summary_and_survival_match_goldens() {
    // The fleet and configuration of `tests/serve.rs`.
    let fleet = FleetGen::new(&SimConfig {
        drives_per_model: 50,
        horizon_days: 1200,
        seed: 11,
        ..SimConfig::default()
    })
    .trace();
    let config = ServeConfig {
        shards: 2,
        queue_cap: 4,
        scorer: ScorerSpec::Forest { trees: 8 },
        lookahead_days: 14,
        sample_rate: 0.5,
        seed: 7,
    };
    let svc = FleetService::load(&TraceSource::InMemory(fleet), &config).expect("service loads");
    let mut names = Vec::new();
    for (name, frame) in [
        ("serve_summary.json", r#"{"q":"summary"}"#),
        ("serve_survival.json", r#"{"q":"survival"}"#),
    ] {
        write_actual(name, &svc.respond(frame.as_bytes()).expect("well-formed frame"));
        names.push(name.to_string());
    }
    assert_goldens(&names);
}
