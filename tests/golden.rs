//! Byte-level goldens for the per-drive trace analyses, the paper's §5
//! model evaluation, and every surface that prints them: the test-scale
//! `repro` JSON of every experiment, the `ssdstat` report (with and
//! without `--audit`, uniform and importance-sampled archives), the
//! `ssdpredict` ranking (forest and GBDT), and the fleet service's
//! summary, survival and top-K answers.
//!
//! Each test renders its outputs into `target/tmp/golden/` and compares
//! them byte for byte with the committed copies in `tests/golden/`, so a
//! change to any pinned number is a failing diff that has to be reviewed
//! and committed on purpose. The two ROC-point figures (fig13, fig15, a
//! few hundred KB each) are pinned by FNV-1a-64 digest and byte length in
//! `repro_ml_digests.txt` instead of by copy. After an intended change,
//! regenerate with:
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

/// The model-evaluation experiments (§5), in DESIGN.md order.
const ML_IDS: [&str; 8] = ["tab6", "fig12", "fig13", "tab7", "fig14", "fig15", "fig16", "tab8"];

/// The JSON files of [`ML_IDS`] pinned by copy (`fig16` writes two).
const ML_COPIED: [&str; 7] = [
    "tab6", "fig12", "tab7", "fig14", "fig16_young", "fig16_old", "tab8",
];

/// The JSON files of [`ML_IDS`] pinned by digest: too large to commit.
const ML_DIGESTED: [&str; 2] = ["fig13", "fig15"];

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

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn repro_model_experiments_match_goldens() {
    // Rendered outside `actual_dir()` so the regeneration recipe copies
    // only the pinned files, never the large ROC figures.
    let out = work_dir("repro_ml");
    let mut args = vec!["--scale", "test", "--seed", "7", "--json", out.to_str().unwrap()];
    args.extend(ML_IDS);
    run(env!("CARGO_BIN_EXE_repro"), &args);
    let read = |id: &str| {
        std::fs::read(out.join(format!("{id}.json"))).unwrap_or_else(|e| panic!("read {id}: {e}"))
    };
    let mut names = Vec::new();
    for id in ML_COPIED {
        let name = format!("repro/{id}.json");
        write_actual(&name, &read(id));
        names.push(name);
    }
    let digests: String = ML_DIGESTED
        .iter()
        .map(|id| {
            let bytes = read(id);
            format!("repro/{id}.json {} {:016x}\n", bytes.len(), fnv1a64(&bytes))
        })
        .collect();
    write_actual("repro_ml_digests.txt", digests.as_bytes());
    let pinned = std::fs::read_to_string(golden_dir().join("repro_ml_digests.txt"))
        .unwrap_or_default();
    let differing: Vec<&str> = digests
        .lines()
        .filter(|line| !pinned.lines().any(|p| p == *line))
        .filter_map(|line| line.split(' ').next())
        .collect();
    assert!(
        differing.is_empty(),
        "length or FNV-1a-64 digest differs from tests/golden/repro_ml_digests.txt \
         (rendered digests in {}): {differing:?}",
        actual_dir().display()
    );
    assert_goldens(&names);
}

/// Generates the 120-drive, 800-day verify smoke fleet into a fresh work
/// dir and returns the archive path.
fn smoke_fleet(name: &str, gen_extra: &[&str]) -> PathBuf {
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
    dir.join("trace.ssdfs")
}

/// Returns the `ssdstat` stdout over the smoke fleet.
fn ssdstat_on_smoke_fleet(name: &str, gen_extra: &[&str], stat_extra: &[&str]) -> Vec<u8> {
    let archive = smoke_fleet(name, gen_extra);
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
fn ssdpredict_rankings_match_goldens() {
    let archive = smoke_fleet("predict", &[]);
    let trace = archive.to_str().unwrap();
    // The flags of the `ssdpredict` tests in `tests/bin_smoke.rs`.
    let runs: [(&str, &[&str]); 2] = [
        (
            "ssdpredict_forest.txt",
            &["--lookahead", "14", "--sample-rate", "0.5", "--seed", "7", "--trees", "10", "--top", "5"],
        ),
        (
            "ssdpredict_gbdt.txt",
            &["--model", "gbdt", "--lookahead", "14", "--sample-rate", "0.5", "--trees", "10"],
        ),
    ];
    let mut names = Vec::new();
    for (name, flags) in runs {
        let mut args = vec!["--trace", trace];
        args.extend(flags);
        write_actual(name, &run(env!("CARGO_BIN_EXE_ssdpredict"), &args));
        names.push(name.to_string());
    }
    assert_goldens(&names);
}

/// The service over the fleet and configuration of `tests/serve.rs`.
fn golden_service() -> FleetService {
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
    FleetService::load(&TraceSource::InMemory(fleet), &config).expect("service loads")
}

/// Renders each `(golden name, request frame)` answer of the service.
fn assert_service_goldens(frames: &[(&str, &str)]) {
    let svc = golden_service();
    let mut names = Vec::new();
    for (name, frame) in frames {
        write_actual(name, &svc.respond(frame.as_bytes()).expect("well-formed frame"));
        names.push(name.to_string());
    }
    assert_goldens(&names);
}

#[test]
fn serve_summary_and_survival_match_goldens() {
    assert_service_goldens(&[
        ("serve_summary.json", r#"{"q":"summary"}"#),
        ("serve_survival.json", r#"{"q":"survival"}"#),
    ]);
}

#[test]
fn serve_topk_matches_golden() {
    assert_service_goldens(&[("serve_topk.json", r#"{"q":"topk","k":10}"#)]);
}
