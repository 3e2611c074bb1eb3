//! Equivalence battery for the sharded resident fleet service.
//!
//! The service promises that responses are a pure function of
//! (request, fleet) — independent of shard count, client interleaving,
//! and coalescing. Each promise is pinned here:
//!
//! 1. **shard invariance** — every query type answers byte-identically
//!    at 1, 2, and 5 shards (single frames and batch frames alike);
//! 2. **sharded = whole fleet** — summary, survival, hazard, and top-K
//!    responses match one unsharded computation over the whole fleet
//!    (`streaming::summarize`, `lifecycle::time_to_failure_km`, a
//!    hand-built `BinnedRate`, and a whole-fleet `OnlineFleet` ranking)
//!    exactly, via the same shortest-round-trip JSON writer. The shards
//!    run the same fold and the same `failure::period_durations`, so
//!    this pins the merge; `tests/golden.rs` pins the bytes;
//! 3. **batching** — a batch frame of N queries costs one shard pass,
//!    and co-arriving frames from concurrent clients coalesce without
//!    changing any client's bytes;
//! 4. **robustness** — truncated/garbage frames and malformed JSON
//!    never panic and always produce typed error responses.

use ssd_field_study_core::serve::protocol::{
    error_body, read_frame, write_frame, ProtocolError, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME,
};
use ssd_field_study_core::serve::{
    serve_connection, Dispatcher, FleetService, Responder, ScorerSpec, ServeConfig,
};
use ssd_field_study_core::streaming::summarize;
use ssd_field_study_core::{failure_records, lifecycle, OnlineFleet};
use ssd_ml::{FlatForest, ForestConfig, RandomForest};
use ssd_sim::{FleetGen, SimConfig};
use ssd_stats::{BinnedRate, SplitMix64};
use ssd_types::json::{self, Value};
use ssd_types::source::TraceSource;
use ssd_types::FleetTrace;
use std::sync::Arc;

/// Shared fleet: 3 models × 50 drives over 1200 days — enough swaps for
/// a non-degenerate scorer and non-trivial survival/hazard shapes.
fn fleet() -> FleetTrace {
    FleetGen::new(&SimConfig {
        drives_per_model: 50,
        horizon_days: 1200,
        seed: 11,
        ..SimConfig::default()
    })
    .trace()
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_cap: 4,
        scorer: ScorerSpec::Forest { trees: 8 },
        lookahead_days: 14,
        sample_rate: 0.5,
        seed: 7,
    }
}

fn service(shards: usize) -> FleetService {
    FleetService::load(&TraceSource::InMemory(fleet()), &config(shards))
        .expect("service loads")
}

/// The request frames every equivalence test replays.
const FRAMES: &[&str] = &[
    r#"{"q":"info"}"#,
    r#"{"q":"summary"}"#,
    r#"{"q":"survival"}"#,
    r#"{"q":"hazard"}"#,
    r#"{"q":"hazard","bin_days":90}"#,
    r#"{"q":"topk"}"#,
    r#"{"q":"topk","k":25}"#,
    r#"[{"q":"summary"},{"q":"topk","k":5},{"q":"hazard","bin_days":30},{"q":"survival"}]"#,
];

fn respond_all(svc: &FleetService) -> Vec<Vec<u8>> {
    FRAMES
        .iter()
        .map(|f| svc.respond(f.as_bytes()).expect("well-formed frame"))
        .collect()
}

#[test]
fn responses_are_byte_identical_across_shard_counts() {
    let baseline = respond_all(&service(1));
    for shards in [2, 5] {
        let got = respond_all(&service(shards));
        for (frame, (a, b)) in FRAMES.iter().zip(baseline.iter().zip(&got)) {
            // info embeds the shard count, so compare it field-by-field
            // except `shards`; everything else must match byte-for-byte.
            if frame.contains("\"info\"") {
                let (va, vb) = (parse(a), parse(b));
                for key in ["drives", "drive_days", "horizon_days", "scorer", "lookahead_days"] {
                    assert_eq!(va.get(key), vb.get(key), "{frame}: field {key}");
                }
                assert_eq!(vb.get("shards").and_then(Value::as_u64), Some(shards as u64));
            } else {
                assert_eq!(a, b, "{shards} shards changed bytes for {frame}");
            }
        }
    }
}

fn parse(bytes: &[u8]) -> Value {
    json::parse(std::str::from_utf8(bytes).expect("utf8 response")).expect("json response")
}

fn float_field(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).expect(key)
}

#[test]
fn summary_response_matches_resident_analyses() {
    let svc = service(3);
    let t = fleet();
    let v = parse(&svc.respond(br#"{"q":"summary"}"#).expect("respond"));

    let s = summarize(&t);

    assert_eq!(v.get("drives").and_then(Value::as_u64), Some(s.n_drives as u64));
    assert_eq!(
        v.get("drive_days").and_then(Value::as_u64),
        Some(s.total_drive_days as u64)
    );
    assert_eq!(v.get("swaps").and_then(Value::as_u64), Some(s.total_swaps as u64));
    // Exact float equality: the response floats survive the shortest
    // round-trip writer, so parsing them back must reproduce the resident
    // f64 bit patterns.
    assert_eq!(
        float_field(&v, "failed_frac").to_bits(),
        s.failure_incidence.total_failed_fraction.to_bits()
    );
    let Some(Value::Arr(per_model)) = v.get("per_model") else {
        panic!("per_model missing")
    };
    assert_eq!(per_model.len(), s.failure_incidence.per_model.len());
    for (row, (name, failures, drives, frac)) in
        per_model.iter().zip(&s.failure_incidence.per_model)
    {
        assert_eq!(row.get("model").and_then(Value::as_str), Some(name.as_str()));
        assert_eq!(
            row.get("failures").and_then(Value::as_u64),
            Some(*failures as u64)
        );
        assert_eq!(row.get("drives").and_then(Value::as_u64), Some(*drives as u64));
        assert_eq!(float_field(row, "failed_frac").to_bits(), frac.to_bits());
    }
    let Some(Value::Arr(counts)) = v.get("failure_counts") else {
        panic!("failure_counts missing")
    };
    let counts: Vec<u64> = counts.iter().filter_map(Value::as_u64).collect();
    let expect: Vec<u64> = s.failure_counts.count_of.iter().map(|&c| c as u64).collect();
    assert_eq!(counts, expect);
    let Some(Value::Arr(rates)) = v.get("error_rates") else {
        panic!("error_rates missing")
    };
    assert_eq!(rates.len(), s.error_incidence.rates.len());
    for (row, expect) in rates.iter().zip(&s.error_incidence.rates) {
        let Value::Arr(row) = row else { panic!("rate row") };
        for (got, want) in row.iter().zip(expect) {
            assert_eq!(got.as_f64().expect("rate").to_bits(), want.to_bits());
        }
    }
}

#[test]
fn survival_response_matches_resident_km() {
    let svc = service(2);
    let t = fleet();
    let km = lifecycle::time_to_failure_km(&t);
    let v = parse(&svc.respond(br#"{"q":"survival"}"#).expect("respond"));
    assert_eq!(
        v.get("events").and_then(Value::as_u64),
        Some(km.n_events() as u64)
    );
    assert_eq!(
        v.get("censored").and_then(Value::as_u64),
        Some(km.n_censored() as u64)
    );
    let Some(Value::Arr(steps)) = v.get("steps") else {
        panic!("steps missing")
    };
    assert_eq!(steps.len(), km.steps().len());
    for (step, &(time, surv)) in steps.iter().zip(km.steps()) {
        let Value::Arr(pair) = step else { panic!("step pair") };
        assert_eq!(pair[0].as_f64().expect("t").to_bits(), time.to_bits());
        assert_eq!(pair[1].as_f64().expect("s").to_bits(), surv.to_bits());
    }
}

#[test]
fn hazard_response_matches_hand_built_binned_rate() {
    let svc = service(5);
    let t = fleet();
    let bin_days = 90u32;
    let n_bins = (t.horizon_days.div_ceil(bin_days)) as usize;
    let mut expect = BinnedRate::new(n_bins);
    for d in &t.drives {
        for r in &d.reports {
            expect.add_exposure(((r.age_days / bin_days) as usize).min(n_bins - 1), 1);
        }
        for f in failure_records(d) {
            expect.add_events(((f.fail_day / bin_days) as usize).min(n_bins - 1), 1);
        }
    }
    let v = parse(
        &svc.respond(br#"{"q":"hazard","bin_days":90}"#)
            .expect("respond"),
    );
    let pull = |key: &str| -> Vec<u64> {
        let Some(Value::Arr(arr)) = v.get(key) else {
            panic!("{key} missing")
        };
        arr.iter().filter_map(Value::as_u64).collect()
    };
    assert_eq!(pull("events"), expect.events());
    assert_eq!(pull("exposure"), expect.exposure());
    let Some(Value::Arr(rates)) = v.get("rates") else {
        panic!("rates missing")
    };
    for (got, want) in rates.iter().zip(expect.rates()) {
        match got {
            Value::Null => assert!(want.is_nan(), "null must mean empty bin"),
            other => assert_eq!(other.as_f64().expect("rate").to_bits(), want.to_bits()),
        }
    }
}

#[test]
fn topk_response_matches_whole_fleet_online_ranking() {
    let svc = service(4);
    let t = fleet();
    // Resident reference: one OnlineFleet over the whole trace, scored by
    // a scorer trained exactly as the service trains its own.
    let source = TraceSource::InMemory(t.clone());
    let cfg = config(1);
    let opts = ssd_field_study_core::ExtractOptions {
        lookahead_days: cfg.lookahead_days,
        negative_sample_rate: cfg.sample_rate,
        seed: cfg.seed,
        ..Default::default()
    };
    let mut reader = source.open().expect("open");
    let data =
        ssd_field_study_core::build_dataset_streaming(&mut reader, &opts).expect("dataset");
    let fc = ForestConfig {
        n_trees: 8,
        ..Default::default()
    };
    let scorer = FlatForest::from_forest(&RandomForest::fit(&fc, &data, cfg.seed));
    let mut online = OnlineFleet::new();
    for d in &t.drives {
        online.observe_drive(d);
    }
    let mut scored = online.predict_fleet_day(&scorer);
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

    let v = parse(&svc.respond(br#"{"q":"topk","k":25}"#).expect("respond"));
    let Some(Value::Arr(drives)) = v.get("drives") else {
        panic!("drives missing")
    };
    assert_eq!(drives.len(), 25.min(scored.len()));
    for (row, (id, score)) in drives.iter().zip(&scored) {
        assert_eq!(row.get("id").and_then(Value::as_u64), Some(u64::from(id.0)));
        assert_eq!(float_field(row, "score").to_bits(), score.to_bits());
    }
}

#[test]
fn batch_frame_costs_one_shard_pass() {
    let svc = service(3);
    assert_eq!(svc.passes(), 0);
    let _ = svc.respond(br#"{"q":"info"}"#).expect("info");
    assert_eq!(svc.passes(), 0, "info must not touch the shards");
    let _ = svc
        .respond(br#"[{"q":"summary"},{"q":"survival"},{"q":"topk"},{"q":"hazard"}]"#)
        .expect("batch");
    assert_eq!(svc.passes(), 1, "a batch shares one pass");
    let _ = svc.respond(br#"{"q":"summary"}"#).expect("summary");
    let _ = svc.respond(br#"{"q":"summary"}"#).expect("summary");
    assert_eq!(svc.passes(), 3, "separate frames are separate passes");
}

#[test]
fn concurrent_clients_get_solo_identical_bytes() {
    let svc = Arc::new(service(3));
    // Solo reference: every frame answered directly, no concurrency.
    let solo = respond_all(&svc);
    let solo_passes = svc.passes();

    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&svc), 32).expect("dispatcher"));
    let mut handles = Vec::new();
    for client in 0..8 {
        let dispatcher = Arc::clone(&dispatcher);
        handles.push(std::thread::spawn(move || {
            // Each client walks the frames twice from a different offset
            // so the dispatcher sees interleaved mixtures of queries.
            let mut out = Vec::new();
            for i in 0..FRAMES.len() * 2 {
                let j = (i + client) % FRAMES.len();
                out.push((
                    j,
                    dispatcher
                        .submit(FRAMES[j].as_bytes().to_vec())
                        .expect("submit"),
                ));
            }
            out
        }));
    }
    for h in handles {
        for (j, got) in h.join().expect("client thread") {
            assert_eq!(got, solo[j], "concurrent bytes differ for {}", FRAMES[j]);
        }
    }
    // How much coalescing happened is timing-dependent (anywhere from
    // fully shared rounds up to one pass per shard-touching submission);
    // the bytes above are what must not vary. 8 clients × 14
    // shard-touching submissions bounds the pass count from above.
    let passes = svc.passes() - solo_passes;
    assert!(
        (1..=8 * 14).contains(&passes),
        "pass count {passes} outside [1, 112]"
    );
}

#[test]
fn dispatcher_round_trips_match_direct_responses() {
    let svc = Arc::new(service(2));
    let dispatcher = Arc::new(Dispatcher::new(Arc::clone(&svc), 8).expect("dispatcher"));
    for frame in FRAMES {
        let direct = svc.respond(frame.as_bytes()).expect("direct");
        let batched = dispatcher.submit(frame.as_bytes().to_vec()).expect("batched");
        assert_eq!(direct, batched, "dispatcher changed bytes for {frame}");
    }
    // Malformed bodies surface the same typed error either way.
    match dispatcher.submit(b"{broken".to_vec()) {
        Err(ProtocolError::Json(_)) => {}
        other => panic!("expected Json error, got {other:?}"),
    }
}

#[test]
fn connection_loop_answers_then_reports_malformed_frames() {
    let svc = Arc::new(service(2));
    let responder = Responder::Direct(Arc::clone(&svc));
    // A good frame followed by a truncated one.
    let mut wire = Vec::new();
    write_frame(&mut wire, br#"{"q":"info"}"#).expect("frame");
    write_frame(&mut wire, br#"{"q":"summary"}"#).expect("frame");
    wire.truncate(wire.len() - 3);
    let mut input = &wire[..];
    let mut output = Vec::new();
    match serve_connection(&responder, &mut input, &mut output) {
        Err(ProtocolError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    // The good frame was answered, then a typed error frame was written.
    let mut cursor = &output[..];
    let first = read_frame(&mut cursor, MAX_RESPONSE_FRAME).expect("read").expect("some");
    assert_eq!(first, svc.respond(br#"{"q":"info"}"#).expect("info"));
    let second = read_frame(&mut cursor, MAX_RESPONSE_FRAME).expect("read").expect("some");
    let v = parse(&second);
    assert_eq!(
        v.get("err").and_then(|e| e.get("kind")).and_then(Value::as_str),
        Some("truncated-frame")
    );
    assert!(read_frame(&mut cursor, MAX_RESPONSE_FRAME).expect("read").is_none());
}

#[test]
fn malformed_frames_never_panic_and_always_answer_typed() {
    let svc = service(2);
    let responder = Responder::Direct(Arc::new(service(1)));
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..200 {
        let mode = rng.next_u64() % 4;
        let mut wire = Vec::new();
        match mode {
            // Random garbage bytes, random length.
            0 => {
                let len = (rng.next_u64() % 64) as usize;
                for _ in 0..len {
                    wire.push((rng.next_u64() & 0xFF) as u8);
                }
            }
            // Well-framed garbage body.
            1 => {
                let len = (rng.next_u64() % 48) as usize;
                let mut body = Vec::with_capacity(len);
                for _ in 0..len {
                    body.push((rng.next_u64() & 0xFF) as u8);
                }
                write_frame(&mut wire, &body).expect("frame");
            }
            // A valid frame truncated mid-body.
            2 => {
                write_frame(&mut wire, br#"{"q":"summary"}"#).expect("frame");
                let cut = 1 + (rng.next_u64() as usize) % (wire.len() - 1);
                wire.truncate(cut);
            }
            // Oversized length prefix with no body.
            _ => {
                let len = MAX_REQUEST_FRAME + 1 + (rng.next_u64() % 1000) as u32;
                wire.extend_from_slice(&len.to_le_bytes());
            }
        }
        let mut input = &wire[..];
        let mut output = Vec::new();
        let result = serve_connection(&responder, &mut input, &mut output);
        if let Err(e) = &result {
            // The error is typed, and the peer saw a matching error frame
            // as the last thing on the wire.
            let kind = e.kind();
            assert!(
                !kind.is_empty() && kind != "io",
                "case {case}: unexpected transport error {e}"
            );
            let mut cursor = &output[..];
            let mut last = None;
            while let Ok(Some(frame)) = read_frame(&mut cursor, MAX_RESPONSE_FRAME) {
                last = Some(frame);
            }
            let last = last.expect("an error frame was written");
            let v = parse(&last);
            assert_eq!(
                v.get("err").and_then(|err| err.get("kind")).and_then(Value::as_str),
                Some(kind),
                "case {case}"
            );
        }
    }
    // Direct parse-level fuzz of the same corpus shape.
    for _ in 0..100 {
        let len = (rng.next_u64() % 64) as usize;
        let mut body = Vec::with_capacity(len);
        for _ in 0..len {
            body.push((rng.next_u64() & 0xFF) as u8);
        }
        match svc.respond(&body) {
            Ok(bytes) => {
                // If random bytes happened to parse, the response is JSON.
                let _ = parse(&bytes);
            }
            Err(e) => {
                let rendered = error_body(e.kind(), &e.to_string());
                let v = parse(&rendered);
                assert!(v.get("err").is_some());
            }
        }
    }
}

#[test]
fn topk_without_scorer_is_a_typed_error_response() {
    let cfg = ServeConfig {
        scorer: ScorerSpec::None,
        ..config(2)
    };
    let svc = FleetService::load(&TraceSource::InMemory(fleet()), &cfg).expect("load");
    assert_eq!(svc.meta().scorer, None);
    let v = parse(&svc.respond(br#"{"q":"topk"}"#).expect("respond"));
    assert_eq!(
        v.get("err").and_then(|e| e.get("kind")).and_then(Value::as_str),
        Some("bad-request")
    );
    // Every other query still works.
    let summary = parse(&svc.respond(br#"{"q":"summary"}"#).expect("respond"));
    assert!(summary.get("drives").is_some());
}
