//! Property-based tests: the binary codec must be lossless for *arbitrary*
//! well-formed traces, not just simulator output.

use ssd_testkit::{for_each_case, Gen};
use ssd_types::codec::{
    decode_trace, encode_drive_soa, encode_trace, encode_trace_to, ReportColumns, TraceDecoder,
    TraceEncoder, STATUS_DEAD, STATUS_READ_ONLY,
};
use ssd_types::csv::{read_trace_csv, write_reports_csv, write_swaps_csv};
use ssd_types::{
    DailyReport, DriveId, DriveLog, DriveModel, ErrorCounts, ErrorKind, FleetTrace, SwapEvent,
};
use std::io::BufReader;

fn arb_error_counts(g: &mut Gen) -> ErrorCounts {
    let mut c = ErrorCounts::zero();
    for i in 0..ErrorKind::COUNT {
        c.set(ErrorKind::from_index(i), g.u64_in(0, 1_000_000_000));
    }
    c
}

fn arb_report(g: &mut Gen) -> DailyReport {
    DailyReport {
        age_days: g.u32_in(0, 3000),
        read_ops: g.u64_in(0, 1_000_000_000),
        write_ops: g.u64_in(0, 1_000_000_000),
        erase_ops: g.u64_in(0, 10_000_000),
        pe_cycles: g.u32_in(0, 10_000),
        status_dead: g.bool(),
        status_read_only: g.bool(),
        factory_bad_blocks: g.u32_in(0, 50),
        grown_bad_blocks: g.u32_in(0, 100_000),
        errors: arb_error_counts(g),
    }
}

fn arb_drive(g: &mut Gen, id: u32) -> DriveLog {
    let model = g.usize_in(0, 3);
    let mut reports = g.vec(0, 39, arb_report);
    let raw_swaps: Vec<(u32, Option<u32>)> =
        g.vec(0, 3, |g| (g.u32_in(0, 4000), g.option(|g| g.u32_in(0, 2000))));
    // Make reports strictly increasing in age by re-assigning ages.
    reports.sort_by_key(|r| r.age_days);
    for (i, r) in reports.iter_mut().enumerate() {
        r.age_days = i as u32 * 3 + (r.age_days % 3);
    }
    reports.dedup_by_key(|r| r.age_days);
    let mut day = 0u32;
    let swaps = raw_swaps
        .into_iter()
        .map(|(gap, rep)| {
            day += 1 + gap % 500;
            let swap_day = day;
            let reentry_day = rep.map(|r| {
                day += 1 + r % 400;
                day
            });
            SwapEvent {
                swap_day,
                reentry_day,
            }
        })
        .collect();
    DriveLog {
        id: DriveId(id),
        model: DriveModel::from_index(model),
        reports,
        swaps,
        // Arbitrary finite log-weights (negative, zero, positive) so every
        // roundtrip exercises the v2 weight field.
        log_weight: (g.u32_in(0, 2000) as f64 - 1000.0) / 250.0,
    }
}

fn arb_trace(g: &mut Gen) -> FleetTrace {
    let n_drives = g.usize_in(1, 6);
    let drives = (0..n_drives).map(|i| arb_drive(g, i as u32)).collect();
    FleetTrace {
        horizon_days: g.u32_in(0, 5000),
        drives,
    }
}

#[test]
fn binary_codec_roundtrip() {
    for_each_case("binary_codec_roundtrip", 64, |g| {
        let trace = arb_trace(g);
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).expect("decode");
        assert_eq!(back, trace);
    });
}

#[test]
fn json_codec_roundtrip() {
    for_each_case("json_codec_roundtrip", 64, |g| {
        let trace = arb_trace(g);
        let s = ssd_types::codec::trace_to_json(&trace).unwrap();
        let back = ssd_types::codec::trace_from_json(&s).unwrap();
        assert_eq!(back, trace);
    });
}

#[test]
fn truncation_never_panics() {
    for_each_case("truncation_never_panics", 64, |g| {
        let trace = arb_trace(g);
        let cut = g.usize_in(0, 64);
        let bytes = encode_trace(&trace);
        let keep = bytes.len().saturating_sub(cut);
        // Either decodes (cut == 0) or errors; must never panic. Both the
        // resident and the streaming path must agree on success/failure.
        let resident = decode_trace(&bytes[..keep]);
        let streamed = drain_stream(&bytes[..keep]);
        assert_eq!(resident.is_ok(), streamed.is_ok());
        if let (Ok(a), Ok(b)) = (resident, streamed) {
            assert_eq!(a, b);
        }
    });
}

/// Fully consumes an archive through [`TraceDecoder`], returning the
/// decoded trace or the first typed error. Panics are the only failure
/// mode this helper cannot produce — which is the point.
fn drain_stream(bytes: &[u8]) -> Result<FleetTrace, ssd_types::codec::DecodeError> {
    let mut dec = TraceDecoder::new(bytes)?;
    let horizon_days = dec.horizon_days();
    let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    let mut drives = Vec::new();
    while dec.next_drive_into(&mut log)? {
        drives.push(log.clone());
    }
    Ok(FleetTrace {
        horizon_days,
        drives,
    })
}

#[test]
fn mutation_never_panics_and_yields_typed_errors() {
    for_each_case("mutation_never_panics", 128, |g| {
        let trace = arb_trace(g);
        let mut bytes = encode_trace(&trace);
        for _ in 0..g.usize_in(1, 4) {
            let i = g.usize_in(0, bytes.len() - 1);
            bytes[i] ^= g.u32_in(1, 255) as u8;
        }
        // A mutated archive may still decode (the flip landed in a value),
        // but it must never panic, and both paths must agree.
        let resident = decode_trace(&bytes);
        let streamed = drain_stream(&bytes);
        assert_eq!(resident.is_ok(), streamed.is_ok());
        // Drives that *do* decode from the damaged archive then hit the
        // invariant gate online consumers apply (`build_dataset_streaming`
        // maps it to TraceReadError::Invalid): validate() must return its
        // typed Err for nonsense telemetry, never panic on it.
        if let Ok(mut dec) = TraceDecoder::new(bytes.as_slice()) {
            let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
            while let Ok(true) = dec.next_drive_into(&mut log) {
                let _ = log.validate();
            }
        }
    });
}

#[test]
fn stream_roundtrip_matches_resident() {
    // The case name seeds the generator; it keeps the established corpus.
    for_each_case("stream_roundtrip_chunks", 32, |g| {
        let trace = arb_trace(g);
        let resident = encode_trace(&trace);
        let mut streamed = Vec::new();
        encode_trace_to(&trace, &mut streamed).expect("stream encode");
        assert_eq!(streamed, resident, "stream-encode must be byte-identical");
        let back = drain_stream(&streamed).expect("stream decode");
        assert_eq!(back, trace, "stream decode must equal the encoded trace");
    });
}

/// Like [`arb_trace`], but constrained to traces that satisfy
/// `FleetTrace::validate` (the CSV reader validates on load): cumulative
/// counters are made non-decreasing by taking running maxima.
fn arb_valid_trace(g: &mut Gen) -> FleetTrace {
    let mut trace = arb_trace(g);
    for d in &mut trace.drives {
        // The CSV interchange format has no weight column; keep the
        // roundtrip comparison meaningful.
        d.log_weight = 0.0;
        let mut pe = 0u32;
        let mut fbb = 0u32;
        let mut gbb = 0u32;
        for r in &mut d.reports {
            pe = pe.max(r.pe_cycles);
            fbb = fbb.max(r.factory_bad_blocks);
            gbb = gbb.max(r.grown_bad_blocks);
            r.pe_cycles = pe;
            r.factory_bad_blocks = fbb;
            r.grown_bad_blocks = gbb;
        }
    }
    trace
}

#[test]
fn csv_codec_roundtrip() {
    for_each_case("csv_codec_roundtrip", 64, |g| {
        let trace = arb_valid_trace(g);
        let mut reports = Vec::new();
        let mut swaps = Vec::new();
        write_reports_csv(&trace, &mut reports).expect("write reports");
        write_swaps_csv(&trace, &mut swaps).expect("write swaps");
        let back = read_trace_csv(
            BufReader::new(reports.as_slice()),
            BufReader::new(swaps.as_slice()),
            trace.horizon_days,
        )
        .expect("read");
        // Documented CSV limitation: drives with no reports and no swaps
        // have no rows and cannot be recovered.
        let expected: Vec<DriveLog> = trace
            .drives
            .iter()
            .filter(|d| !d.reports.is_empty() || !d.swaps.is_empty())
            .cloned()
            .collect();
        assert_eq!(back.horizon_days, trace.horizon_days);
        assert_eq!(back.drives, expected);
    });
}

/// Owned columns mirroring a drive's reports, lent out as [`ReportColumns`].
struct OwnedColumns {
    age_days: Vec<u32>,
    read_ops: Vec<u64>,
    write_ops: Vec<u64>,
    erase_ops: Vec<u64>,
    pe_cycles: Vec<u32>,
    status_flags: Vec<u8>,
    factory_bad_blocks: Vec<u32>,
    grown_bad_blocks: Vec<u32>,
    errors: [Vec<u64>; ErrorKind::COUNT],
}

impl OwnedColumns {
    fn from_reports(reports: &[DailyReport]) -> Self {
        let mut c = OwnedColumns {
            age_days: Vec::new(),
            read_ops: Vec::new(),
            write_ops: Vec::new(),
            erase_ops: Vec::new(),
            pe_cycles: Vec::new(),
            status_flags: Vec::new(),
            factory_bad_blocks: Vec::new(),
            grown_bad_blocks: Vec::new(),
            errors: std::array::from_fn(|_| Vec::new()),
        };
        for r in reports {
            c.age_days.push(r.age_days);
            c.read_ops.push(r.read_ops);
            c.write_ops.push(r.write_ops);
            c.erase_ops.push(r.erase_ops);
            c.pe_cycles.push(r.pe_cycles);
            c.status_flags.push(
                u8::from(r.status_dead) * STATUS_DEAD
                    | u8::from(r.status_read_only) * STATUS_READ_ONLY,
            );
            c.factory_bad_blocks.push(r.factory_bad_blocks);
            c.grown_bad_blocks.push(r.grown_bad_blocks);
            for (i, (_, count)) in r.errors.iter().enumerate() {
                c.errors[i].push(count);
            }
        }
        c
    }

    fn view(&self) -> ReportColumns<'_> {
        ReportColumns {
            age_days: &self.age_days,
            read_ops: &self.read_ops,
            write_ops: &self.write_ops,
            erase_ops: &self.erase_ops,
            pe_cycles: &self.pe_cycles,
            status_flags: &self.status_flags,
            factory_bad_blocks: &self.factory_bad_blocks,
            grown_bad_blocks: &self.grown_bad_blocks,
            errors: std::array::from_fn(|i| self.errors[i].as_slice()),
        }
    }
}

#[test]
fn soa_encoding_matches_aos_for_arbitrary_traces() {
    for_each_case("soa_encoding_matches_aos", 64, |g| {
        let trace = arb_trace(g);
        let expected = encode_trace(&trace);
        let mut enc =
            TraceEncoder::new(trace.horizon_days, trace.drives.len() as u64);
        for d in &trace.drives {
            let cols = OwnedColumns::from_reports(&d.reports);
            enc.append_columns(d.id, d.model, d.log_weight, cols.view(), &d.swaps)
                .expect("Vec sink cannot fail");
        }
        let soa = enc.finish();
        assert_eq!(soa, expected);
        // And the SoA-built archive decodes back to the original trace.
        assert_eq!(decode_trace(&soa).expect("decode"), trace);
    });
}

#[test]
fn per_drive_soa_encoding_is_self_consistent() {
    for_each_case("per_drive_soa_encoding", 64, |g| {
        let id = g.u32_in(0, 1000);
        let d = arb_drive(g, id);
        let cols = OwnedColumns::from_reports(&d.reports);
        let mut soa = Vec::new();
        encode_drive_soa(&mut soa, d.id, d.model, d.log_weight, cols.view(), &d.swaps);
        let mut enc = TraceEncoder::new(100, 1);
        enc.append_drive(&d).expect("Vec sink cannot fail");
        let via_log = enc.finish();
        // Skip the archive header; the drive record bytes must agree.
        assert_eq!(&via_log[via_log.len() - soa.len()..], soa.as_slice());
    });
}

#[test]
fn error_counts_sum_identities() {
    for_each_case("error_counts_sum_identities", 64, |g| {
        let c = arb_error_counts(g);
        let total = c.total();
        let nt = c.total_non_transparent();
        let t: u64 = ErrorKind::transparent().map(|k| c.get(k)).sum();
        assert_eq!(total, nt + t);
        assert_eq!(nt > 0, c.any_non_transparent());
    });
}
