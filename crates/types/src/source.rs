//! Uniform access to fleet traces wherever they live — binary archive,
//! JSON export, CSV directory, or already in memory.
//!
//! The analysis binaries (`ssdstat`, `ssdgen`, `repro`) all need to turn
//! "a path the user gave us" into drives; [`TraceSource`] centralizes the
//! format sniffing that used to be ad-hoc per binary, and [`TraceReader`]
//! gives every format the same per-drive pull interface. Binary archives
//! stream through [`TraceDecoder`] at constant memory; the text formats
//! (which have no framing amenable to streaming) load resident and are
//! then served drive-by-drive, so callers write one fold loop regardless
//! of format.
//!
//! ```no_run
//! use ssd_types::source::TraceSource;
//! use ssd_types::{DriveId, DriveLog, DriveModel};
//!
//! let source = TraceSource::from_path("fleet.ssdfs", None)?;
//! let mut reader = source.open()?;
//! let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
//! let mut total_reports = 0usize;
//! while reader.next_drive_into(&mut drive)? {
//!     total_reports += drive.reports.len();
//! }
//! # Ok::<(), ssd_types::source::TraceReadError>(())
//! ```

use crate::codec::{decode_trace, trace_from_json, DecodeError, TraceDecoder};
use crate::csv::{read_trace_csv, CsvError};
use crate::json::JsonError;
use crate::{DriveLog, FleetTrace};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Errors arising while resolving or reading a [`TraceSource`].
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceReadError {
    /// Filesystem-level failure (open/read), with the path involved.
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The binary archive failed to decode.
    Decode(DecodeError),
    /// The JSON export failed to parse.
    Json(JsonError),
    /// The CSV pair failed to parse.
    Csv(CsvError),
    /// The trace decoded but violates [`FleetTrace::validate`] invariants.
    Invalid(String),
    /// A CSV directory was given without an observation horizon (CSV files
    /// do not carry one).
    MissingHorizon,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            TraceReadError::Decode(e) => write!(f, "decode archive: {e}"),
            TraceReadError::Json(e) => write!(f, "parse json trace: {e}"),
            TraceReadError::Csv(e) => write!(f, "parse csv trace: {e}"),
            TraceReadError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
            TraceReadError::MissingHorizon => {
                write!(f, "--horizon is required for CSV directories")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io { error, .. } => Some(error),
            TraceReadError::Decode(e) => Some(e),
            TraceReadError::Json(e) => Some(e),
            TraceReadError::Csv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for TraceReadError {
    fn from(e: DecodeError) -> Self {
        TraceReadError::Decode(e)
    }
}

impl From<JsonError> for TraceReadError {
    fn from(e: JsonError) -> Self {
        TraceReadError::Json(e)
    }
}

impl From<CsvError> for TraceReadError {
    fn from(e: CsvError) -> Self {
        TraceReadError::Csv(e)
    }
}

fn io_err(path: &Path, error: std::io::Error) -> TraceReadError {
    TraceReadError::Io {
        path: path.to_path_buf(),
        error,
    }
}

/// Where a fleet trace lives, with the format already determined.
///
/// | Variant     | On disk                          | [`open`] behavior      |
/// |-------------|----------------------------------|------------------------|
/// | `Archive`   | varint binary (`.ssdfs`)         | streams drive-by-drive |
/// | `Json`      | `.json` export                   | loads resident         |
/// | `CsvDir`    | `reports.csv` + `swaps.csv` dir  | loads resident         |
/// | `InMemory`  | already a [`FleetTrace`]         | borrows, no copy       |
///
/// [`open`]: TraceSource::open
#[derive(Debug)]
pub enum TraceSource {
    /// A compact binary archive produced by `ssd_types::codec`.
    Archive(PathBuf),
    /// A JSON trace export.
    Json(PathBuf),
    /// A directory holding `reports.csv` and `swaps.csv`.
    CsvDir {
        /// The directory containing the two CSV files.
        dir: PathBuf,
        /// Observation-window length, which CSVs do not carry.
        horizon_days: u32,
    },
    /// A trace already resident in memory.
    InMemory(FleetTrace),
}

impl TraceSource {
    /// Classifies `path` by shape: a directory is a CSV pair (requiring
    /// `horizon`), a `.json` extension is a JSON export, anything else is
    /// a binary archive. This is the sniffing contract all binaries share.
    pub fn from_path(
        path: impl AsRef<Path>,
        horizon: Option<u32>,
    ) -> Result<TraceSource, TraceReadError> {
        let path = path.as_ref();
        if path.is_dir() {
            let horizon_days = horizon.ok_or(TraceReadError::MissingHorizon)?;
            return Ok(TraceSource::CsvDir {
                dir: path.to_path_buf(),
                horizon_days,
            });
        }
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Ok(TraceSource::Json(path.to_path_buf())),
            _ => Ok(TraceSource::Archive(path.to_path_buf())),
        }
    }

    /// Loads the full trace into memory. Prefer [`open`](TraceSource::open)
    /// + a per-drive fold when the analysis does not need random access:
    /// for `Archive` sources this call materializes every drive.
    pub fn load(&self) -> Result<FleetTrace, TraceReadError> {
        match self {
            TraceSource::Archive(path) => {
                let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
                Ok(decode_trace(&bytes)?)
            }
            TraceSource::Json(path) => {
                let body = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
                Ok(trace_from_json(&body)?)
            }
            TraceSource::CsvDir { dir, horizon_days } => read_csv_dir(dir, *horizon_days),
            TraceSource::InMemory(trace) => Ok(trace.clone()),
        }
    }

    /// Opens the source for per-drive reading. Binary archives stream at
    /// constant memory; other formats load resident and then serve
    /// drive-by-drive through the same interface.
    pub fn open(&self) -> Result<TraceReader<'_>, TraceReadError> {
        let inner = match self {
            TraceSource::Archive(path) => {
                let file = File::open(path).map_err(|e| io_err(path, e))?;
                Inner::Stream(TraceDecoder::new(BufReader::new(file))?)
            }
            TraceSource::Json(path) => {
                let body = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
                Inner::Resident {
                    trace: trace_from_json(&body)?,
                    next: 0,
                }
            }
            TraceSource::CsvDir { dir, horizon_days } => Inner::Resident {
                trace: read_csv_dir(dir, *horizon_days)?,
                next: 0,
            },
            TraceSource::InMemory(trace) => Inner::Borrowed { trace, next: 0 },
        };
        Ok(TraceReader { inner })
    }
}

fn read_csv_dir(dir: &Path, horizon_days: u32) -> Result<FleetTrace, TraceReadError> {
    let reports_path = dir.join("reports.csv");
    let swaps_path = dir.join("swaps.csv");
    let reports = File::open(&reports_path).map_err(|e| io_err(&reports_path, e))?;
    let swaps = File::open(&swaps_path).map_err(|e| io_err(&swaps_path, e))?;
    Ok(read_trace_csv(
        BufReader::new(reports),
        BufReader::new(swaps),
        horizon_days,
    )?)
}

#[derive(Debug)]
enum Inner<'a> {
    Stream(TraceDecoder<BufReader<File>>),
    Resident { trace: FleetTrace, next: usize },
    Borrowed { trace: &'a FleetTrace, next: usize },
}

/// Per-drive pull reader over an opened [`TraceSource`].
///
/// [`next_drive_into`](TraceReader::next_drive_into) fills one
/// caller-owned [`DriveLog`] per drive, reusing its buffers, so a fold
/// over a streamed archive holds exactly one drive resident at a time.
#[derive(Debug)]
pub struct TraceReader<'a> {
    inner: Inner<'a>,
}

impl TraceReader<'_> {
    /// Observation-window length declared by the source.
    pub fn horizon_days(&self) -> u32 {
        match &self.inner {
            Inner::Stream(dec) => dec.horizon_days(),
            Inner::Resident { trace, .. } => trace.horizon_days,
            Inner::Borrowed { trace, .. } => trace.horizon_days,
        }
    }

    /// Number of drives the source declares. Test-only introspection.
    #[cfg(test)]
    pub fn declared_drives(&self) -> u64 {
        match &self.inner {
            Inner::Stream(dec) => dec.n_drives(),
            Inner::Resident { trace, .. } => trace.drives.len() as u64,
            Inner::Borrowed { trace, .. } => trace.drives.len() as u64,
        }
    }

    /// True when drives are being decoded incrementally (binary archive)
    /// rather than served from a resident trace. Test-only introspection.
    #[cfg(test)]
    pub fn is_streaming(&self) -> bool {
        matches!(self.inner, Inner::Stream(_))
    }

    /// Reads the next drive into `log`, reusing its buffers. Returns
    /// `Ok(false)` at the end of the trace.
    pub fn next_drive_into(&mut self, log: &mut DriveLog) -> Result<bool, TraceReadError> {
        match &mut self.inner {
            Inner::Stream(dec) => Ok(dec.next_drive_into(log)?),
            Inner::Resident { trace, next } => {
                if let Some(d) = trace.drives.get(*next) {
                    log.clone_from(d);
                    *next += 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            Inner::Borrowed { trace, next } => {
                if let Some(d) = trace.drives.get(*next) {
                    log.clone_from(d);
                    *next += 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_trace;
    use crate::{DailyReport, DriveId, DriveModel, SwapEvent};

    fn sample_trace() -> FleetTrace {
        let mut t = FleetTrace::new(365);
        for i in 0..4u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index((i % 3) as usize));
            for day in 0..3u32 {
                let mut r = DailyReport::empty(day);
                r.read_ops = u64::from(i) * 10 + u64::from(day);
                r.write_ops = u64::from(day) * 2;
                d.reports.push(r);
            }
            if i == 2 {
                d.swaps.push(SwapEvent {
                    swap_day: 1,
                    reentry_day: Some(2),
                });
            }
            t.drives.push(d);
        }
        t
    }

    fn drain(reader: &mut TraceReader<'_>) -> Vec<DriveLog> {
        let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        let mut out = Vec::new();
        while reader.next_drive_into(&mut drive).unwrap() {
            out.push(drive.clone());
        }
        out
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ssd-source-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn archive_source_streams_all_drives() {
        let t = sample_trace();
        let dir = temp_dir("bin");
        let path = dir.join("trace.ssdfs");
        std::fs::write(&path, encode_trace(&t)).unwrap();

        let source = TraceSource::from_path(&path, None).unwrap();
        assert!(matches!(source, TraceSource::Archive(_)));
        let mut reader = source.open().unwrap();
        assert!(reader.is_streaming());
        assert_eq!(reader.horizon_days(), t.horizon_days);
        assert_eq!(reader.declared_drives(), t.drives.len() as u64);
        assert_eq!(drain(&mut reader), t.drives);
        assert_eq!(source.load().unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_source_round_trips() {
        let t = sample_trace();
        let dir = temp_dir("json");
        let path = dir.join("trace.json");
        std::fs::write(&path, crate::codec::trace_to_json(&t).unwrap()).unwrap();

        let source = TraceSource::from_path(&path, None).unwrap();
        assert!(matches!(source, TraceSource::Json(_)));
        let mut reader = source.open().unwrap();
        assert!(!reader.is_streaming());
        assert_eq!(drain(&mut reader), t.drives);
        assert_eq!(source.load().unwrap(), t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_dir_requires_horizon_and_loads_with_it() {
        let t = sample_trace();
        let dir = temp_dir("csv");
        let mut reports = Vec::new();
        let mut swaps = Vec::new();
        crate::csv::write_reports_csv(&t, &mut reports).unwrap();
        crate::csv::write_swaps_csv(&t, &mut swaps).unwrap();
        std::fs::write(dir.join("reports.csv"), reports).unwrap();
        std::fs::write(dir.join("swaps.csv"), swaps).unwrap();

        let err = TraceSource::from_path(&dir, None).unwrap_err();
        assert!(matches!(err, TraceReadError::MissingHorizon));

        let source = TraceSource::from_path(&dir, Some(t.horizon_days)).unwrap();
        let mut reader = source.open().unwrap();
        assert_eq!(reader.horizon_days(), t.horizon_days);
        assert_eq!(drain(&mut reader), t.drives);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_source_borrows_without_copying_the_trace() {
        let t = sample_trace();
        let source = TraceSource::InMemory(t.clone());
        let mut reader = source.open().unwrap();
        assert!(!reader.is_streaming());
        assert_eq!(reader.declared_drives(), 4);
        assert_eq!(drain(&mut reader), t.drives);
    }

    #[test]
    fn missing_file_reports_path_in_error() {
        let source = TraceSource::from_path("/no/such/file.ssdfs", None).unwrap();
        let err = source.open().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("/no/such/file.ssdfs"), "{msg}");
    }

    #[test]
    fn corrupt_archive_surfaces_decode_error() {
        let dir = temp_dir("corrupt");
        let path = dir.join("bad.ssdfs");
        std::fs::write(&path, b"definitely not an archive").unwrap();
        let source = TraceSource::from_path(&path, None).unwrap();
        let err = source.open().unwrap_err();
        assert!(matches!(
            err,
            TraceReadError::Decode(DecodeError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_archive_errors_mid_stream_with_offset() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let dir = temp_dir("trunc");
        let path = dir.join("cut.ssdfs");
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let source = TraceSource::from_path(&path, None).unwrap();
        let mut reader = source.open().unwrap();
        let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        let err = loop {
            match reader.next_drive_into(&mut log) {
                Ok(true) => {}
                Ok(false) => panic!("truncated archive must not drain cleanly"),
                Err(e) => break e,
            }
        };
        match err {
            TraceReadError::Decode(DecodeError::UnexpectedEof { offset }) => {
                assert_eq!(offset, (bytes.len() - 4) as u64);
            }
            other => panic!("expected truncation error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
