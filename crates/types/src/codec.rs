//! Compact binary (de)serialization for fleet traces — resident and
//! streaming.
//!
//! A 30,000-drive, six-year trace holds tens of millions of daily reports;
//! JSON is convenient for interchange but far too large for archival, so
//! this module provides a simple length-prefixed binary format built on
//! LEB128 varints (most counters are small most days — errors are rare,
//! Table 1).
//!
//! The format is versioned by a magic header so stale archives fail loudly
//! rather than decode garbage.
//!
//! ## Wire framing
//!
//! ```text
//! archive   := MAGIC("SSDFS\0v2") varint(horizon_days) varint(n_drives) drive*
//! drive     := varint(id) u8(model) varint(bits(log_weight))
//!              varint(n_reports) report* swaps
//! report    := varint(age) varint(read) varint(write) varint(erase)
//!              varint(pe) u8(flags) varint(fbb) varint(gbb)
//!              varint(err[0]) .. varint(err[9])
//! swaps     := varint(n_swaps) (varint(swap_day) u8(has_reentry)
//!              [varint(reentry_day)])*
//! ```
//!
//! `bits(log_weight)` is the IEEE-754 bit pattern of the drive's
//! importance-sampling log-weight ([`DriveLog::log_weight`]); uniformly
//! sampled drives carry `+0.0`, whose bit pattern is `0` — a single
//! varint byte. Decoders also accept the previous `"SSDFS\0v1"` framing
//! (identical except the drive record has no weight field); v1 drives
//! decode with log-weight `0.0`. Encoders always write v2.
//!
//! There are no per-drive length prefixes or sync markers: records are
//! self-delimiting, so the archive can only be read front to back — which
//! is exactly the shape streaming consumption needs.
//!
//! ## Streaming
//!
//! Multi-GB archives never have to be resident:
//!
//! * [`TraceDecoder`] pulls drives one at a time from any [`Read`] source
//!   through a fixed-size refill buffer. Its one read entry point,
//!   [`next_drive_into`], reuses one caller-owned [`DriveLog`]'s
//!   report/swap buffers between drives.
//! * [`TraceEncoder`] is generic over a [`Write`] sink: each appended
//!   drive is serialized into an internal scratch buffer (reused between
//!   drives) and flushed to the sink, so peak memory is one drive record
//!   regardless of archive size. `TraceEncoder<Vec<u8>>` keeps the legacy
//!   infallible in-memory API.
//!
//! The resident entry points [`encode_trace`]/[`decode_trace`] are thin
//! wrappers over the same core and remain byte-compatible with archives
//! produced before the streaming redesign.
//!
//! ## Example
//!
//! Encode two drives into an in-memory archive, then stream them back one
//! at a time through a reusable `DriveLog` buffer:
//!
//! ```
//! use ssd_types::codec::{TraceDecoder, TraceEncoder};
//! use ssd_types::{DailyReport, DriveId, DriveLog, DriveModel};
//!
//! let mut enc = TraceEncoder::new(30, 2);
//! for id in 0..2u32 {
//!     let mut drive = DriveLog::new(DriveId(id), DriveModel::MlcA);
//!     drive.reports.push(DailyReport::empty(3));
//!     enc.append_drive(&drive).unwrap();
//! }
//! let bytes = enc.finish();
//!
//! let mut dec = TraceDecoder::new(&bytes[..]).unwrap();
//! assert_eq!(dec.horizon_days(), 30);
//! let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
//! let mut drives = 0;
//! while dec.next_drive_into(&mut log).unwrap() {
//!     assert_eq!(log.reports.len(), 1);
//!     drives += 1;
//! }
//! assert_eq!(drives, 2);
//! ```
//!
//! [`next_drive_into`]: TraceDecoder::next_drive_into

use crate::{
    DailyReport, DriveId, DriveLog, DriveModel, ErrorCounts, ErrorKind, FleetTrace, SwapEvent,
};
use std::io::{Read, Write};

/// Magic bytes + format version prefix (current version, always written).
const MAGIC: &[u8; 8] = b"SSDFS\0v2";

/// Previous format version: identical framing minus the per-drive
/// log-weight field. Still accepted on decode.
const MAGIC_V1: &[u8; 8] = b"SSDFS\0v1";

/// Archive format version, detected from the magic header on decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    /// Weightless drive records.
    V1,
    /// Drive records carry an importance-sampling log-weight.
    V2,
}

/// Bit set in the report flags byte when the drive failed (`status_dead`).
pub const STATUS_DEAD: u8 = 1;

/// Bit set in the report flags byte when the drive latched read-only mode.
pub const STATUS_READ_ONLY: u8 = 1 << 1;

/// Default refill-buffer capacity for streaming decode (64 KiB).
const STREAM_BUF_BYTES: usize = 64 * 1024;

/// Errors arising during decode.
///
/// Every variant (except a short/garbled header) carries the absolute byte
/// offset into the archive at which decoding failed, so a corrupt
/// multi-GB archive reports *where* it broke, not just that it did.
///
/// The enum is `#[non_exhaustive]`: match with a wildcard arm so future
/// decoders can add failure modes without breaking downstream crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input did not begin with the expected magic/version header.
    BadMagic {
        /// The header bytes actually read (shorter than the magic if the
        /// input ended early).
        got: Vec<u8>,
    },
    /// The input ended before a complete value was read.
    UnexpectedEof {
        /// Byte offset at which more input was expected.
        offset: u64,
    },
    /// A varint exceeded the width of its target type.
    VarintOverflow {
        /// Byte offset of the overflowing varint's final byte.
        offset: u64,
    },
    /// An enum discriminant was out of range.
    BadDiscriminant {
        /// Byte offset of the offending byte.
        offset: u64,
        /// What was being decoded (e.g. `"drive model"`).
        expected: &'static str,
        /// The out-of-range value found.
        got: u8,
    },
    /// The underlying [`Read`] source failed (streaming decode only).
    Io {
        /// Byte offset at which the read failed.
        offset: u64,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// The I/O error message.
        message: String,
    },
}

impl DecodeError {
    /// The archive byte offset the error is anchored at, if any
    /// (`BadMagic` has none — the whole header is implicated).
    pub fn offset(&self) -> Option<u64> {
        match self {
            DecodeError::BadMagic { .. } => None,
            DecodeError::UnexpectedEof { offset }
            | DecodeError::VarintOverflow { offset }
            | DecodeError::BadDiscriminant { offset, .. }
            | DecodeError::Io { offset, .. } => Some(*offset),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic { got } => {
                write!(f, "bad magic/version header: expected {MAGIC:?}, got {got:?}")
            }
            DecodeError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            DecodeError::VarintOverflow { offset } => {
                write!(f, "varint overflow at byte {offset}")
            }
            DecodeError::BadDiscriminant {
                offset,
                expected,
                got,
            } => write!(f, "bad {expected} discriminant {got} at byte {offset}"),
            DecodeError::Io {
                offset,
                kind,
                message,
            } => write!(f, "io error ({kind:?}) at byte {offset}: {message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Byte source abstraction shared by the in-memory and streaming decode
/// paths: a fallible byte iterator that knows its absolute offset.
trait Src {
    /// Next byte, or `UnexpectedEof`/`Io` anchored at the current offset.
    fn next_u8(&mut self) -> Result<u8, DecodeError>;

    /// Absolute offset of the next unread byte.
    fn offset(&self) -> u64;
}

/// Borrowing read cursor over a fully-resident encoded buffer.
struct SliceSrc<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceSrc<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SliceSrc { buf, pos: 0 }
    }
}

impl Src for SliceSrc<'_> {
    #[inline]
    fn next_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof {
            offset: self.pos as u64,
        })?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn offset(&self) -> u64 {
        self.pos as u64
    }
}

/// Buffered byte source over an arbitrary [`Read`]er. Holds one fixed
/// refill buffer; never buffers more than `buf.len()` bytes at a time.
#[derive(Debug)]
struct StreamSrc<R> {
    reader: R,
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
    /// Absolute offset of `buf[0]` within the archive.
    base: u64,
}

impl<R: Read> StreamSrc<R> {
    fn new(reader: R, capacity: usize) -> Self {
        StreamSrc {
            reader,
            buf: vec![0u8; capacity.max(16)].into_boxed_slice(),
            pos: 0,
            len: 0,
            base: 0,
        }
    }

    /// Refills the buffer from the reader. `self.len == 0` afterwards
    /// means clean EOF.
    fn refill(&mut self) -> Result<(), DecodeError> {
        self.base += self.len as u64;
        self.pos = 0;
        self.len = 0;
        loop {
            match self.reader.read(&mut self.buf) {
                Ok(n) => {
                    self.len = n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(DecodeError::Io {
                        offset: self.base,
                        kind: e.kind(),
                        message: e.to_string(),
                    })
                }
            }
        }
    }
}

impl<R: Read> Src for StreamSrc<R> {
    #[inline]
    fn next_u8(&mut self) -> Result<u8, DecodeError> {
        if self.pos == self.len {
            self.refill()?;
            if self.len == 0 {
                return Err(DecodeError::UnexpectedEof { offset: self.base });
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint<S: Src>(src: &mut S) -> Result<u64, DecodeError> {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    loop {
        let at = src.offset();
        let byte = src.next_u8()?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::VarintOverflow { offset: at });
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn get_varint_u32<S: Src>(src: &mut S) -> Result<u32, DecodeError> {
    let at = src.offset();
    let v = get_varint(src)?;
    u32::try_from(v).map_err(|_| DecodeError::VarintOverflow { offset: at })
}

/// Reads and checks the magic/version header, returning the detected
/// format version. A source that ends before the full magic is a
/// `BadMagic` (there is no archive here at all), not an `UnexpectedEof`.
fn expect_magic<S: Src>(src: &mut S) -> Result<Version, DecodeError> {
    let mut got = Vec::with_capacity(MAGIC.len());
    for _ in 0..MAGIC.len() {
        match src.next_u8() {
            Ok(b) => got.push(b),
            Err(DecodeError::UnexpectedEof { .. }) => {
                return Err(DecodeError::BadMagic { got })
            }
            Err(e) => return Err(e),
        }
    }
    if got == MAGIC {
        Ok(Version::V2)
    } else if got == MAGIC_V1 {
        Ok(Version::V1)
    } else {
        Err(DecodeError::BadMagic { got })
    }
}

fn encode_report(buf: &mut Vec<u8>, r: &DailyReport) {
    put_varint(buf, u64::from(r.age_days));
    put_varint(buf, r.read_ops);
    put_varint(buf, r.write_ops);
    put_varint(buf, r.erase_ops);
    put_varint(buf, u64::from(r.pe_cycles));
    let flags = u8::from(r.status_dead) | (u8::from(r.status_read_only) << 1);
    buf.push(flags);
    put_varint(buf, u64::from(r.factory_bad_blocks));
    put_varint(buf, u64::from(r.grown_bad_blocks));
    for (_, c) in r.errors.iter() {
        put_varint(buf, c);
    }
}

fn decode_report<S: Src>(src: &mut S) -> Result<DailyReport, DecodeError> {
    let age_days = get_varint_u32(src)?;
    let read_ops = get_varint(src)?;
    let write_ops = get_varint(src)?;
    let erase_ops = get_varint(src)?;
    let pe_cycles = get_varint_u32(src)?;
    let flags = src.next_u8()?;
    let factory_bad_blocks = get_varint_u32(src)?;
    let grown_bad_blocks = get_varint_u32(src)?;
    let mut errors = ErrorCounts::zero();
    for kind in ErrorKind::ALL {
        errors.set(kind, get_varint(src)?);
    }
    Ok(DailyReport {
        age_days,
        read_ops,
        write_ops,
        erase_ops,
        pe_cycles,
        status_dead: flags & 1 != 0,
        status_read_only: flags & 2 != 0,
        factory_bad_blocks,
        grown_bad_blocks,
        errors,
    })
}

/// Borrowed struct-of-arrays view over one drive's daily reports.
///
/// Each slice is one column of the report table, all of equal length (one
/// entry per report day). This is the zero-copy bridge from the
/// simulator's columnar buffers to the varint codec: [`encode_drive_soa`]
/// walks the columns row by row and emits bytes identical to
/// [`encode_trace`] on the equivalent [`DriveLog`].
#[derive(Debug, Clone, Copy)]
pub struct ReportColumns<'a> {
    /// Report age in days since deployment (`DailyReport::age_days`).
    pub age_days: &'a [u32],
    /// Cumulative read operations.
    pub read_ops: &'a [u64],
    /// Cumulative write operations.
    pub write_ops: &'a [u64],
    /// Cumulative erase operations.
    pub erase_ops: &'a [u64],
    /// Cumulative program/erase cycles.
    pub pe_cycles: &'a [u32],
    /// Packed status bits ([`STATUS_DEAD`] | [`STATUS_READ_ONLY`]).
    pub status_flags: &'a [u8],
    /// Factory bad-block count.
    pub factory_bad_blocks: &'a [u32],
    /// Grown (post-deployment) bad-block count.
    pub grown_bad_blocks: &'a [u32],
    /// One cumulative column per [`ErrorKind`], in `ErrorKind::ALL` order.
    pub errors: [&'a [u64]; ErrorKind::COUNT],
}

impl ReportColumns<'_> {
    /// Number of report rows. All columns share this length.
    pub fn len(&self) -> usize {
        self.age_days.len()
    }

    /// True when the view holds no reports.
    pub fn is_empty(&self) -> bool {
        self.age_days.is_empty()
    }

    fn assert_rectangular(&self) {
        let n = self.age_days.len();
        debug_assert_eq!(self.read_ops.len(), n);
        debug_assert_eq!(self.write_ops.len(), n);
        debug_assert_eq!(self.erase_ops.len(), n);
        debug_assert_eq!(self.pe_cycles.len(), n);
        debug_assert_eq!(self.status_flags.len(), n);
        debug_assert_eq!(self.factory_bad_blocks.len(), n);
        debug_assert_eq!(self.grown_bad_blocks.len(), n);
        for col in &self.errors {
            debug_assert_eq!(col.len(), n);
        }
    }
}

/// Encodes one drive record from a columnar view, byte-identical to the
/// [`DriveLog`] path for the same data. `log_weight` is the drive's
/// importance-sampling log-weight (`0.0` for uniform sampling).
pub fn encode_drive_soa(
    buf: &mut Vec<u8>,
    id: DriveId,
    model: DriveModel,
    log_weight: f64,
    cols: ReportColumns<'_>,
    swaps: &[SwapEvent],
) {
    cols.assert_rectangular();
    put_varint(buf, u64::from(id.0));
    buf.push(model.index() as u8);
    put_varint(buf, log_weight.to_bits());
    put_varint(buf, cols.len() as u64);
    for i in 0..cols.len() {
        put_varint(buf, u64::from(cols.age_days[i]));
        put_varint(buf, cols.read_ops[i]);
        put_varint(buf, cols.write_ops[i]);
        put_varint(buf, cols.erase_ops[i]);
        put_varint(buf, u64::from(cols.pe_cycles[i]));
        buf.push(cols.status_flags[i]);
        put_varint(buf, u64::from(cols.factory_bad_blocks[i]));
        put_varint(buf, u64::from(cols.grown_bad_blocks[i]));
        for col in &cols.errors {
            put_varint(buf, col[i]);
        }
    }
    encode_swaps(buf, swaps);
}

fn encode_swaps(buf: &mut Vec<u8>, swaps: &[SwapEvent]) {
    put_varint(buf, swaps.len() as u64);
    for s in swaps {
        put_varint(buf, u64::from(s.swap_day));
        match s.reentry_day {
            Some(day) => {
                buf.push(1);
                put_varint(buf, u64::from(day));
            }
            None => buf.push(0),
        }
    }
}

fn encode_drive(buf: &mut Vec<u8>, d: &DriveLog) {
    put_varint(buf, u64::from(d.id.0));
    buf.push(d.model.index() as u8);
    put_varint(buf, d.log_weight.to_bits());
    put_varint(buf, d.reports.len() as u64);
    for r in &d.reports {
        encode_report(buf, r);
    }
    encode_swaps(buf, &d.swaps);
}

fn decode_model<S: Src>(src: &mut S) -> Result<DriveModel, DecodeError> {
    let at = src.offset();
    let model_idx = src.next_u8()?;
    if usize::from(model_idx) >= DriveModel::ALL.len() {
        return Err(DecodeError::BadDiscriminant {
            offset: at,
            expected: "drive model",
            got: model_idx,
        });
    }
    Ok(DriveModel::from_index(usize::from(model_idx)))
}

fn decode_swaps_into<S: Src>(src: &mut S, swaps: &mut Vec<SwapEvent>) -> Result<(), DecodeError> {
    let n_swaps = get_varint(src)? as usize;
    swaps.reserve(n_swaps.min(1 << 10));
    for _ in 0..n_swaps {
        let swap_day = get_varint_u32(src)?;
        let at = src.offset();
        let reentry_day = match src.next_u8()? {
            0 => None,
            1 => Some(get_varint_u32(src)?),
            d => {
                return Err(DecodeError::BadDiscriminant {
                    offset: at,
                    expected: "swap re-entry tag",
                    got: d,
                })
            }
        };
        swaps.push(SwapEvent {
            swap_day,
            reentry_day,
        });
    }
    Ok(())
}

/// Decodes one drive record into `log`, reusing its report/swap buffer
/// capacity. On error the log's contents are unspecified.
fn decode_drive_into<S: Src>(
    src: &mut S,
    version: Version,
    log: &mut DriveLog,
) -> Result<(), DecodeError> {
    log.reports.clear();
    log.swaps.clear();
    log.id = DriveId(get_varint_u32(src)?);
    log.model = decode_model(src)?;
    log.log_weight = match version {
        Version::V1 => 0.0,
        Version::V2 => f64::from_bits(get_varint(src)?),
    };
    let n_reports = get_varint(src)? as usize;
    log.reports.reserve(n_reports.min(1 << 20));
    for _ in 0..n_reports {
        log.reports.push(decode_report(src)?);
    }
    decode_swaps_into(src, &mut log.swaps)
}

/// Streaming archive reader: pulls drives one at a time from any
/// [`Read`] source at constant memory.
///
/// The header (magic, horizon, declared drive count) is read eagerly by
/// [`new`](TraceDecoder::new); drives are then decoded on demand by
/// [`next_drive_into`](TraceDecoder::next_drive_into), which reuses one
/// caller-owned [`DriveLog`], so a full pass over a multi-GB archive
/// allocates only one drive's worth of reports at a time.
///
/// Exactly the declared number of drives is decoded; trailing bytes after
/// the last drive are ignored, matching [`decode_trace`]. A source that
/// ends mid-record yields a [`DecodeError::UnexpectedEof`] carrying the
/// byte offset of the break.
#[derive(Debug)]
pub struct TraceDecoder<R> {
    src: StreamSrc<R>,
    version: Version,
    horizon_days: u32,
    n_drives: u64,
    decoded: u64,
}

impl<R: Read> TraceDecoder<R> {
    /// Opens an archive stream, reading and validating the header.
    pub fn new(reader: R) -> Result<Self, DecodeError> {
        TraceDecoder::with_buffer_capacity(reader, STREAM_BUF_BYTES)
    }

    /// Like [`new`](TraceDecoder::new) with an explicit refill-buffer
    /// capacity in bytes (the decoder's only size-dependent allocation).
    pub fn with_buffer_capacity(reader: R, capacity: usize) -> Result<Self, DecodeError> {
        let mut src = StreamSrc::new(reader, capacity);
        let version = expect_magic(&mut src)?;
        let horizon_days = get_varint_u32(&mut src)?;
        let n_drives = get_varint(&mut src)?;
        Ok(TraceDecoder {
            src,
            version,
            horizon_days,
            n_drives,
            decoded: 0,
        })
    }

    /// True when the archive uses the legacy v1 (weightless) framing; all
    /// its drives decode with log-weight `0.0`. Test-only introspection.
    #[cfg(test)]
    fn is_legacy_weightless(&self) -> bool {
        self.version == Version::V1
    }

    /// Observation-window length from the archive header.
    pub fn horizon_days(&self) -> u32 {
        self.horizon_days
    }

    /// Number of drives the header declares.
    pub fn n_drives(&self) -> u64 {
        self.n_drives
    }

    /// Number of drives decoded so far. Test-only introspection.
    #[cfg(test)]
    fn drives_decoded(&self) -> u64 {
        self.decoded
    }

    /// Absolute byte offset of the next unread archive byte. Test-only
    /// introspection.
    #[cfg(test)]
    fn byte_offset(&self) -> u64 {
        self.src.offset()
    }

    /// Decodes the next drive into `log`, reusing its buffers. Returns
    /// `Ok(false)` once all declared drives have been decoded (leaving
    /// `log` untouched).
    pub fn next_drive_into(&mut self, log: &mut DriveLog) -> Result<bool, DecodeError> {
        if self.decoded >= self.n_drives {
            return Ok(false);
        }
        decode_drive_into(&mut self.src, self.version, log)?;
        self.decoded += 1;
        Ok(true)
    }
}

/// Incremental archive writer over any [`Write`] sink: emits the trace
/// header up front, then appends drive records one at a time. Each drive
/// is serialized into an internal scratch buffer (reused between drives)
/// and flushed to the sink immediately, so peak memory is one drive
/// record regardless of archive size — the simulator's `FleetGen` builder
/// streams paper-scale archives straight to disk through this type.
///
/// The drive count is part of the header, so it must be declared at
/// construction; [`finish_sink`](TraceEncoder::finish_sink) fails (and the
/// `Vec<u8>` specialization's [`finish`](TraceEncoder::finish) panics) if
/// the number of appended drives disagrees, which turns a
/// silently-corrupt archive into a loud failure. Drives may arrive from
/// any source — owned logs ([`append_drive`]), columnar views
/// ([`append_columns`]), or pre-encoded chunks from parallel workers
/// ([`append_encoded`]) — as long as they are appended in ascending id
/// order (the decoder does not sort).
///
/// `TraceEncoder<Vec<u8>>` (the default sink) additionally offers the
/// legacy infallible API: [`new`](TraceEncoder::new),
/// [`with_capacity`](TraceEncoder::with_capacity) and
/// [`finish`](TraceEncoder::finish).
///
/// [`append_drive`]: TraceEncoder::append_drive
/// [`append_columns`]: TraceEncoder::append_columns
/// [`append_encoded`]: TraceEncoder::append_encoded
#[derive(Debug)]
pub struct TraceEncoder<W: Write = Vec<u8>> {
    sink: W,
    scratch: Vec<u8>,
    declared: u64,
    appended: u64,
    bytes_written: u64,
}

impl<W: Write> TraceEncoder<W> {
    /// Starts an archive for `n_drives` drives over `horizon_days`,
    /// writing the header to `sink` immediately.
    ///
    /// `W: Write` is implemented for `&mut W` too, so callers that need
    /// their sink back afterwards can pass `&mut sink` and ignore
    /// [`finish_sink`](TraceEncoder::finish_sink)'s return value.
    pub fn to_sink(sink: W, horizon_days: u32, n_drives: u64) -> std::io::Result<Self> {
        let mut enc = TraceEncoder {
            sink,
            scratch: Vec::with_capacity(64),
            declared: n_drives,
            appended: 0,
            bytes_written: 0,
        };
        enc.scratch.extend_from_slice(MAGIC);
        put_varint(&mut enc.scratch, u64::from(horizon_days));
        put_varint(&mut enc.scratch, n_drives);
        enc.flush_scratch()?;
        Ok(enc)
    }

    fn flush_scratch(&mut self) -> std::io::Result<()> {
        self.sink.write_all(&self.scratch)?;
        self.bytes_written += self.scratch.len() as u64;
        self.scratch.clear();
        Ok(())
    }

    /// Appends one drive from an owned log.
    pub fn append_drive(&mut self, d: &DriveLog) -> std::io::Result<()> {
        encode_drive(&mut self.scratch, d);
        self.appended += 1;
        self.flush_scratch()
    }

    /// Appends one drive from a columnar report view with the given
    /// importance-sampling log-weight (`0.0` for uniform sampling).
    pub fn append_columns(
        &mut self,
        id: DriveId,
        model: DriveModel,
        log_weight: f64,
        cols: ReportColumns<'_>,
        swaps: &[SwapEvent],
    ) -> std::io::Result<()> {
        encode_drive_soa(&mut self.scratch, id, model, log_weight, cols, swaps);
        self.appended += 1;
        self.flush_scratch()
    }

    /// Appends `n_drives` drive records already encoded by this module
    /// (e.g. a chunk produced by a parallel worker), written straight
    /// through to the sink.
    pub fn append_encoded(&mut self, n_drives: u64, bytes: &[u8]) -> std::io::Result<()> {
        self.sink.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        self.appended += n_drives;
        Ok(())
    }

    /// Number of drives appended so far. Test-only introspection.
    #[cfg(test)]
    pub fn appended_drives(&self) -> u64 {
        self.appended
    }

    /// Total bytes written to the sink so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Finalizes the archive: verifies the appended drive count matches
    /// the declared header count, flushes, and returns the sink.
    ///
    /// A count mismatch yields [`std::io::ErrorKind::InvalidData`] — the
    /// header would not match the body, so the archive on the sink is not
    /// decodable to completion.
    pub fn finish_sink(mut self) -> std::io::Result<W> {
        if self.appended != self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "TraceEncoder: declared {} drives but appended {}",
                    self.declared, self.appended
                ),
            ));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl TraceEncoder<Vec<u8>> {
    /// Starts an in-memory archive for `n_drives` drives over
    /// `horizon_days`.
    pub fn new(horizon_days: u32, n_drives: u64) -> Self {
        TraceEncoder::with_capacity(horizon_days, n_drives, 0)
    }

    /// Like [`new`](TraceEncoder::new), pre-reserving `bytes_hint` output
    /// bytes to avoid reallocation on large archives.
    pub fn with_capacity(horizon_days: u32, n_drives: u64, bytes_hint: usize) -> Self {
        let sink = Vec::with_capacity(bytes_hint.max(64));
        // lint:allow(panic-freedom) -- io::Write into a Vec<u8> is infallible
        TraceEncoder::to_sink(sink, horizon_days, n_drives).expect("Vec sink cannot fail")
    }

    /// Finalizes the in-memory archive.
    ///
    /// # Panics
    /// If the number of appended drives differs from the count declared at
    /// construction (the header would not match the body).
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(
            self.appended, self.declared,
            "TraceEncoder: declared {} drives but appended {}",
            self.declared, self.appended
        );
        self.sink
    }
}

/// Encodes a fleet trace into the compact binary format.
pub fn encode_trace(trace: &FleetTrace) -> Vec<u8> {
    // Rough pre-size: ~40 bytes per report avoids repeated reallocation.
    let mut enc = TraceEncoder::with_capacity(
        trace.horizon_days,
        trace.drives.len() as u64,
        64 + trace.total_drive_days() * 40,
    );
    for d in &trace.drives {
        // lint:allow(panic-freedom) -- io::Write into a Vec<u8> is infallible
        enc.append_drive(d).expect("Vec sink cannot fail");
    }
    enc.finish()
}

/// Streams a fleet trace into any [`Write`] sink, returning the number of
/// bytes written. The bytes are identical to [`encode_trace`]'s.
pub fn encode_trace_to<W: Write>(trace: &FleetTrace, sink: W) -> std::io::Result<u64> {
    let mut enc = TraceEncoder::to_sink(sink, trace.horizon_days, trace.drives.len() as u64)?;
    for d in &trace.drives {
        enc.append_drive(d)?;
    }
    let written = enc.bytes_written();
    enc.finish_sink()?;
    Ok(written)
}

/// Decodes a fleet trace previously produced by [`encode_trace`] (or any
/// [`TraceEncoder`]) from a fully-resident buffer. For constant-memory
/// consumption of large archives use [`TraceDecoder`] instead.
pub fn decode_trace(buf: &[u8]) -> Result<FleetTrace, DecodeError> {
    let mut src = SliceSrc::new(buf);
    let version = expect_magic(&mut src)?;
    let horizon_days = get_varint_u32(&mut src)?;
    let n_drives = get_varint(&mut src)? as usize;
    let mut drives = Vec::with_capacity(n_drives.min(1 << 22));
    for _ in 0..n_drives {
        let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        decode_drive_into(&mut src, version, &mut log)?;
        drives.push(log);
    }
    Ok(FleetTrace {
        horizon_days,
        drives,
    })
}

/// Serializes a trace to a compact JSON string (interchange / inspection).
pub fn trace_to_json(trace: &FleetTrace) -> Result<String, crate::json::JsonError> {
    Ok(crate::json::to_string(trace))
}

/// Deserializes a trace from JSON.
pub fn trace_from_json(s: &str) -> Result<FleetTrace, crate::json::JsonError> {
    crate::json::from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> FleetTrace {
        let mut t = FleetTrace::new(2190);
        for i in 0..3u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index(i as usize));
            for day in 0..5u32 {
                let mut r = DailyReport::empty(day * 2);
                r.read_ops = u64::from(day) * 1000 + u64::from(i);
                r.write_ops = u64::from(day) * 500;
                r.erase_ops = u64::from(day) * 3;
                r.pe_cycles = day * 7;
                r.status_read_only = day == 4;
                r.grown_bad_blocks = day;
                r.errors.set(ErrorKind::Correctable, u64::from(day) * 12345);
                r.errors.set(ErrorKind::Uncorrectable, u64::from(day % 2));
                d.reports.push(r);
            }
            if i == 1 {
                d.swaps.push(SwapEvent {
                    swap_day: 11,
                    reentry_day: Some(60),
                });
                d.swaps.push(SwapEvent {
                    swap_day: 90,
                    reentry_day: None,
                });
            }
            // Mixed weights so every roundtrip exercises the v2 column.
            d.log_weight = f64::from(i) * -0.35;
            t.drives.push(d);
        }
        t
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let t = sample_trace();
        let s = trace_to_json(&t).unwrap();
        let back = trace_from_json(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let t = sample_trace();
        let bin = encode_trace(&t).len();
        let json = trace_to_json(&t).unwrap().len();
        assert!(bin * 3 < json, "binary {bin} vs json {json}");
    }

    #[test]
    fn bad_magic_is_rejected_with_got_bytes() {
        let err = decode_trace(b"NOTMAGIC!!").unwrap_err();
        assert_eq!(
            err,
            DecodeError::BadMagic {
                got: b"NOTMAGIC".to_vec()
            }
        );
        assert_eq!(err.offset(), None);
        // A buffer shorter than the magic is also BadMagic, not EOF.
        let err = decode_trace(b"SSD").unwrap_err();
        assert_eq!(err, DecodeError::BadMagic { got: b"SSD".to_vec() });
    }

    #[test]
    fn truncated_buffer_is_rejected_with_offset() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let cut = &bytes[..bytes.len() - 5];
        let err = decode_trace(cut).unwrap_err();
        match err {
            DecodeError::UnexpectedEof { offset } => {
                assert_eq!(offset, cut.len() as u64, "EOF offset points at the break");
            }
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut b = SliceSrc::new(&buf);
            assert_eq!(get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_is_detected() {
        let mut b = SliceSrc::new(&[0xff; 11]);
        // Overflow is detected at the 10th byte (shift 63, byte > 1).
        assert_eq!(get_varint(&mut b), Err(DecodeError::VarintOverflow { offset: 9 }));
    }

    #[test]
    fn decode_error_display_includes_context() {
        let e = DecodeError::BadDiscriminant {
            offset: 42,
            expected: "drive model",
            got: 7,
        };
        let s = e.to_string();
        assert!(s.contains("drive model") && s.contains('7') && s.contains("42"), "{s}");
        assert_eq!(e.offset(), Some(42));
        let s = DecodeError::BadMagic { got: b"oops".to_vec() }.to_string();
        assert!(s.contains("expected"), "{s}");
    }

    /// Columns borrowed from a drive's reports, for SoA-vs-AoS comparison.
    struct Cols {
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

    impl Cols {
        fn from_reports(reports: &[DailyReport]) -> Self {
            let mut c = Cols {
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
    fn soa_encoding_matches_aos_per_drive() {
        for d in &sample_trace().drives {
            let mut aos = Vec::new();
            encode_drive(&mut aos, d);
            let cols = Cols::from_reports(&d.reports);
            let mut soa = Vec::new();
            encode_drive_soa(&mut soa, d.id, d.model, d.log_weight, cols.view(), &d.swaps);
            assert_eq!(aos, soa, "drive {:?}", d.id);
        }
    }

    #[test]
    fn trace_encoder_assembles_identical_archive() {
        let t = sample_trace();
        let expected = encode_trace(&t);

        // Mixed append paths: owned log, columnar view, pre-encoded bytes.
        let mut enc = TraceEncoder::new(t.horizon_days, t.drives.len() as u64);
        enc.append_drive(&t.drives[0]).unwrap();
        let cols = Cols::from_reports(&t.drives[1].reports);
        enc.append_columns(
            t.drives[1].id,
            t.drives[1].model,
            t.drives[1].log_weight,
            cols.view(),
            &t.drives[1].swaps,
        )
        .unwrap();
        let mut chunk = Vec::new();
        encode_drive(&mut chunk, &t.drives[2]);
        enc.append_encoded(1, &chunk).unwrap();
        assert_eq!(enc.finish(), expected);
    }

    #[test]
    #[should_panic(expected = "declared 3 drives but appended 1")]
    fn trace_encoder_panics_on_count_mismatch() {
        let t = sample_trace();
        let mut enc = TraceEncoder::new(t.horizon_days, 3);
        enc.append_drive(&t.drives[0]).unwrap();
        let _ = enc.finish();
    }

    #[test]
    fn generic_encoder_rejects_count_mismatch_as_io_error() {
        let t = sample_trace();
        let mut enc = TraceEncoder::to_sink(std::io::sink(), t.horizon_days, 3).unwrap();
        enc.append_drive(&t.drives[0]).unwrap();
        let err = enc.finish_sink().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn status_flag_masks_match_decoder() {
        let mut r = DailyReport::empty(3);
        r.status_dead = true;
        let mut buf = Vec::new();
        encode_report(&mut buf, &r);
        let back = decode_report(&mut SliceSrc::new(&buf)).unwrap();
        assert!(back.status_dead && !back.status_read_only);

        r.status_dead = false;
        r.status_read_only = true;
        buf.clear();
        encode_report(&mut buf, &r);
        let back = decode_report(&mut SliceSrc::new(&buf)).unwrap();
        assert!(!back.status_dead && back.status_read_only);
    }

    // ---- streaming paths ----

    /// A reader that hands out at most `max` bytes per read call,
    /// exercising refill boundaries in the streaming decoder.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        max: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.max).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Drains a decoder through one reused `DriveLog`, cloning each drive.
    fn drain<R: Read>(dec: &mut TraceDecoder<R>) -> Result<Vec<DriveLog>, DecodeError> {
        let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        let mut drives = Vec::new();
        while dec.next_drive_into(&mut log)? {
            drives.push(log.clone());
        }
        Ok(drives)
    }

    #[test]
    fn stream_decoder_matches_resident_decode() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        for max in [1usize, 3, 64, bytes.len()] {
            let reader = Trickle { data: &bytes, pos: 0, max };
            let mut dec = TraceDecoder::with_buffer_capacity(reader, 32).unwrap();
            assert_eq!(dec.horizon_days(), t.horizon_days);
            assert_eq!(dec.n_drives(), t.drives.len() as u64);
            let drives = drain(&mut dec).expect("stream decode");
            assert_eq!(drives, t.drives, "per-read budget {max}");
            assert_eq!(dec.drives_decoded(), t.drives.len() as u64);
            assert_eq!(dec.byte_offset(), bytes.len() as u64);
        }
    }

    #[test]
    fn stream_decoder_reports_truncation_offset() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let cut = &bytes[..bytes.len() - 5];
        let mut dec = TraceDecoder::new(cut).unwrap();
        let err = drain(&mut dec).expect_err("truncation must error");
        assert_eq!(err, DecodeError::UnexpectedEof { offset: cut.len() as u64 });
    }

    #[test]
    fn stream_decoder_rejects_bad_magic_and_short_input() {
        let err = TraceDecoder::new(&b"NOTMAGIC!!"[..]).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic { .. }));
        let err = TraceDecoder::new(&b"SS"[..]).unwrap_err();
        assert_eq!(err, DecodeError::BadMagic { got: b"SS".to_vec() });
    }

    #[test]
    fn stream_decoder_surfaces_io_errors_with_offset() {
        struct FailAfter {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "synthetic failure",
                    ));
                }
                let n = (self.data.len() - self.pos).min(buf.len()).min(7);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let half = bytes.len() / 2;
        let reader = FailAfter { data: bytes[..half].to_vec(), pos: 0 };
        let mut dec = TraceDecoder::with_buffer_capacity(reader, 16).unwrap();
        let err = drain(&mut dec).expect_err("io failure must surface");
        match err {
            DecodeError::Io { offset, kind, .. } => {
                assert_eq!(kind, std::io::ErrorKind::BrokenPipe);
                assert_eq!(offset, half as u64);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn stream_encoder_is_byte_identical_to_resident() {
        let t = sample_trace();
        let expected = encode_trace(&t);
        let mut out = Vec::new();
        let written = encode_trace_to(&t, &mut out).unwrap();
        assert_eq!(out, expected);
        assert_eq!(written, expected.len() as u64);
    }

    #[test]
    fn encoder_tracks_bytes_and_drives() {
        let t = sample_trace();
        let mut enc =
            TraceEncoder::to_sink(std::io::sink(), t.horizon_days, t.drives.len() as u64)
                .unwrap();
        for d in &t.drives {
            enc.append_drive(d).unwrap();
        }
        assert_eq!(enc.appended_drives(), t.drives.len() as u64);
        assert_eq!(enc.bytes_written(), encode_trace(&t).len() as u64);
        enc.finish_sink().unwrap();
    }

    /// Encodes `t` in the legacy v1 framing (no per-drive weight field).
    fn encode_trace_v1(t: &FleetTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V1);
        put_varint(&mut buf, u64::from(t.horizon_days));
        put_varint(&mut buf, t.drives.len() as u64);
        for d in &t.drives {
            put_varint(&mut buf, u64::from(d.id.0));
            buf.push(d.model.index() as u8);
            put_varint(&mut buf, d.reports.len() as u64);
            for r in &d.reports {
                encode_report(&mut buf, r);
            }
            encode_swaps(&mut buf, &d.swaps);
        }
        buf
    }

    #[test]
    fn legacy_v1_archives_decode_with_zero_weights() {
        let t = sample_trace();
        let v1 = encode_trace_v1(&t);
        // Resident path.
        let back = decode_trace(&v1).unwrap();
        assert!(back.drives.iter().all(|d| d.log_weight.to_bits() == 0));
        let mut expected = t.clone();
        for d in &mut expected.drives {
            d.log_weight = 0.0;
        }
        assert_eq!(back, expected);
        // Streaming path.
        let mut dec = TraceDecoder::new(&v1[..]).unwrap();
        assert!(dec.is_legacy_weightless());
        assert_eq!(drain(&mut dec).unwrap(), expected.drives);
        // Current-format archives are not flagged legacy.
        let v2 = encode_trace(&t);
        assert!(!TraceDecoder::new(&v2[..]).unwrap().is_legacy_weightless());
    }

    #[test]
    fn mutated_weighted_and_legacy_archives_never_panic() {
        // Decode fuzz over BOTH framings: truncations at every prefix
        // length and deterministic byte flips must yield Ok or a typed
        // DecodeError — never a panic — whether the bytes started as a
        // weighted v2 archive or a legacy weightless v1 one.
        let t = sample_trace();
        let mut s = 0x243f6a8885a308d3u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for archive in [encode_trace(&t), encode_trace_v1(&t)] {
            for cut in 0..archive.len() {
                let _ = decode_trace(&archive[..cut]);
            }
            for _ in 0..256 {
                let mut bytes = archive.clone();
                for _ in 0..(next() % 4 + 1) {
                    let at = (next() % bytes.len() as u64) as usize;
                    bytes[at] ^= (next() as u8) | 1;
                }
                if let Ok(back) = decode_trace(&bytes) {
                    // Whatever decoded must also survive a re-encode.
                    let _ = encode_trace(&back);
                }
            }
        }
    }

    #[test]
    fn weight_column_roundtrips_arbitrary_bit_patterns() {
        // Deterministic xorshift so the fuzz corpus is stable.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = FleetTrace::new(100);
        for i in 0..64u32 {
            let mut d = DriveLog::new(DriveId(i), DriveModel::from_index((i % 3) as usize));
            d.reports.push(DailyReport::empty(i));
            // Arbitrary bit patterns: subnormals, negatives, huge values —
            // the codec must preserve bits exactly (NaNs excluded only
            // because PartialEq can't compare them; bits are asserted).
            d.log_weight = f64::from_bits(next());
            if d.log_weight.is_nan() {
                d.log_weight = -f64::from_bits(next() >> 12);
            }
            t.drives.push(d);
        }
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        for (a, b) in back.drives.iter().zip(&t.drives) {
            assert_eq!(a.log_weight.to_bits(), b.log_weight.to_bits());
        }
    }

    #[test]
    fn trailing_bytes_after_declared_drives_are_ignored() {
        let t = sample_trace();
        let mut bytes = encode_trace(&t);
        bytes.extend_from_slice(b"trailing junk");
        assert_eq!(decode_trace(&bytes).unwrap(), t);
        let mut dec = TraceDecoder::new(&bytes[..]).unwrap();
        assert_eq!(drain(&mut dec).unwrap(), t.drives);
    }
}
