//! Durable, append-only event log with crash recovery and cursor-based
//! replay — the broker-side half of the catch-up protocol (DESIGN.md
//! §16).
//!
//! The log stores *already-encoded* event bytes: the same
//! ciphertext-plus-routing-tokens wire encoding that a `Publish` frame
//! carries. Because the broker is honest-but-curious and never holds
//! plaintext, the log is encrypted-at-rest for free — a compromised
//! disk leaks exactly what a compromised broker already could. This
//! module deliberately never names or decodes the event type; payloads
//! are opaque `&[u8]`, an invariant enforced by the `ciphertext-at-rest`
//! xtask rule.
//!
//! Layout: a directory of `seg-<base>.psl` segment files (the
//! `segment` submodule), each a fixed header followed by CRC-protected
//! records `[len ‖ crc ‖ epoch ‖ seq ‖ payload]` (`record`). Appends go
//! to the newest segment; segments roll at a size threshold and the
//! oldest are deleted past a retention cap (compaction). Reopening
//! scans every segment, truncates any torn tail, and resumes at the
//! recovered high-water mark — a crash mid-append costs exactly the
//! record being written.
//!
//! Replay: a subscriber's `(epoch, seq)` [`Cursor`] names the last
//! event it applied; [`EventLog::catch_up_from`] classifies the resume
//! ([`ResumeOutcome`]) and yields a [`ReplayCursor`] that
//! [`EventLog::replay_next`] advances in bounded batches, so the
//! dispatcher interleaves replay with live fan-out. Compaction racing
//! an active replay is detected via a generation counter: the cursor
//! re-seeks (never reads freed bytes) and records that its gap grew.
//!
//! Chaos: [`EventLog::open_with_faults`] wires the
//! [`psguard_net::FaultPlan`] disk axis (torn writes, short reads,
//! fsync failures) into every disk touch, so recovery is tested under
//! seeded fault plans like every other layer.

mod record;
mod segment;

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use psguard_net::FaultPlan;

use record::{
    crc32, encode_record, parse_body, parse_header, BODY_PREFIX_LEN, MAX_BODY_LEN,
    RECORD_HEADER_LEN,
};
use segment::{
    encode_header, file_name, list_bases, scan_and_repair, LogSegment, SEGMENT_HEADER_LEN,
    SPARSE_INDEX_EVERY,
};

/// Configuration for one [`EventLog`] directory.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Epoch stamped into a *freshly created* log. Reopening an
    /// existing log keeps the epoch recorded on disk; bump this when
    /// provisioning a new log directory for an existing deployment so
    /// stale cursors resolve to [`ResumeOutcome::FreshStart`].
    pub epoch: u32,
    /// Roll to a new segment once the active one would exceed this many
    /// bytes (a single over-sized record still gets its own segment).
    pub segment_max_bytes: u64,
    /// Retention cap: oldest segments are deleted so at most this many
    /// remain. Minimum 1.
    pub max_segments: usize,
    /// Fsync after every append. Off by default (the bench measures the
    /// difference); recovery correctness only depends on record CRCs.
    pub fsync_on_append: bool,
    /// Records one [`EventLog::replay_next`] call may return — the
    /// dispatcher's per-tick replay budget, keeping live fan-out ahead
    /// of catch-up traffic.
    pub replay_budget: usize,
}

impl LogConfig {
    /// A config with defaults suitable for tests and the bench: 4 MiB
    /// segments, 8 retained, no per-append fsync, 256-record replay
    /// budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig {
            dir: dir.into(),
            epoch: 1,
            segment_max_bytes: 4 << 20,
            max_segments: 8,
            fsync_on_append: false,
            replay_budget: 256,
        }
    }
}

/// A subscriber's position in the log: the last `(epoch, seq)` it
/// applied. `seq` 0 means "nothing yet" (sequence numbers start at 1).
/// Ordering is lexicographic on `(epoch, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cursor {
    /// Log-stream identity; cursors from another epoch cannot resume.
    pub epoch: u32,
    /// Seq of the last applied record (0 = none).
    pub seq: u64,
}

/// What a reconnecting subscriber's cursor resolved to — surfaced to
/// the application instead of the previous indistinguishable silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// Every event after the cursor is retained; replay closes the gap
    /// completely.
    ContinuedAtCursor,
    /// Retention (or compaction racing the replay) deleted part of the
    /// gap; replay starts at the retention floor and earlier events are
    /// gone.
    GapTruncatedByRetention,
    /// The cursor names another epoch or lies beyond the log's
    /// high-water mark; no history applies, delivery restarts live.
    FreshStart,
}

impl ResumeOutcome {
    /// Wire code for the outcome (carried in `ReplayDone`).
    pub fn code(self) -> u8 {
        match self {
            ResumeOutcome::ContinuedAtCursor => 0,
            ResumeOutcome::GapTruncatedByRetention => 1,
            ResumeOutcome::FreshStart => 2,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ResumeOutcome::ContinuedAtCursor),
            1 => Some(ResumeOutcome::GapTruncatedByRetention),
            2 => Some(ResumeOutcome::FreshStart),
            _ => None,
        }
    }
}

/// Typed failures of the durable log.
#[derive(Debug)]
pub enum LogError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk state violated a format invariant mid-operation.
    Corrupt(&'static str),
    /// Injected fault: the append was torn mid-record (simulated
    /// crash); the record is not durable and the log is poisoned.
    TornWrite,
    /// Injected fault: fsync reported failure; the record is not
    /// durable and the log is poisoned.
    FsyncFailed,
    /// Injected fault: a replay read came back short; retry the pump.
    ShortRead,
    /// An earlier write failure poisoned the log; reopen to recover.
    Poisoned,
    /// The payload exceeds the maximum record body.
    PayloadTooLarge,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::Corrupt(m) => write!(f, "log corrupt: {m}"),
            LogError::TornWrite => write!(f, "append torn mid-record (simulated crash)"),
            LogError::FsyncFailed => write!(f, "fsync failed; record not durable"),
            LogError::ShortRead => write!(f, "replay read returned short"),
            LogError::Poisoned => write!(f, "log poisoned by an earlier write failure"),
            LogError::PayloadTooLarge => write!(f, "payload exceeds maximum record body"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// What reopening a log directory found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments retained after repair.
    pub segments: usize,
    /// Valid records across all retained segments.
    pub records: u64,
    /// Bytes discarded as torn or corrupt (tail truncation plus any
    /// unreachable later segments).
    pub truncated_bytes: u64,
    /// Recovered high-water mark; appends resume at `seq + 1`.
    pub high_water: Cursor,
}

/// Counters describing a log's activity since open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records successfully appended.
    pub appends: u64,
    /// Bytes those records occupy on disk (headers included).
    pub bytes_appended: u64,
    /// Segments created (including the first).
    pub segments_created: u64,
    /// Segments deleted by retention.
    pub segments_evicted: u64,
    /// Records handed out by replay.
    pub replayed_records: u64,
}

/// A replaying subscriber's progress through the log. Holds no OS
/// resources — just a seq, a byte position, and the compaction
/// generation it was valid for, so a cursor survives any interleaving
/// of appends, rolls, and compactions (re-seeking when its segment was
/// deleted underneath it).
#[derive(Debug, Clone)]
pub struct ReplayCursor {
    next_seq: u64,
    seg_base: u64,
    offset: u64,
    generation: u64,
    truncated: bool,
}

impl ReplayCursor {
    /// Seq of the next record this cursor will yield.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether compaction deleted part of the gap after replay started
    /// (the caller should report [`ResumeOutcome::GapTruncatedByRetention`]).
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

/// The append-only durable event log. Single-owner (the dispatcher
/// thread); all methods take `&mut self` or `&self`, no interior
/// locking.
#[derive(Debug)]
pub struct EventLog {
    cfg: LogConfig,
    epoch: u32,
    /// Seq the next append receives (high-water + 1; starts at 1).
    next_seq: u64,
    segments: Vec<LogSegment>,
    /// Open handle to the newest segment, positioned at its end.
    active: Option<File>,
    /// Reusable record-encode buffer.
    scratch: Vec<u8>,
    /// Bumped whenever compaction deletes a segment; replay cursors
    /// from older generations must re-seek.
    generation: u64,
    /// Set on any write-path failure: appends and replays stop until
    /// the log is reopened (which re-runs recovery).
    poisoned: bool,
    faults: Option<FaultPlan>,
    stats: LogStats,
}

impl EventLog {
    /// Opens (creating if needed) the log at `cfg.dir`, running the
    /// recovery scan: every segment is validated, torn tails truncated,
    /// and unreachable later segments deleted.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when the directory or a segment cannot be read
    /// or repaired.
    pub fn open(cfg: LogConfig) -> Result<(Self, RecoveryReport), LogError> {
        Self::open_inner(cfg, None)
    }

    /// Like [`EventLog::open`], with the plan's disk-fault axis wired
    /// into every subsequent disk touch (torn appends, short replay
    /// reads, fsync failures) — the chaos-test entry point.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when the directory or a segment cannot be read
    /// or repaired.
    // DEAD-PUB-OK: fault seam for the log-recovery tests
    pub fn open_with_faults(
        cfg: LogConfig,
        faults: FaultPlan,
    ) -> Result<(Self, RecoveryReport), LogError> {
        Self::open_inner(cfg, Some(faults))
    }

    fn open_inner(
        cfg: LogConfig,
        faults: Option<FaultPlan>,
    ) -> Result<(Self, RecoveryReport), LogError> {
        fs::create_dir_all(&cfg.dir)?;
        let bases = list_bases(&cfg.dir)?;
        let mut segments: Vec<LogSegment> = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut records = 0u64;
        let mut epoch: Option<u32> = None;
        let mut expect_base: Option<u64> = None;
        let mut drop_rest = false;
        for base in bases {
            let path = cfg.dir.join(file_name(base));
            if drop_rest || expect_base.is_some_and(|e| e != base) {
                // Unreachable past a torn tail or a seq gap: discard.
                drop_rest = true;
                truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)?;
                continue;
            }
            match scan_and_repair(&path, base, epoch)? {
                None => {
                    drop_rest = true;
                    truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    fs::remove_file(&path)?;
                }
                Some(scan) => {
                    epoch = Some(scan.epoch);
                    truncated_bytes += scan.truncated_bytes;
                    records += scan.records;
                    expect_base = Some(scan.last_seq + 1);
                    if scan.truncated_bytes > 0 {
                        drop_rest = true;
                    }
                    segments.push(LogSegment {
                        base,
                        last_seq: scan.last_seq,
                        len: scan.len,
                        path,
                        index: scan.index,
                    });
                }
            }
        }
        let epoch = epoch.unwrap_or(cfg.epoch.max(1));
        let next_seq = segments.last().map_or(1, |s| s.last_seq + 1);
        let report = RecoveryReport {
            segments: segments.len(),
            records,
            truncated_bytes,
            high_water: Cursor {
                epoch,
                seq: next_seq - 1,
            },
        };
        Ok((
            EventLog {
                cfg,
                epoch,
                next_seq,
                segments,
                active: None,
                scratch: Vec::new(),
                generation: 1,
                poisoned: false,
                faults,
                stats: LogStats::default(),
            },
            report,
        ))
    }

    /// The log's epoch (stamped into every record and cursor).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The last durable cursor: `(epoch, seq-of-last-record)`, seq 0
    /// when the log is empty.
    pub fn high_water(&self) -> Cursor {
        Cursor {
            epoch: self.epoch,
            seq: self.next_seq - 1,
        }
    }

    /// Oldest seq still retained (equals the next append's seq when the
    /// log holds nothing).
    pub fn floor_seq(&self) -> u64 {
        self.segments.first().map_or(self.next_seq, |s| s.base)
    }

    /// Whether a write-path failure has poisoned the log (reopen to
    /// recover).
    // DEAD-PUB-OK: observer of write-path poisoning (log_recovery.rs)
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Activity counters since open.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// The configured per-pump replay budget.
    pub fn replay_budget(&self) -> usize {
        self.cfg.replay_budget.max(1)
    }

    /// Appends one already-encoded event payload, returning its durable
    /// cursor.
    ///
    /// # Errors
    ///
    /// [`LogError::Poisoned`] after any earlier write failure;
    /// [`LogError::PayloadTooLarge`] for over-sized payloads;
    /// [`LogError::TornWrite`] / [`LogError::FsyncFailed`] for injected
    /// disk faults (the record is not durable and the log poisons
    /// itself — the caller falls back to live-only delivery);
    /// [`LogError::Io`] for real filesystem failures (also poisoning).
    pub fn append(&mut self, payload: &[u8]) -> Result<Cursor, LogError> {
        if self.poisoned {
            return Err(LogError::Poisoned);
        }
        if payload.len() > MAX_BODY_LEN - BODY_PREFIX_LEN {
            return Err(LogError::PayloadTooLarge);
        }
        let seq = self.next_seq;
        encode_record(&mut self.scratch, self.epoch, seq, payload);
        let rec_len = self.scratch.len() as u64;

        let fits = self
            .segments
            .last()
            .is_some_and(|seg| seg.len + rec_len <= self.cfg.segment_max_bytes);
        if !fits {
            if let Err(e) = self.roll_to(seq) {
                self.poisoned = true;
                return Err(e);
            }
        } else if self.active.is_none() {
            // Reopened log: continue appending to the recovered tail
            // segment (append mode positions at its repaired end).
            if let Some(seg) = self.segments.last() {
                match OpenOptions::new().append(true).open(&seg.path) {
                    Ok(f) => self.active = Some(f),
                    Err(e) => {
                        self.poisoned = true;
                        return Err(LogError::Io(e));
                    }
                }
            }
        }

        let Some(file) = self.active.as_mut() else {
            self.poisoned = true;
            return Err(LogError::Corrupt("no active segment after roll"));
        };
        if let Some(plan) = self.faults.as_mut() {
            if let Some(torn) = plan.disk_torn_write(self.scratch.len()) {
                // Simulated crash: a strict prefix reaches the disk.
                let _ = file.write_all(self.scratch.get(..torn).unwrap_or(&[]));
                let _ = file.sync_data();
                self.poisoned = true;
                return Err(LogError::TornWrite);
            }
        }
        if let Err(e) = file.write_all(&self.scratch) {
            self.poisoned = true;
            return Err(LogError::Io(e));
        }
        if self.cfg.fsync_on_append {
            if self.faults.as_mut().is_some_and(|p| p.disk_fsync_fails()) {
                self.poisoned = true;
                return Err(LogError::FsyncFailed);
            }
            if let Err(e) = file.sync_data() {
                self.poisoned = true;
                return Err(LogError::Io(e));
            }
        }

        if let Some(seg) = self.segments.last_mut() {
            if (seq - seg.base).is_multiple_of(SPARSE_INDEX_EVERY) {
                // `seg.len` is still the record's start offset here.
                seg.index.push((seq, seg.len));
            }
            seg.len += rec_len;
            seg.last_seq = seq;
        }
        self.next_seq = seq + 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += rec_len;
        Ok(Cursor {
            epoch: self.epoch,
            seq,
        })
    }

    /// Flushes the active segment to disk (no-op when nothing is open).
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when fsync fails.
    pub fn sync(&mut self) -> Result<(), LogError> {
        if let Some(file) = self.active.as_mut() {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Starts a new segment based at `base`, evicting the oldest
    /// segments past the retention cap first.
    fn roll_to(&mut self, base: u64) -> Result<(), LogError> {
        self.active = None;
        let max = self.cfg.max_segments.max(1);
        while self.segments.len() >= max {
            let seg = self.segments.remove(0);
            fs::remove_file(&seg.path)?;
            self.generation += 1;
            self.stats.segments_evicted += 1;
        }
        let path = self.cfg.dir.join(file_name(base));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&encode_header(self.epoch, base))?;
        self.segments.push(LogSegment {
            base,
            last_seq: base - 1, // zero records yet
            len: SEGMENT_HEADER_LEN as u64,
            path,
            index: Vec::new(),
        });
        self.active = Some(file);
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Classifies a reconnecting subscriber's cursor and returns the
    /// replay cursor to drive: continue right after it, restart at the
    /// retention floor, or (epoch mismatch / future seq) replay nothing.
    pub fn catch_up_from(&self, cursor: Cursor) -> (ResumeOutcome, ReplayCursor) {
        let hwm = self.next_seq - 1;
        if cursor.epoch != self.epoch || cursor.seq > hwm {
            (ResumeOutcome::FreshStart, self.replay_cursor(self.next_seq))
        } else if cursor.seq + 1 < self.floor_seq() {
            (
                ResumeOutcome::GapTruncatedByRetention,
                self.replay_cursor(self.floor_seq()),
            )
        } else {
            (
                ResumeOutcome::ContinuedAtCursor,
                self.replay_cursor(cursor.seq + 1),
            )
        }
    }

    /// A replay cursor positioned before `from_seq` (clamped to the
    /// retention floor on first use).
    pub fn replay_cursor(&self, from_seq: u64) -> ReplayCursor {
        ReplayCursor {
            next_seq: from_seq,
            seg_base: 0,
            offset: 0,
            generation: 0, // forces a seek on first pump
            truncated: false,
        }
    }

    /// Reads up to `budget` records at the cursor into `out` as
    /// `(cursor, payload)` pairs, advancing it. Returns whether more
    /// records remain. Compaction since the last pump makes the cursor
    /// re-seek (marking it truncated when records it still needed are
    /// gone); records appended since the last pump are picked up
    /// naturally.
    ///
    /// # Errors
    ///
    /// [`LogError::Poisoned`] on a poisoned log;
    /// [`LogError::ShortRead`] for an injected transient read fault
    /// (the cursor is unchanged — retry the pump); [`LogError::Io`] /
    /// [`LogError::Corrupt`] for real failures.
    pub fn replay_next(
        &mut self,
        cur: &mut ReplayCursor,
        budget: usize,
        out: &mut Vec<(Cursor, Vec<u8>)>,
    ) -> Result<bool, LogError> {
        if self.poisoned {
            return Err(LogError::Poisoned);
        }
        if cur.next_seq >= self.next_seq {
            return Ok(false);
        }
        if let Some(plan) = self.faults.as_mut() {
            if plan.disk_short_read() {
                return Err(LogError::ShortRead);
            }
        }
        if cur.generation != self.generation {
            self.reseek(cur)?;
        }
        let mut remaining = budget.max(1);
        while remaining > 0 && cur.next_seq < self.next_seq {
            let Some(seg) = self.segments.iter().find(|s| s.base == cur.seg_base) else {
                return Err(LogError::Corrupt("replay lost its segment"));
            };
            if cur.offset >= seg.len {
                // This segment is exhausted; records remain, so the
                // next contiguous segment must exist.
                let next_base = seg.last_seq + 1;
                if !self.segments.iter().any(|s| s.base == next_base) {
                    return Err(LogError::Corrupt("segment chain broken during replay"));
                }
                cur.seg_base = next_base;
                cur.offset = SEGMENT_HEADER_LEN as u64;
                continue;
            }
            let path = seg.path.clone();
            let seg_len = seg.len;
            let n = Self::read_segment(&path, seg_len, self.next_seq, cur, remaining, out)?;
            remaining -= n;
            self.stats.replayed_records += n as u64;
        }
        Ok(cur.next_seq < self.next_seq)
    }

    /// Re-positions `cur` after a compaction (or on first use): clamps
    /// to the retention floor, binary-searches the segment's sparse
    /// seq→offset index for the sampled record at or before the target,
    /// and scans at most [`SPARSE_INDEX_EVERY`] record headers forward
    /// from there — instead of scanning from the segment base.
    fn reseek(&self, cur: &mut ReplayCursor) -> Result<(), LogError> {
        let floor = self.floor_seq();
        if cur.next_seq < floor {
            cur.next_seq = floor;
            cur.truncated = true;
        }
        cur.generation = self.generation;
        let Some(seg) = self
            .segments
            .iter()
            .rev()
            .find(|s| s.base <= cur.next_seq && cur.next_seq <= s.last_seq)
        else {
            // Fully caught up (next_seq == high-water + 1) or empty log.
            cur.seg_base = cur.next_seq;
            cur.offset = SEGMENT_HEADER_LEN as u64;
            return Ok(());
        };
        // Start at the closest sampled record at or before the target;
        // an exact hit makes the forward scan a no-op.
        let (mut seq, mut off) = match seg.index.binary_search_by_key(&cur.next_seq, |&(s, _)| s) {
            Ok(i) => seg.index[i],
            Err(0) => (seg.base, SEGMENT_HEADER_LEN as u64),
            Err(i) => seg.index[i - 1],
        };
        let file = File::open(&seg.path)?;
        let mut reader = BufReader::with_capacity(16 << 10, file);
        reader.seek(SeekFrom::Start(off))?;
        while seq < cur.next_seq {
            let mut h = [0u8; RECORD_HEADER_LEN];
            reader.read_exact(&mut h)?;
            let (body_len, _) = parse_header(h);
            if !(BODY_PREFIX_LEN..=MAX_BODY_LEN).contains(&body_len) {
                return Err(LogError::Corrupt("bad record length during seek"));
            }
            reader.seek_relative(body_len as i64)?;
            off += (RECORD_HEADER_LEN + body_len) as u64;
            seq += 1;
        }
        cur.seg_base = seg.base;
        cur.offset = off;
        Ok(())
    }

    /// Sequentially reads up to `max` records from one segment file,
    /// stopping at the segment's valid length or the log's high-water
    /// mark.
    fn read_segment(
        path: &Path,
        seg_len: u64,
        hwm_next: u64,
        cur: &mut ReplayCursor,
        max: usize,
        out: &mut Vec<(Cursor, Vec<u8>)>,
    ) -> Result<usize, LogError> {
        let file = File::open(path)?;
        let mut reader = BufReader::with_capacity(64 << 10, file);
        reader.seek(SeekFrom::Start(cur.offset))?;
        let mut n = 0;
        while n < max && cur.next_seq < hwm_next && cur.offset < seg_len {
            let mut h = [0u8; RECORD_HEADER_LEN];
            reader.read_exact(&mut h)?;
            let (body_len, crc) = parse_header(h);
            if !(BODY_PREFIX_LEN..=MAX_BODY_LEN).contains(&body_len) {
                return Err(LogError::Corrupt("bad record length during replay"));
            }
            let mut body = vec![0u8; body_len];
            reader.read_exact(&mut body)?;
            if crc32(&body) != crc {
                return Err(LogError::Corrupt("CRC mismatch during replay"));
            }
            let Some((epoch, seq, payload)) = parse_body(&body) else {
                return Err(LogError::Corrupt("record body too short during replay"));
            };
            if seq != cur.next_seq {
                return Err(LogError::Corrupt("seq discontinuity during replay"));
            }
            out.push((Cursor { epoch, seq }, payload.to_vec()));
            cur.offset += (RECORD_HEADER_LEN + body_len) as u64;
            cur.next_seq += 1;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("psguard-log-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        // Opaque bytes standing in for ciphertext + tokens.
        let mut p = vec![0xC5; 40];
        p.extend_from_slice(&i.to_be_bytes());
        p
    }

    fn drain(log: &mut EventLog, cur: &mut ReplayCursor) -> Vec<(Cursor, Vec<u8>)> {
        let mut out = Vec::new();
        while log.replay_next(cur, 7, &mut out).unwrap() {}
        out
    }

    #[test]
    fn append_replay_roundtrip_and_reopen_continuity() {
        let dir = tmp("roundtrip");
        let (mut log, rep) = EventLog::open(LogConfig::new(&dir)).unwrap();
        assert_eq!(rep.records, 0);
        assert_eq!(log.high_water().seq, 0);
        for i in 1..=20u64 {
            let c = log.append(&payload(i)).unwrap();
            assert_eq!(c.seq, i);
        }
        assert_eq!(log.high_water().seq, 20);

        let mut cur = log.replay_cursor(1);
        let got = drain(&mut log, &mut cur);
        assert_eq!(got.len(), 20);
        for (i, (c, p)) in got.iter().enumerate() {
            assert_eq!(c.seq, i as u64 + 1);
            assert_eq!(p, &payload(i as u64 + 1));
        }

        drop(log);
        let (mut log, rep) = EventLog::open(LogConfig::new(&dir)).unwrap();
        assert_eq!(rep.records, 20);
        assert_eq!(rep.high_water.seq, 20);
        assert_eq!(rep.truncated_bytes, 0);
        let c = log.append(&payload(21)).unwrap();
        assert_eq!(c.seq, 21, "appends resume at recovered high-water + 1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_retention_evicts() {
        let dir = tmp("retention");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_max_bytes = 200; // a few records per segment
        cfg.max_segments = 3;
        let (mut log, _) = EventLog::open(cfg).unwrap();
        for i in 1..=40u64 {
            log.append(&payload(i)).unwrap();
        }
        let stats = log.stats();
        assert!(stats.segments_created > 3, "{stats:?}");
        assert!(stats.segments_evicted > 0, "{stats:?}");
        assert!(log.floor_seq() > 1, "retention must raise the floor");
        assert_eq!(log.high_water().seq, 40);

        // A cursor before the floor resolves to a truncated-gap resume.
        let (outcome, mut cur) = log.catch_up_from(Cursor {
            epoch: log.epoch(),
            seq: 0,
        });
        assert_eq!(outcome, ResumeOutcome::GapTruncatedByRetention);
        let got = drain(&mut log, &mut cur);
        assert_eq!(got.first().unwrap().0.seq, log.floor_seq());
        assert_eq!(got.last().unwrap().0.seq, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn catch_up_classification() {
        let dir = tmp("classify");
        let (mut log, _) = EventLog::open(LogConfig::new(&dir)).unwrap();
        for i in 1..=5u64 {
            log.append(&payload(i)).unwrap();
        }
        let epoch = log.epoch();
        let (o, cur) = log.catch_up_from(Cursor { epoch, seq: 3 });
        assert_eq!(o, ResumeOutcome::ContinuedAtCursor);
        assert_eq!(cur.next_seq(), 4);
        let (o, _) = log.catch_up_from(Cursor { epoch, seq: 5 });
        assert_eq!(
            o,
            ResumeOutcome::ContinuedAtCursor,
            "caught-up cursor continues"
        );
        let (o, _) = log.catch_up_from(Cursor { epoch, seq: 9 });
        assert_eq!(o, ResumeOutcome::FreshStart, "future cursor cannot resume");
        let (o, _) = log.catch_up_from(Cursor {
            epoch: epoch + 1,
            seq: 2,
        });
        assert_eq!(o, ResumeOutcome::FreshStart, "other epoch cannot resume");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_racing_replay_reseeks_and_reports_truncation() {
        let dir = tmp("race");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_max_bytes = 200;
        cfg.max_segments = 2;
        let (mut log, _) = EventLog::open(cfg).unwrap();
        for i in 1..=8u64 {
            log.append(&payload(i)).unwrap();
        }
        let floor = log.floor_seq();
        let (_, mut cur) = log.catch_up_from(Cursor {
            epoch: log.epoch(),
            seq: floor - 1,
        });
        let mut out = Vec::new();
        assert!(log.replay_next(&mut cur, 1, &mut out).unwrap());
        // Append enough to evict the segment the cursor sits in.
        for i in 9..=40u64 {
            log.append(&payload(i)).unwrap();
        }
        assert!(log.floor_seq() > cur.next_seq());
        while log.replay_next(&mut cur, 4, &mut out).unwrap() {}
        assert!(cur.truncated(), "cursor must notice its gap grew");
        // Whatever was delivered is contiguous up to the high-water mark.
        let last = out.last().unwrap().0.seq;
        assert_eq!(last, 40);
        for w in out.windows(2) {
            assert!(w[1].0.seq == w[0].0.seq + 1 || w[1].0.seq >= log.floor_seq());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_poisons_and_reopen_truncates() {
        use psguard_net::DiskFaults;
        let dir = tmp("torn");
        let plan = FaultPlan::new(3).with_disk_faults(DiskFaults {
            torn_write_p: 1.0,
            short_read_p: 0.0,
            fsync_fail_p: 0.0,
        });
        let (mut log, _) = EventLog::open(LogConfig::new(&dir)).unwrap();
        for i in 1..=4u64 {
            log.append(&payload(i)).unwrap();
        }
        drop(log);
        let (mut log, _) = EventLog::open_with_faults(LogConfig::new(&dir), plan).unwrap();
        assert!(matches!(log.append(&payload(5)), Err(LogError::TornWrite)));
        assert!(log.is_poisoned());
        assert!(matches!(log.append(&payload(5)), Err(LogError::Poisoned)));
        drop(log);
        let (log, rep) = EventLog::open(LogConfig::new(&dir)).unwrap();
        assert_eq!(rep.high_water.seq, 4, "torn tail truncated, prefix intact");
        assert!(rep.truncated_bytes > 0 || rep.records == 4);
        assert!(!log.is_poisoned());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_reads_are_transient_and_retryable() {
        use psguard_net::DiskFaults;
        let dir = tmp("shortread");
        let (mut log, _) = EventLog::open(LogConfig::new(&dir)).unwrap();
        for i in 1..=10u64 {
            log.append(&payload(i)).unwrap();
        }
        drop(log);
        let plan = FaultPlan::new(5).with_disk_faults(DiskFaults {
            torn_write_p: 0.0,
            short_read_p: 0.5,
            fsync_fail_p: 0.0,
        });
        let (mut log, _) = EventLog::open_with_faults(LogConfig::new(&dir), plan).unwrap();
        let mut cur = log.replay_cursor(1);
        let mut out = Vec::new();
        let mut retries = 0;
        loop {
            match log.replay_next(&mut cur, 3, &mut out) {
                Ok(true) => {}
                Ok(false) => break,
                Err(LogError::ShortRead) => retries += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(retries < 1000, "short reads must not livelock");
        }
        assert!(retries > 0, "p=0.5 must fire at least once");
        assert_eq!(out.len(), 10, "retries converge to full replay");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Reference seek: the pre-index algorithm, scanning record headers
    /// from the segment base.
    fn seek_by_scan(log: &EventLog, target: u64) -> (u64, u64) {
        let seg = log
            .segments
            .iter()
            .rev()
            .find(|s| s.base <= target && target <= s.last_seq)
            .expect("target in range");
        let data = fs::read(&seg.path).unwrap();
        let mut off = SEGMENT_HEADER_LEN;
        let mut seq = seg.base;
        while seq < target {
            let mut h = [0u8; RECORD_HEADER_LEN];
            h.copy_from_slice(&data[off..off + RECORD_HEADER_LEN]);
            let (body_len, _) = parse_header(h);
            off += RECORD_HEADER_LEN + body_len;
            seq += 1;
        }
        (seg.base, off as u64)
    }

    #[test]
    fn sparse_index_seek_equals_scan() {
        let dir = tmp("sparseseek");
        let mut cfg = LogConfig::new(&dir);
        cfg.segment_max_bytes = 8 << 10; // several segments, >32 recs each
        let (mut log, _) = EventLog::open(cfg.clone()).unwrap();
        // Variable-length payloads so record offsets are non-uniform.
        for i in 1..=300u64 {
            let mut p = payload(i);
            p.resize(40 + (i as usize * 13) % 90, 0xAB);
            log.append(&p).unwrap();
        }
        assert!(log.segments.len() > 1, "need multiple segments");
        assert!(
            log.segments.iter().all(|s| !s.index.is_empty()),
            "every segment samples its sparse index"
        );
        for target in 1..=300u64 {
            let mut cur = log.replay_cursor(target);
            log.reseek(&mut cur).unwrap();
            let (base, off) = seek_by_scan(&log, target);
            assert_eq!((cur.seg_base, cur.offset), (base, off), "seq {target}");
            // And the seek actually replays the right record first.
            let mut out = Vec::new();
            log.replay_next(&mut cur, 1, &mut out).unwrap();
            assert_eq!(out[0].0.seq, target);
        }

        // Recovery rebuilds the identical sparse index from disk.
        let before: Vec<_> = log
            .segments
            .iter()
            .map(|s| (s.base, s.index.clone()))
            .collect();
        drop(log);
        let (log, _) = EventLog::open(cfg).unwrap();
        let after: Vec<_> = log
            .segments
            .iter()
            .map(|s| (s.base, s.index.clone()))
            .collect();
        assert_eq!(before, after, "scan_and_repair rebuilds the same index");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_log_uses_config_epoch_and_reopen_keeps_disk_epoch() {
        let dir = tmp("epoch");
        let mut cfg = LogConfig::new(&dir);
        cfg.epoch = 7;
        let (mut log, _) = EventLog::open(cfg).unwrap();
        assert_eq!(log.epoch(), 7);
        log.append(&payload(1)).unwrap();
        drop(log);
        let mut cfg = LogConfig::new(&dir);
        cfg.epoch = 9; // ignored: disk already says 7
        let (log, rep) = EventLog::open(cfg).unwrap();
        assert_eq!(log.epoch(), 7);
        assert_eq!(rep.high_water, Cursor { epoch: 7, seq: 1 });
        let _ = fs::remove_dir_all(&dir);
    }
}
