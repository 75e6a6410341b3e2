//! Segmented, CRC-framed write-ahead log of weighted update batches.
//!
//! ## On-disk layout
//!
//! The log is a sequence of segment files `wal-<seq>.seg` (16-digit
//! decimal `seq`, starting at 1) in the store directory. Each segment is:
//!
//! ```text
//! [ magic "SFWL" | version u8 | reserved ×3 ]          8-byte header
//! [ frame ]*
//! ```
//!
//! and each frame is:
//!
//! ```text
//! [ payload_len u32le | crc32c(payload) u32le | payload ]
//! ```
//!
//! The payload encoding is set by the segment header's version byte.
//! Version 2 (current) is compact varints with a per-shard stream tag,
//! so one log can carry every shard of a store:
//!
//! ```text
//! [ stream varint | epoch varint | count varint
//!   | count × (item compact | weight varint) ]
//! ```
//!
//! Version 1 (the pre-shared-log format, still readable) is fixed-width
//! little-endian with no stream tag (all records decode as stream 0):
//!
//! ```text
//! [ epoch u64le | count u32le | count × (item ItemCodec | weight u64le) ]
//! ```
//!
//! New frames are always written as version 2; a writer resuming into a
//! version-1 segment rotates immediately so the two payload formats
//! never mix within one segment.
//!
//! `epoch` is the checkpoint epoch current when the batch was appended —
//! a diagnostic tag recovery reports but does not need (the manifest's
//! byte position, not the epoch, delimits the replay tail). `stream`
//! identifies the shard that appended the record; readers recovering a
//! single shard filter on it.
//!
//! ## Torn-write contract
//!
//! An append interrupted by a crash leaves a frame with a short or
//! corrupt payload at the *physical end* of the log. The reader stops
//! replay at the first frame that fails its length or CRC check: if that
//! frame sits in the last segment, the tail is **dropped** (reported, not
//! an error — this is the expected crash signature); a bad frame with
//! more log after it cannot come from a torn append and is reported as
//! corruption. [`WalWriter::open_at`] truncates the dropped tail before
//! appending again, so the log never accumulates garbage mid-stream.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::item_codec::{read_uvarint, write_uvarint, ItemCodec};

use super::{FsyncPolicy, PersistError};

const SEG_MAGIC: &[u8; 4] = b"SFWL";
/// Fixed-width payloads, no stream tag (read-only legacy).
const SEG_VERSION_V1: u8 = 1;
/// Varint payloads with a stream tag — what new segments are written as.
const SEG_VERSION: u8 = 2;

fn known_version(version: u8) -> bool {
    version == SEG_VERSION_V1 || version == SEG_VERSION
}

/// Checks a segment header prefix — magic then a known version byte —
/// and returns the version. `None` covers short, wrong-magic, and
/// unknown-version prefixes alike; callers decide torn versus corrupt.
fn parse_segment_header(bytes: &[u8]) -> Option<u8> {
    let magic = bytes.get(..4)?;
    let version = *bytes.get(4)?;
    (magic == SEG_MAGIC && known_version(version)).then_some(version)
}

/// Bytes of a segment file's header (`magic`, version, reserved).
pub const SEGMENT_HEADER_LEN: u64 = 8;

/// [`SEGMENT_HEADER_LEN`] for slice math, converted once outside the
/// decode paths.
const SEG_HEADER_USIZE: usize = SEGMENT_HEADER_LEN as usize;

/// Bytes of a frame header (`payload_len`, `crc32c`).
const FRAME_HEADER_LEN: u64 = 8;

/// [`FRAME_HEADER_LEN`] for slice math, converted once outside the
/// decode paths.
const FRAME_HEADER_USIZE: usize = FRAME_HEADER_LEN as usize;

/// Sanity cap on one frame's payload: anything larger is corruption,
/// not a batch (writers buffer a few thousand updates per batch).
const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// A byte position in the log: the first replayable byte of `segment`.
/// Ordered lexicographically (segment, then offset), matching append
/// order within one log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPosition {
    /// Segment sequence number (1-based).
    pub segment: u64,
    /// Byte offset within the segment (≥ [`SEGMENT_HEADER_LEN`]).
    pub offset: u64,
}

/// One decoded WAL record: a weighted batch tagged with the shard stream
/// that appended it and the checkpoint epoch current at append time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord<K> {
    /// Shard stream tag (0 for single-engine stores and v1 segments).
    pub stream: u32,
    /// Checkpoint epoch at append time (diagnostic).
    pub epoch: u64,
    /// The weighted update batch, in append order.
    pub batch: Vec<(K, u64)>,
    /// Position of this record's frame header — what per-shard replay
    /// compares against a manifest's `wal_start`.
    pub at: WalPosition,
}

/// Where a log scan stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalScanEnd {
    /// Position immediately after the last valid record — where a
    /// resumed writer continues (after truncating any torn tail).
    pub end: WalPosition,
    /// Bytes of torn/corrupt tail dropped from the last segment.
    pub dropped_tail_bytes: u64,
}

/// Everything a collecting log scan ([`read_from`]) recovers.
#[derive(Debug)]
pub struct WalReadOutcome<K> {
    /// Valid records from the start position to the end of the log.
    pub records: Vec<WalRecord<K>>,
    /// Position immediately after the last valid record — where a
    /// resumed writer continues (after truncating any torn tail).
    pub end: WalPosition,
    /// Bytes of torn/corrupt tail dropped from the last segment.
    pub dropped_tail_bytes: u64,
}

/// Path of segment `seq` under `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.seg"))
}

/// The `(seq, path)` of every WAL segment in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut segments = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(PersistError::io(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// Flushes a directory so a just-created/renamed entry survives a crash.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), PersistError> {
    // Directory fsync is a Unix-ism; opening the directory read-only and
    // syncing it is the portable-enough idiom (a failure to open it is
    // not fatal on filesystems that do not support it).
    if let Ok(handle) = File::open(dir) {
        handle.sync_all().map_err(|e| PersistError::io(dir, e))?;
    }
    Ok(())
}

/// Appender half of the log. Owns the current (last) segment; earlier
/// segments are immutable history until a checkpoint truncates them.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    seq: u64,
    file: File,
    offset: u64,
    unsynced: u64,
    /// Total on-disk bytes across all retained segments.
    live_bytes: u64,
    frame_buf: Vec<u8>,
}

impl WalWriter {
    /// Creates a fresh log in `dir` (segment 1, header only). `dir` must
    /// exist; the segment file must not.
    pub fn create(
        dir: &Path,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self, PersistError> {
        let seq = 1;
        let file = new_segment(dir, seq)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes,
            seq,
            file,
            offset: SEGMENT_HEADER_LEN,
            unsynced: 0,
            live_bytes: SEGMENT_HEADER_LEN,
            frame_buf: Vec::new(),
        })
    }

    /// Re-opens an existing log for appending at `pos` — the end
    /// position a [`scan_from`] scan returned. The target segment must be
    /// the newest one on disk; any torn tail past `pos.offset` is
    /// truncated away first.
    pub fn open_at(
        dir: &Path,
        pos: WalPosition,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self, PersistError> {
        let mut segments = list_segments(dir)?;
        // Segments newer than the append position can only be the
        // husk of a crash during rotation: a directory entry whose
        // 8-byte header never became durable (`scan_from` ends the
        // replay before such a segment). Remove the husks; anything
        // with a *valid* header past the append position would mean
        // the caller is about to orphan real data — refuse.
        while segments.last().is_some_and(|&(seq, _)| seq > pos.segment) {
            let Some((_, husk)) = segments.pop() else {
                break;
            };
            let mut header = [0u8; SEG_HEADER_USIZE];
            let intact = File::open(&husk)
                .and_then(|mut f| f.read_exact(&mut header))
                .is_ok()
                && parse_segment_header(&header).is_some();
            if intact {
                return Err(PersistError::corrupt(
                    &husk,
                    format!("intact segment newer than append position {}", pos.segment),
                ));
            }
            std::fs::remove_file(&husk).map_err(|e| PersistError::io(&husk, e))?;
            fsync_dir(dir)?;
        }
        let newest = segments.last().map(|&(seq, _)| seq);
        if newest != Some(pos.segment) {
            return Err(PersistError::corrupt(
                dir,
                format!(
                    "append position in segment {} but newest on disk is {:?}",
                    pos.segment, newest
                ),
            ));
        }
        let path = segment_path(dir, pos.segment);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let disk_len = file
            .metadata()
            .map_err(|e| PersistError::io(&path, e))?
            .len();
        if disk_len < pos.offset {
            return Err(PersistError::corrupt(
                &path,
                format!(
                    "append offset {} beyond file of {disk_len} bytes",
                    pos.offset
                ),
            ));
        }
        if disk_len > pos.offset {
            file.set_len(pos.offset)
                .map_err(|e| PersistError::io(&path, e))?;
            file.sync_data().map_err(|e| PersistError::io(&path, e))?;
        }
        let mut live_bytes = pos.offset;
        for &(seq, ref seg_path) in &segments {
            if seq == pos.segment {
                continue;
            }
            live_bytes += std::fs::metadata(seg_path)
                .map_err(|e| PersistError::io(seg_path, e))?
                .len();
        }
        let mut writer = WalWriter {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes,
            seq: pos.segment,
            file,
            offset: pos.offset,
            unsynced: 0,
            live_bytes,
            frame_buf: Vec::new(),
        };
        let mut header = [0u8; SEG_HEADER_USIZE];
        writer
            .file
            .seek(SeekFrom::Start(0))
            .and_then(|_| writer.file.read_exact(&mut header))
            .map_err(|e| PersistError::io(&path, e))?;
        let Some(header_version) = parse_segment_header(&header) else {
            return Err(PersistError::corrupt(&path, "bad segment header"));
        };
        writer
            .file
            .seek(SeekFrom::Start(pos.offset))
            .map_err(|e| PersistError::io(&path, e))?;
        if header_version != SEG_VERSION {
            // Resuming into a legacy segment: new frames use the v2
            // payload encoding, which must not share a v1 segment.
            writer.rotate()?;
        }
        Ok(writer)
    }

    /// The position the next record will be appended at.
    pub fn position(&self) -> WalPosition {
        WalPosition {
            segment: self.seq,
            offset: self.offset,
        }
    }

    /// The segment size at which this log rotates to a new file.
    pub(crate) fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Total on-disk bytes across every retained segment.
    pub fn total_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Appends one weighted batch tagged with `epoch` as stream 0. Empty
    /// batches are a no-op. The bytes are durable per the writer's
    /// [`FsyncPolicy`]; rotation to a new segment happens once the
    /// current one exceeds the configured size.
    pub fn append<K: ItemCodec>(
        &mut self,
        epoch: u64,
        batch: &[(K, u64)],
    ) -> Result<(), PersistError> {
        if batch.is_empty() {
            return Ok(());
        }
        // Reuse the writer's scratch buffer: steady-state appends build
        // their frame with zero allocation.
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        encode_frame(&mut frame, 0, epoch, batch);
        let result = self.append_encoded(&frame);
        self.frame_buf = frame;
        result.map(|_| ())
    }

    /// Appends pre-encoded frame bytes — one or more complete frames
    /// produced by [`encode_frame`], e.g. a group-commit flush buffer —
    /// as a single `write_all`, then applies the fsync policy and size-
    /// based rotation once for the whole buffer. Returns whether the
    /// bytes were fsynced.
    pub(crate) fn append_encoded(&mut self, frames: &[u8]) -> Result<bool, PersistError> {
        if frames.is_empty() {
            return Ok(false);
        }
        let path = segment_path(&self.dir, self.seq);
        self.file
            .write_all(frames)
            .map_err(|e| PersistError::io(&path, e))?;
        self.offset += frames.len() as u64;
        self.live_bytes += frames.len() as u64;
        self.unsynced += frames.len() as u64;
        let mut synced = false;
        match self.fsync {
            FsyncPolicy::Always => {
                self.sync()?;
                synced = true;
            }
            FsyncPolicy::EveryBytes(budget) => {
                if self.unsynced >= budget {
                    self.sync()?;
                    synced = true;
                }
            }
            FsyncPolicy::Off => {}
        }
        if self.offset >= self.segment_bytes {
            self.rotate()?;
            synced = true;
        }
        Ok(synced)
    }

    /// Forces all appended bytes to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        let path = segment_path(&self.dir, self.seq);
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(&path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Closes the current segment (fsyncing it) and starts the next one.
    /// Returns the position of the new segment's first record — what a
    /// checkpoint manifest records as the replay start.
    pub fn rotate(&mut self) -> Result<WalPosition, PersistError> {
        self.sync()?;
        self.seq += 1;
        self.file = new_segment(&self.dir, self.seq)?;
        self.offset = SEGMENT_HEADER_LEN;
        self.live_bytes += SEGMENT_HEADER_LEN;
        self.unsynced = 0;
        Ok(self.position())
    }

    /// Deletes every segment with sequence number below `seq` (log
    /// truncation after a checkpoint). Returns the bytes freed.
    pub fn remove_segments_below(&mut self, seq: u64) -> Result<u64, PersistError> {
        let mut freed = 0;
        for (old_seq, path) in list_segments(&self.dir)? {
            if old_seq >= seq {
                continue;
            }
            freed += std::fs::metadata(&path)
                .map_err(|e| PersistError::io(&path, e))?
                .len();
            std::fs::remove_file(&path).map_err(|e| PersistError::io(&path, e))?;
        }
        fsync_dir(&self.dir)?;
        self.live_bytes -= freed;
        Ok(freed)
    }
}

/// Appends one complete v2 frame — header, CRC, and varint payload — to
/// `out`. The buffer is caller-owned so hot paths can reuse it across
/// frames and coalesce many frames before a single write.
pub(crate) fn encode_frame<K: ItemCodec>(
    out: &mut Vec<u8>,
    stream: u32,
    epoch: u64,
    batch: &[(K, u64)],
) {
    let header_at = out.len();
    // Worst case: 10-byte varints for every field. One reservation keeps
    // the per-item encode loop free of growth checks.
    out.reserve(FRAME_HEADER_LEN as usize + 30 + 20 * batch.len());
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN as usize]);
    write_uvarint(out, u64::from(stream));
    write_uvarint(out, epoch);
    write_uvarint(out, batch.len() as u64);
    for (item, weight) in batch {
        item.encode_compact_pair(*weight, out);
    }
    let payload_len = (out.len() - header_at - FRAME_HEADER_LEN as usize) as u32;
    let crc = super::crc32c(&out[header_at + FRAME_HEADER_LEN as usize..]);
    out[header_at..header_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Creates segment `seq` with its header written and the directory entry
/// flushed.
fn new_segment(dir: &Path, seq: u64) -> Result<File, PersistError> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .read(true)
        .open(&path)
        .map_err(|e| PersistError::io(&path, e))?;
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[..4].copy_from_slice(SEG_MAGIC);
    header[4] = SEG_VERSION;
    file.write_all(&header)
        .map_err(|e| PersistError::io(&path, e))?;
    file.sync_data().map_err(|e| PersistError::io(&path, e))?;
    fsync_dir(dir)?;
    Ok(file)
}

/// Frame-chain auditor for the `debug-invariants` sanitizer: re-reads
/// the entire on-disk log and checks the chain invariants the appenders
/// maintain — contiguous segment sequence numbers (a hole means history
/// the manifests may still depend on was deleted out from under them),
/// every frame decodable in strict append order, and per-stream epoch
/// monotonicity (a shard's checkpoint epoch never decreases along the
/// log; a decrease means frames were reordered or a stale writer raced
/// a checkpoint).
///
/// An empty directory is a valid (empty) chain. This is a full-log
/// re-read — call it from the feature-gated hooks after rotation and
/// checkpoint truncation, not on the append path.
///
/// # Errors
/// Returns [`PersistError`] naming the first violated chain invariant.
pub fn audit_chain<K: ItemCodec>(dir: &Path) -> Result<(), PersistError> {
    let segments = list_segments(dir)?;
    let Some(&(first, _)) = segments.first() else {
        return Ok(());
    };
    for (walked, &(seq, ref path)) in segments.iter().enumerate() {
        let expected = first + walked as u64;
        if seq != expected {
            return Err(PersistError::corrupt(
                path,
                format!("segment chain hole: expected seq {expected}, found {seq}"),
            ));
        }
    }
    let mut last_epoch: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut last_at: Option<WalPosition> = None;
    let start = WalPosition {
        segment: first,
        offset: SEGMENT_HEADER_LEN,
    };
    scan_from::<K>(dir, start, |rec| {
        if last_at.is_some_and(|prev| rec.at <= prev) {
            return Err(PersistError::corrupt(
                dir,
                format!("frame positions out of append order at {:?}", rec.at),
            ));
        }
        last_at = Some(rec.at);
        if let Some(&prev) = last_epoch.get(&rec.stream) {
            if rec.epoch < prev {
                return Err(PersistError::corrupt(
                    dir,
                    format!(
                        "stream {} epoch went backwards: {} after {prev}",
                        rec.stream, rec.epoch
                    ),
                ));
            }
        }
        last_epoch.insert(rec.stream, rec.epoch);
        Ok(())
    })
    .map(|_| ())
}

/// Collects every valid record from `start` to the end of the log — a
/// thin wrapper over [`scan_from`] for tests that want every record in
/// hand. Recovery streams through [`scan_from`] instead, so its memory
/// is bounded by one segment rather than by the tail.
///
/// # Errors
/// As [`scan_from`].
pub fn read_from<K: ItemCodec + Clone>(
    dir: &Path,
    start: WalPosition,
) -> Result<WalReadOutcome<K>, PersistError> {
    let mut records = Vec::new();
    let tail = scan_from::<K>(dir, start, |record| {
        records.push(record.clone());
        Ok(())
    })?;
    Ok(WalReadOutcome {
        records,
        end: tail.end,
        dropped_tail_bytes: tail.dropped_tail_bytes,
    })
}

/// Scans the log from `start` to its physical end, handing each valid
/// record to `visit` in append order. Frames decode out of one reused
/// segment buffer into one reused record, so the scan holds at most one
/// segment and one batch in memory however long the log is. See the
/// module docs for the torn-write contract; a bad frame anywhere except
/// the last segment's tail is an error.
///
/// # Errors
/// Returns [`PersistError`] for missing segments between `start` and the
/// newest one, unreadable files, or mid-log corruption, and passes on
/// the first error `visit` returns (which ends the scan).
pub fn scan_from<K: ItemCodec>(
    dir: &Path,
    start: WalPosition,
    mut visit: impl FnMut(&WalRecord<K>) -> Result<(), PersistError>,
) -> Result<WalScanEnd, PersistError> {
    let segments = list_segments(dir)?;
    let relevant: Vec<&(u64, PathBuf)> = segments
        .iter()
        .filter(|&&(seq, _)| seq >= start.segment)
        .collect();
    if relevant.is_empty() {
        return Err(PersistError::corrupt(
            dir,
            format!("manifest points at missing WAL segment {}", start.segment),
        ));
    }
    // The replay range must be contiguous: a hole means a segment the
    // manifest still depends on was deleted.
    for (i, &&(seq, _)) in relevant.iter().enumerate() {
        let expected = start.segment + i as u64;
        if seq != expected {
            return Err(PersistError::corrupt(
                dir,
                format!("WAL segment {expected} missing (next present is {seq})"),
            ));
        }
    }
    let mut end = start;
    let mut bytes = Vec::new();
    let mut record = WalRecord {
        stream: 0,
        epoch: 0,
        batch: Vec::new(),
        at: start,
    };
    let last_index = relevant.len() - 1;
    for (i, &&(seq, ref path)) in relevant.iter().enumerate() {
        let is_last = i == last_index;
        bytes.clear();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| PersistError::io(path, e))?;
        let header_version =
            parse_segment_header(&bytes).filter(|_| bytes.len() >= SEG_HEADER_USIZE);
        let Some(version) = header_version else {
            // A bad header on the newest, not-yet-referenced segment is
            // the signature of a crash during rotation (the directory
            // entry committed before the header bytes were durable): a
            // torn tail, not corruption. The manifest's own start
            // segment always has a durable header — `new_segment` syncs
            // it before any manifest can reference it — so a bad header
            // there is real damage.
            if is_last && seq != start.segment {
                return Ok(WalScanEnd {
                    end,
                    dropped_tail_bytes: bytes.len() as u64,
                });
            }
            return Err(PersistError::corrupt(path, "bad segment header"));
        };
        let mut cursor = if seq == start.segment {
            if start.offset < SEGMENT_HEADER_LEN || start.offset > bytes.len() as u64 {
                return Err(PersistError::corrupt(
                    path,
                    format!("replay offset {} outside segment", start.offset),
                ));
            }
            usize::try_from(start.offset)
                .map_err(|_| PersistError::corrupt(path, "replay offset overflows usize"))?
        } else {
            SEG_HEADER_USIZE
        };
        end = WalPosition {
            segment: seq,
            offset: cursor as u64,
        };
        loop {
            record.at = WalPosition {
                segment: seq,
                offset: cursor as u64,
            };
            match decode_frame(
                version,
                bytes.get(cursor..).unwrap_or_default(),
                &mut record,
            ) {
                FrameOutcome::Record(consumed) => {
                    visit(&record)?;
                    cursor = cursor.saturating_add(consumed);
                    end.offset = cursor as u64;
                }
                FrameOutcome::End => break,
                FrameOutcome::Torn(detail) => {
                    if is_last {
                        return Ok(WalScanEnd {
                            end,
                            dropped_tail_bytes: (bytes.len() - cursor) as u64,
                        });
                    }
                    return Err(PersistError::corrupt(
                        path,
                        format!("mid-log frame at offset {cursor}: {detail}"),
                    ));
                }
            }
        }
    }
    Ok(WalScanEnd {
        end,
        dropped_tail_bytes: 0,
    })
}

enum FrameOutcome {
    /// A valid frame, decoded into the caller's record: the bytes it
    /// consumed.
    Record(usize),
    /// Clean end of segment (zero bytes remain).
    End,
    /// A short, corrupt, or undecodable frame.
    Torn(String),
}

/// Reads a frame header's `(payload_len, crc)` pair, or `None` when
/// fewer than [`FRAME_HEADER_USIZE`] bytes remain.
fn frame_header(bytes: &[u8]) -> Option<(u32, u32)> {
    let len = bytes.get(0..4)?.try_into().ok()?;
    let crc = bytes.get(4..8)?.try_into().ok()?;
    Some((u32::from_le_bytes(len), u32::from_le_bytes(crc)))
}

/// Decodes the frame at the front of `bytes` into `record` (reusing its
/// batch buffer), interpreting the payload per the segment's `version`.
/// `record.at` is the caller's; the other fields are meaningful only
/// when the outcome is [`FrameOutcome::Record`].
fn decode_frame<K: ItemCodec>(
    version: u8,
    bytes: &[u8],
    record: &mut WalRecord<K>,
) -> FrameOutcome {
    if bytes.is_empty() {
        return FrameOutcome::End;
    }
    let Some((payload_len, crc)) = frame_header(bytes) else {
        return FrameOutcome::Torn(format!("{}-byte partial frame header", bytes.len()));
    };
    if payload_len > MAX_FRAME_PAYLOAD {
        return FrameOutcome::Torn(format!("implausible payload length {payload_len}"));
    }
    let total = match usize::try_from(payload_len)
        .ok()
        .and_then(|p| FRAME_HEADER_USIZE.checked_add(p))
    {
        Some(total) => total,
        None => return FrameOutcome::Torn(format!("implausible payload length {payload_len}")),
    };
    let Some(payload) = bytes.get(FRAME_HEADER_USIZE..total) else {
        return FrameOutcome::Torn(format!(
            "payload truncated ({} of {payload_len} bytes)",
            bytes.len() - FRAME_HEADER_USIZE
        ));
    };
    if super::crc32c(payload) != crc {
        return FrameOutcome::Torn("CRC mismatch".into());
    }
    // Past the CRC the payload is trusted framing-wise, but the decode
    // stays total: a CRC collision on garbage must fail cleanly.
    let mut view = payload;
    let mut decode = || -> Result<(), crate::error::Error> {
        let (stream, epoch, count) = if version == SEG_VERSION_V1 {
            (
                0u32,
                u64::decode(&mut view)?,
                usize::try_from(u32::decode(&mut view)?).map_err(|_| {
                    crate::error::Error::Corrupt("batch count overflows usize".into())
                })?,
            )
        } else {
            let stream = u32::try_from(read_uvarint(&mut view)?)
                .map_err(|_| crate::error::Error::Corrupt("stream tag overflows u32".into()))?;
            let epoch = read_uvarint(&mut view)?;
            let count = usize::try_from(read_uvarint(&mut view)?)
                .map_err(|_| crate::error::Error::Corrupt("batch count overflows usize".into()))?;
            (stream, epoch, count)
        };
        record.stream = stream;
        record.epoch = epoch;
        record.batch.clear();
        record.batch.reserve(count.min(1 << 16));
        for _ in 0..count {
            let (item, weight) = if version == SEG_VERSION_V1 {
                (K::decode(&mut view)?, u64::decode(&mut view)?)
            } else {
                (K::decode_compact(&mut view)?, read_uvarint(&mut view)?)
            };
            record.batch.push((item, weight));
        }
        if !view.is_empty() {
            return Err(crate::error::Error::Corrupt(
                "trailing bytes in WAL payload".into(),
            ));
        }
        Ok(())
    };
    match decode() {
        Ok(()) => FrameOutcome::Record(total),
        Err(e) => FrameOutcome::Torn(format!("undecodable payload: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("streamfreq-wal-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start() -> WalPosition {
        WalPosition {
            segment: 1,
            offset: SEGMENT_HEADER_LEN,
        }
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(1u64, 10u64), (2, 20)]).unwrap();
        w.append(0, &[(3u64, 30u64)]).unwrap();
        w.append(1, &[(4u64, 40u64)]).unwrap();
        w.append::<u64>(1, &[]).unwrap(); // no-op
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].batch, vec![(1, 10), (2, 20)]);
        assert_eq!(out.records[2].epoch, 1);
        assert_eq!(out.dropped_tail_bytes, 0);
        assert_eq!(out.end, w.position());
        assert_eq!(w.total_bytes(), out.end.offset);
    }

    #[test]
    fn string_items_roundtrip() {
        let dir = tmp_dir("strings");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Always, 1 << 20).unwrap();
        let batch = vec![("alpha".to_string(), 5u64), ("β".to_string(), 7)];
        w.append(3, &batch).unwrap();
        let out = read_from::<String>(&dir, start()).unwrap();
        assert_eq!(out.records[0].batch, batch);
    }

    #[test]
    fn rotation_splits_segments_and_replays_across() {
        let dir = tmp_dir("rotate");
        // Tiny segment budget: every append rotates.
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 16).unwrap();
        for i in 0..5u64 {
            w.append(0, &[(i, i + 1)]).unwrap();
        }
        assert!(list_segments(&dir).unwrap().len() >= 5);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 5);
        assert_eq!(out.records[4].batch, vec![(4, 5)]);
    }

    #[test]
    fn scan_reuses_buffers_across_frames_and_segments_and_stops_on_visitor_error() {
        let dir = tmp_dir("scan");
        // Batches grow then shrink, across several small segments, so a
        // stale pair left in the reused record or segment buffer shows.
        let batches: Vec<Vec<(u64, u64)>> = [3u64, 1, 4, 1, 5, 9, 2]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i as u64 * 10 + j, j + 1)).collect())
            .collect();
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 48).unwrap();
        for (epoch, batch) in batches.iter().enumerate() {
            w.append(epoch as u64, batch).unwrap();
        }
        let end = w.position();
        drop(w);
        assert!(list_segments(&dir).unwrap().len() > 2);
        let mut seen = Vec::new();
        let tail = scan_from::<u64>(&dir, start(), |r| {
            seen.push((r.epoch, r.batch.clone()));
            Ok(())
        })
        .unwrap();
        let expected: Vec<(u64, Vec<(u64, u64)>)> = batches
            .into_iter()
            .enumerate()
            .map(|(e, b)| (e as u64, b))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(tail.end, end);
        assert_eq!(tail.dropped_tail_bytes, 0);
        // A visitor error ends the scan and is passed on unchanged.
        let mut visits = 0;
        let err = scan_from::<u64>(&dir, start(), |_| {
            visits += 1;
            if visits == 3 {
                return Err(PersistError::corrupt(&dir, "visitor refused"));
            }
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("visitor refused"), "{err}");
        assert_eq!(visits, 3);
    }

    #[test]
    fn audit_chain_accepts_clean_log_and_rejects_holes() {
        let dir = tmp_dir("audit-chain");
        audit_chain::<u64>(&dir).expect("an empty directory is a valid chain");
        // Tiny segment budget: every append rotates, building a chain.
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 16).unwrap();
        for i in 0..5u64 {
            w.append(i, &[(i, i + 1)]).unwrap();
        }
        drop(w);
        assert!(list_segments(&dir).unwrap().len() >= 3);
        audit_chain::<u64>(&dir).expect("intact chain audits clean");
        let (_, mid_path) = list_segments(&dir).unwrap()[1].clone();
        std::fs::remove_file(&mid_path).unwrap();
        let err = audit_chain::<u64>(&dir).unwrap_err();
        assert!(err.to_string().contains("hole"), "{err}");
    }

    #[test]
    fn audit_chain_rejects_backwards_epochs() {
        let dir = tmp_dir("audit-epoch");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(5, &[(1u64, 1u64)]).unwrap();
        w.append(3, &[(2u64, 2u64)]).unwrap();
        drop(w);
        let err = audit_chain::<u64>(&dir).unwrap_err();
        assert!(err.to_string().contains("epoch went backwards"), "{err}");
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(1u64, 1u64)]).unwrap();
        let keep = w.position().offset;
        w.append(0, &[(2u64, 2u64), (3, 3)]).unwrap();
        let full = w.position().offset;
        drop(w);
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        for cut in keep..full {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let out = read_from::<u64>(&dir, start()).unwrap();
            assert_eq!(out.records.len(), 1, "cut at {cut}");
            assert_eq!(out.end.offset, keep);
            assert_eq!(out.dropped_tail_bytes, cut - keep);
        }
    }

    #[test]
    fn flipped_tail_byte_is_dropped_not_misdecoded() {
        let dir = tmp_dir("flip");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(1u64, 1u64)]).unwrap();
        let keep = w.position().offset;
        w.append(0, &[(2u64, 2u64)]).unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        for flip in keep as usize..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[flip] ^= 0x40;
            std::fs::write(&path, &corrupted).unwrap();
            let out = read_from::<u64>(&dir, start()).unwrap();
            assert_eq!(out.records.len(), 1, "flip at {flip}");
            assert_eq!(out.records[0].batch, vec![(1, 1)]);
        }
        // Restore and confirm both records decode again.
        bytes[0] = b'S';
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_from::<u64>(&dir, start()).unwrap().records.len(), 2);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let dir = tmp_dir("midlog");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 16).unwrap();
        for i in 0..4u64 {
            w.append(0, &[(i, 1u64)]).unwrap(); // rotates per append
        }
        drop(w);
        // Corrupt a frame in the FIRST segment: later segments exist, so
        // this cannot be a torn tail.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_from::<u64>(&dir, start()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_segment_is_a_clean_error() {
        let dir = tmp_dir("hole");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 16).unwrap();
        for i in 0..3u64 {
            w.append(0, &[(i, 1u64)]).unwrap();
        }
        drop(w);
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        let err = read_from::<u64>(&dir, start()).unwrap_err();
        assert!(err.to_string().contains("segment 2 missing"), "{err}");
        // A start position past the newest segment is also clean.
        let err = read_from::<u64>(
            &dir,
            WalPosition {
                segment: 99,
                offset: SEGMENT_HEADER_LEN,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("missing WAL segment 99"), "{err}");
    }

    #[test]
    fn open_at_truncates_torn_tail_and_resumes() {
        let dir = tmp_dir("resume");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(1u64, 1u64)]).unwrap();
        w.append(0, &[(2u64, 2u64)]).unwrap();
        drop(w);
        // Tear the second record.
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 1);
        let mut w = WalWriter::open_at(&dir, out.end, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(9u64, 9u64)]).unwrap();
        drop(w);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[1].batch, vec![(9, 9)]);
        assert_eq!(out.dropped_tail_bytes, 0, "torn bytes were truncated away");
    }

    #[test]
    fn headerless_rotation_husk_is_dropped_and_cleaned() {
        // Crash during rotation: the new segment's directory entry
        // committed but its header never became durable. Replay must
        // treat the husk as a torn tail, and a resumed writer must
        // clean it up and continue in the previous segment.
        let dir = tmp_dir("husk");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        w.append(0, &[(1u64, 1u64)]).unwrap();
        let keep = w.position();
        drop(w);
        for husk_bytes in [&b""[..], &b"SF"[..], &b"garbage!"[..]] {
            std::fs::write(segment_path(&dir, 2), husk_bytes).unwrap();
            let out = read_from::<u64>(&dir, start()).unwrap();
            assert_eq!(out.records.len(), 1, "husk {husk_bytes:?}");
            assert_eq!(out.end, keep);
            assert_eq!(out.dropped_tail_bytes, husk_bytes.len() as u64);
            let mut w = WalWriter::open_at(&dir, out.end, FsyncPolicy::Off, 1 << 20).unwrap();
            assert!(!segment_path(&dir, 2).exists(), "husk removed");
            w.append(0, &[(2u64, 2u64)]).unwrap();
            drop(w);
            let out = read_from::<u64>(&dir, start()).unwrap();
            assert_eq!(out.records.len(), 2);
            // Reset for the next husk shape.
            let mut w = WalWriter::open_at(&dir, keep, FsyncPolicy::Off, 1 << 20).unwrap();
            w.sync().unwrap();
            drop(w);
        }
        // An *intact* newer segment must never be silently deleted.
        let mut w = WalWriter::open_at(&dir, keep, FsyncPolicy::Off, 1 << 20).unwrap();
        let pos2 = w.rotate().unwrap();
        w.append(0, &[(3u64, 3u64)]).unwrap();
        drop(w);
        assert!(matches!(
            WalWriter::open_at(&dir, keep, FsyncPolicy::Off, 1 << 20),
            Err(PersistError::Corrupt { .. })
        ));
        assert!(segment_path(&dir, pos2.segment).exists());
    }

    /// Hand-writes a v1-format segment: version byte 1, fixed-width
    /// little-endian payloads — byte-for-byte what the pre-shared-log
    /// writer produced.
    fn write_v1_segment(dir: &Path, seq: u64, batches: &[(u64, Vec<(u64, u64)>)]) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEG_MAGIC);
        bytes.push(SEG_VERSION_V1);
        bytes.extend_from_slice(&[0u8; 3]);
        for (epoch, batch) in batches {
            let mut payload = Vec::new();
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for &(item, weight) in batch {
                payload.extend_from_slice(&item.to_le_bytes());
                payload.extend_from_slice(&weight.to_le_bytes());
            }
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crate::persist::crc32c(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(segment_path(dir, seq), bytes).unwrap();
    }

    #[test]
    fn v1_segments_still_decode() {
        let dir = tmp_dir("v1-read");
        write_v1_segment(&dir, 1, &[(0, vec![(1, 10), (2, 20)]), (3, vec![(7, 70)])]);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].batch, vec![(1, 10), (2, 20)]);
        assert_eq!(out.records[0].stream, 0, "v1 records decode as stream 0");
        assert_eq!(out.records[1].epoch, 3);
        assert_eq!(out.dropped_tail_bytes, 0);
    }

    #[test]
    fn resuming_a_v1_segment_rotates_to_v2() {
        let dir = tmp_dir("v1-resume");
        write_v1_segment(&dir, 1, &[(0, vec![(1, 1)])]);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 1);
        let mut w = WalWriter::open_at(&dir, out.end, FsyncPolicy::Off, 1 << 20).unwrap();
        // The v1 segment must not receive v2 frames: the writer starts a
        // fresh segment immediately.
        assert_eq!(w.position().segment, 2);
        w.append(5, &[(9u64, 9u64)]).unwrap();
        drop(w);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].batch, vec![(1, 1)]);
        assert_eq!(out.records[1].batch, vec![(9, 9)]);
        assert_eq!(out.records[1].at.segment, 2);
    }

    #[test]
    fn v1_torn_tail_is_still_dropped() {
        let dir = tmp_dir("v1-torn");
        write_v1_segment(&dir, 1, &[(0, vec![(1, 1)]), (0, vec![(2, 2), (3, 3)])]);
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        let keep = read_from::<u64>(&dir, start()).unwrap().records[0]
            .at
            .offset
            + (FRAME_HEADER_LEN + 8 + 4 + 16);
        for cut in keep..bytes.len() as u64 {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let out = read_from::<u64>(&dir, start()).unwrap();
            assert_eq!(out.records.len(), 1, "cut at {cut}");
        }
    }

    #[test]
    fn stream_tags_and_positions_roundtrip() {
        let dir = tmp_dir("streams");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 1 << 20).unwrap();
        let mut buf = Vec::new();
        encode_frame(&mut buf, 2, 10, &[(100u64, 1u64)]);
        encode_frame(&mut buf, 0, 10, &[(200u64, 2u64)]);
        encode_frame(&mut buf, 7, 11, &[(300u64, 3u64), (301, 4)]);
        w.append_encoded(&buf).unwrap();
        drop(w);
        let out = read_from::<u64>(&dir, start()).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].stream, 2);
        assert_eq!(out.records[1].stream, 0);
        assert_eq!(out.records[2].stream, 7);
        assert_eq!(out.records[2].batch, vec![(300, 3), (301, 4)]);
        // Frame positions are strictly increasing and start at the top.
        assert_eq!(out.records[0].at, start());
        assert!(out.records[0].at < out.records[1].at);
        assert!(out.records[1].at < out.records[2].at);
        assert_eq!(out.end.offset, SEGMENT_HEADER_LEN + buf.len() as u64);
    }

    #[test]
    fn compact_frames_are_smaller_than_v1() {
        // The headline wal_bytes claim: small items and weights shrink
        // by well over the 30% target.
        let batch: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i % 4096, i % 17 + 1)).collect();
        let mut v2 = Vec::new();
        encode_frame(&mut v2, 0, 1, &batch);
        let v1_len = FRAME_HEADER_LEN as usize + 8 + 4 + batch.len() * 16;
        assert!(
            (v2.len() as f64) < v1_len as f64 * 0.5,
            "v2 frame {} bytes vs v1 {} bytes",
            v2.len(),
            v1_len
        );
    }

    #[test]
    fn truncation_removes_old_segments() {
        let dir = tmp_dir("truncate");
        let mut w = WalWriter::create(&dir, FsyncPolicy::Off, 16).unwrap();
        for i in 0..4u64 {
            w.append(0, &[(i, 1u64)]).unwrap();
        }
        let pos = w.rotate().unwrap();
        let before = w.total_bytes();
        let freed = w.remove_segments_below(pos.segment).unwrap();
        assert!(freed > 0);
        assert_eq!(w.total_bytes(), before - freed);
        assert_eq!(w.total_bytes(), SEGMENT_HEADER_LEN);
        let out = read_from::<u64>(&dir, pos).unwrap();
        assert!(out.records.is_empty());
    }
}
