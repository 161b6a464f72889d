//! On-disk scan corpora: the paper's "directory of monthly snapshots",
//! versioned and replayable.
//!
//! The paper's evaluation input is a corpus of real monthly full scans
//! over a CAIDA routing table. This module gives that corpus a concrete,
//! versioned on-disk layout and a lazy [`GroundTruth`] implementation
//! over it, so the same campaign loop that drives the synthetic
//! [`Universe`] replays archived data unmodified:
//!
//! ```text
//! corpus-dir/
//!   corpus.manifest       # versioned index (text, see CorpusManifest)
//!   topology.pfx2as       # CAIDA pfx2as routing table (tass-bgp reads it)
//!   snapshots/
//!     m0-ftp.snap         # Snapshot::encode binary, one per (month, proto)
//!     m0-http.snap
//!     …
//! ```
//!
//! Three ways in:
//!
//! * [`export_universe`] — serialise a generated [`Universe`] (the
//!   round-trip path the `corpus` exhibit proves lossless);
//! * [`CorpusBuilder`] — incremental ingestion of real data: a pfx2as
//!   table plus per-month binary snapshots or **plain-text address
//!   lists** (one address per line, the format full-scan tools emit),
//!   parsed by [`parse_address_list`] with line-context errors;
//! * hand-written — the manifest is plain text and the snapshot codec is
//!   [`Snapshot::encode`]/[`Snapshot::decode`].
//!
//! And one way out: [`CorpusGroundTruth::open`] validates the manifest
//! (version, completeness: every `(month, protocol)` cell present
//! exactly once), builds the [`Topology`] from the pfx2as table, and
//! then decodes **one month at a time on demand**, holding a small
//! bounded cache of decoded months — a multi-terabyte corpus never
//! materialises in memory. Every failure mode is a typed [`CorpusError`]
//! on the fallible API ([`GroundTruth::load_snapshot`],
//! [`CorpusGroundTruth::validate`]); run `validate()` before handing a
//! corpus of unknown provenance to the campaign driver, whose
//! convenience `snapshot()` path panics on load errors like
//! `Universe::snapshot` always has (the `tass-select replay` CLI does
//! exactly this, so bad corpora surface as errors, not panics).
//!
//! # Cost model at routed-v4 scale
//!
//! The replay path is engineered so that a month load costs O(header) +
//! one sequential validation pass, and a cache hit costs no exclusive
//! lock at all:
//!
//! * **Mapped month loads.** [`Snapshot::decode_mapped`] serves the
//!   sorted fixed-width LE address section of a snapshot file *in
//!   place* — no per-host `Vec` rebuild. The topology agreement check
//!   is a monotone counting sweep over the (sorted, disjoint) scan
//!   units of the corpus topology: hosts covered == hosts total ⇔
//!   every host is attributable, so the common all-good case costs
//!   O(units · log gap) instead of one trie walk per host. Only on a
//!   mismatch does a second pass name the first offending address.
//! * **Read-optimized month cache.** Decoded months sit in a small
//!   vector behind a reader/writer lock with per-entry atomic
//!   recency stamps: a cache hit takes the shared side and bumps a
//!   stamp — workers replaying the same months never serialise on an
//!   exclusive lock. Eviction (least-recently-touched) happens only on
//!   miss, under the writer side, bounded by **both** an entry count
//!   and an optional byte ceiling ([`CorpusOptions::cache_bytes`] —
//!   mapped months are charged their whole file buffer, which is what
//!   eviction actually frees).
//! * **Streamed ingestion.** [`CorpusBuilder::add_address_list_file`]
//!   reads an address list in 256 KiB byte blocks and cuts chunks of
//!   `chunk_lines` lines at `\n` bytes; worker threads check each
//!   chunk is UTF-8, parse it, sort it and spill it as a run, and the
//!   calling thread merges the runs block by block straight into the
//!   aligned snapshot format — O(workers · chunk) peak memory however
//!   large the input, with deterministic (lowest-line-wins) errors.
//!   Per address, timed stage by stage on a 2-vCPU x86-64 box over a
//!   2 M-line IPv4 list: the calling thread reads and cuts in ≈ 5 ns
//!   (≈ 16 ns when every chunk buffer is freshly mapped memory); a
//!   worker spends ≈ 2.5 ns on the UTF-8 check, ≈ 25 ns on the
//!   one-pass dotted-quad parse, ≈ 8 ns on the spill and ≈ 1.5 ns on
//!   the sort of a sorted list (≈ 22 ns shuffled). The merge costs
//!   ≈ 3 ns on a sorted list, whose runs do not overlap and so are
//!   copied a block at a time, but ≈ 65 ns on a shuffled one (one heap
//!   step per address) — and scanners such as ZMap emit addresses in
//!   permutation order. The `corpus_scale` bench reports both orders.
//!   [`migrate_corpus`] upgrades a v1 corpus to the aligned layout in
//!   place; both formats stay readable either way.
//!
//! Put together, replay peak RSS is bounded by the cache ceiling plus a
//! per-worker transient: `cache_bytes + workers × 2 × max_snapshot_bytes`
//! (each worker may hold one month being decoded plus one being handed
//! out) plus allocator slack. The `corpus_scale` bench asserts this
//! budget against `/proc` RSS on a routed-v4-scale corpus every run.

use crate::protocol::Protocol;
use crate::snapshot::{DecodeError, HostSet, PrefixCount, Snapshot};
use crate::source::GroundTruth;
use crate::topology::Topology;
use crate::universe::Universe;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use tass_bgp::{pfx2as, RouteTable, SynthTable};
use tass_net::{AddrFamily, NetError, V4, V6};

/// Manifest file name inside a corpus directory.
pub const MANIFEST_FILE: &str = "corpus.manifest";
/// Topology file name inside a corpus directory.
pub const TOPOLOGY_FILE: &str = "topology.pfx2as";
/// Snapshot subdirectory inside a corpus directory.
pub const SNAPSHOT_DIR: &str = "snapshots";
/// The on-disk layout version this build reads and writes.
pub const CORPUS_VERSION: u32 = 1;

/// How many decoded months [`CorpusGroundTruth`] retains by default.
///
/// A campaign walks months in order, so a handful of cached snapshots
/// serves matrices of many strategies over the same corpus; raise it
/// with [`CorpusGroundTruth::with_cache_capacity`] when many protocols
/// interleave.
pub const DEFAULT_CACHE_SNAPSHOTS: usize = 8;

// ---------------------------------------------------------------- errors

/// A line of a plain-text address list that did not parse, in the same
/// line-context style as `tass_scan::BlocklistParseError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressListError {
    /// 1-based line number of the bad entry.
    pub line: usize,
    /// The offending text (trimmed, comments stripped).
    pub text: String,
    /// Why it did not parse as an address of the list's family.
    pub error: NetError,
}

impl fmt::Display for AddressListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address list line {}: {:?}: {}",
            self.line, self.text, self.error
        )
    }
}

impl std::error::Error for AddressListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Everything that can go wrong ingesting, validating, or replaying a
/// corpus. Every variant is a condition real archived data exhibits;
/// none of them panics the replay loop.
#[derive(Debug)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A manifest line did not parse.
    Manifest {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The manifest declares a layout version this build does not read.
    UnsupportedVersion(u32),
    /// The pfx2as topology file did not parse.
    Pfx2As(pfx2as::Pfx2AsError),
    /// The topology parsed but contains no announcements.
    EmptyTopology,
    /// A snapshot file failed to decode.
    Decode {
        /// The snapshot file.
        path: PathBuf,
        /// The codec error.
        source: DecodeError,
    },
    /// A snapshot file decoded, but its header disagrees with the
    /// manifest slot pointing at it (wrong month or protocol — a sign of
    /// swapped or mislabelled files).
    SnapshotHeaderMismatch {
        /// The snapshot file.
        path: PathBuf,
        /// Month the manifest expects.
        expected_month: u32,
        /// Protocol the manifest expects.
        expected_protocol: Protocol,
        /// Month the file header carries.
        found_month: u32,
        /// Protocol the file header carries.
        found_protocol: Protocol,
    },
    /// A `(month, protocol)` cell has no snapshot (in the manifest, or
    /// asked of a source that does not reach that month).
    MissingMonth {
        /// The missing month.
        month: u32,
        /// The protocol asked for.
        protocol: Protocol,
    },
    /// Two snapshots claim the same `(month, protocol)` cell.
    DuplicateSnapshot {
        /// The duplicated month.
        month: u32,
        /// The duplicated protocol.
        protocol: Protocol,
    },
    /// The source has no snapshots for this protocol at all.
    MissingProtocol {
        /// The absent protocol.
        protocol: Protocol,
    },
    /// A snapshot carries a responsive host outside the announced space
    /// of the corpus topology — the snapshots and the routing table are
    /// not from the same measurement.
    TopologyMismatch {
        /// Month of the offending snapshot.
        month: u32,
        /// Protocol of the offending snapshot.
        protocol: Protocol,
        /// The first offending address, rendered.
        addr: String,
    },
    /// A plain-text address list failed to parse during ingestion.
    AddressList(AddressListError),
    /// A plain-text address-list *file* failed to parse during
    /// ingestion — the path makes multi-file ingest failures
    /// attributable to the input that carried the bad line.
    AddressListFile {
        /// The input file.
        path: PathBuf,
        /// The line-context parse failure inside it.
        source: AddressListError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, message } => {
                write!(f, "corpus: {}: {message}", path.display())
            }
            CorpusError::Manifest { line, text, reason } => {
                write!(f, "corpus manifest line {line}: {text:?}: {reason}")
            }
            CorpusError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "corpus: unsupported layout version {v} (this build reads {CORPUS_VERSION})"
                )
            }
            CorpusError::Pfx2As(e) => write!(f, "corpus topology: {e}"),
            CorpusError::EmptyTopology => write!(f, "corpus topology has no announcements"),
            CorpusError::Decode { path, source } => {
                write!(f, "corpus: {}: {source}", path.display())
            }
            CorpusError::SnapshotHeaderMismatch {
                path,
                expected_month,
                expected_protocol,
                found_month,
                found_protocol,
            } => write!(
                f,
                "corpus: {}: manifest says month {expected_month} {expected_protocol}, \
                 file header says month {found_month} {found_protocol}",
                path.display()
            ),
            CorpusError::MissingMonth { month, protocol } => {
                write!(f, "corpus: no snapshot for month {month} {protocol}")
            }
            CorpusError::DuplicateSnapshot { month, protocol } => {
                write!(f, "corpus: duplicate snapshot for month {month} {protocol}")
            }
            CorpusError::MissingProtocol { protocol } => {
                write!(f, "corpus: no snapshots for protocol {protocol}")
            }
            CorpusError::TopologyMismatch {
                month,
                protocol,
                addr,
            } => write!(
                f,
                "corpus: month {month} {protocol} host {addr} is outside the \
                 corpus topology's announced space"
            ),
            CorpusError::AddressList(e) => write!(f, "corpus: {e}"),
            CorpusError::AddressListFile { path, source } => {
                write!(f, "corpus: {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Pfx2As(e) => Some(e),
            CorpusError::Decode { source, .. } => Some(source),
            CorpusError::AddressList(e) => Some(e),
            CorpusError::AddressListFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CorpusError {
    CorpusError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// ------------------------------------------------------- address lists

/// Parse a plain-text responsive-address list of any family: one address
/// per line, blank lines and `#` comments (whole-line or trailing)
/// ignored — the format full-scan tools like ZMap emit.
///
/// Errors carry the 1-based line number, the offending text, and the
/// parse failure, in the `BlocklistParseError` style: an IPv6 literal in
/// an IPv4 list names exactly the line that does not belong.
pub fn parse_address_list_family<F: AddrFamily>(
    text: &str,
) -> Result<HostSet<F>, AddressListError> {
    let mut addrs = Vec::new();
    parse_list_chunk::<F>(text, 0, &mut addrs)?;
    Ok(HostSet::from_addrs(addrs))
}

/// The one shared line grammar: parse every line of `chunk` (blank
/// lines and `#` comments ignored, whole-line or trailing) into
/// `addrs`, numbering errors from `base_line` — so the one-shot text
/// parser and the chunked streaming ingester cannot drift apart.
///
/// Lines are those of `str::lines`; each is cut at its first `#`,
/// trimmed and parsed by the family's `FromStr`. An IPv4 line that is a
/// bare dotted quad takes a one-pass fast path ([`dotted_quad_line`])
/// that accepts exactly what that general path would; every other line
/// goes the general way.
fn parse_list_chunk<F: AddrFamily>(
    chunk: &str,
    base_line: usize,
    addrs: &mut Vec<F::Addr>,
) -> Result<(), AddressListError> {
    let bytes = chunk.as_bytes();
    let (mut pos, mut line_no) = (0usize, base_line);
    while pos < bytes.len() {
        line_no += 1;
        if F::BITS == 32 {
            if let Some((a, next)) = dotted_quad_line(bytes, pos) {
                addrs.push(F::addr_from_u128(u128::from(a)));
                pos = next;
                continue;
            }
        }
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| pos + i);
        // a `\r` that `lines()` would strip before the `\n` is trimmed
        // below or sits in a comment, so it cannot change the outcome
        let raw = &chunk[pos..end];
        pos = end + 1;
        let line = raw.split_once('#').map_or(raw, |(before, _)| before).trim();
        if line.is_empty() {
            continue;
        }
        match F::parse_addr(line) {
            Some(a) => addrs.push(a),
            None => {
                return Err(AddressListError {
                    line: line_no,
                    text: line.to_string(),
                    error: NetError::ParseError(line.to_string()),
                })
            }
        }
    }
    Ok(())
}

/// The IPv4 fast path of [`parse_list_chunk`]: the line starting at
/// `pos`, if it is exactly a dotted quad as `Ipv4Addr::from_str`
/// accepts it (four decimal octets of one to three digits, at most 255,
/// no leading zero) ended by `\n`, `\r\n`, a final `\r` or the end of
/// `bytes`. Returns the address and where the next line starts; `None`
/// leaves the line to the general grammar, which decides it.
#[inline]
fn dotted_quad_line(bytes: &[u8], mut pos: usize) -> Option<(u32, usize)> {
    let mut addr = 0u32;
    for octet in 0..4 {
        if octet > 0 {
            if bytes.get(pos) != Some(&b'.') {
                return None;
            }
            pos += 1;
        }
        let start = pos;
        let mut value = 0u32;
        while pos - start < 3 {
            match bytes.get(pos) {
                Some(&d) if d.is_ascii_digit() => value = value * 10 + u32::from(d - b'0'),
                _ => break,
            }
            pos += 1;
        }
        let digits = pos - start;
        if digits == 0 || value > 255 || (digits > 1 && bytes[start] == b'0') {
            return None;
        }
        addr = addr << 8 | value;
    }
    match (bytes.get(pos), bytes.get(pos + 1)) {
        (None, _) => Some((addr, pos)),
        (Some(b'\n'), _) | (Some(b'\r'), None) => Some((addr, pos + 1)),
        (Some(b'\r'), Some(b'\n')) => Some((addr, pos + 2)),
        _ => None,
    }
}

/// [`parse_address_list_family`] for the common IPv4 case.
pub fn parse_address_list(text: &str) -> Result<HostSet, AddressListError> {
    parse_address_list_family::<V4>(text)
}

// -------------------------------------------------- streamed ingestion

/// Tuning for the chunked streaming ingestion path
/// ([`CorpusBuilder::add_address_list_file`],
/// [`stream_address_list_to_snapshot`]).
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Parser worker threads. Chunks are dealt round-robin, so peak
    /// memory is O(`workers` · `chunk_lines`).
    pub workers: usize,
    /// Input lines per chunk handed to a worker.
    pub chunk_lines: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            workers: 4,
            chunk_lines: 64 * 1024,
        }
    }
}

/// Bytes the ingest reads from its input at a time.
const READ_BLOCK: usize = 256 * 1024;
/// Bytes of each spilled run the merge holds at a time: the scale of a
/// default `BufReader`, so merge memory stays small for any run count.
/// A multiple of every family's address width.
const RUN_BLOCK: usize = 8 * 1024;

/// Ingest a plain-text address list **file** into one aligned snapshot
/// file with bounded memory: the input is read in fixed-size line
/// chunks, parsed and sorted on `opts.workers` threads, spilled as
/// sorted runs, and k-way merged (deduplicating) straight into the
/// [`Snapshot::encode_aligned`] layout. Peak memory is
/// O(workers · chunk), however large the input.
///
/// The produced set is exactly what [`parse_address_list_family`] over
/// the whole text would build (same line grammar, same sort + dedup);
/// parse failures are deterministic — the lowest offending line wins,
/// wrapped in [`CorpusError::AddressListFile`] naming `input`. Input
/// that is not UTF-8 is a [`CorpusError::Io`] naming `input`, whatever
/// line failed to parse. On any error no temporary file is left behind.
pub fn stream_address_list_to_snapshot<F: AddrFamily>(
    input: &Path,
    out: &Path,
    month: u32,
    protocol: Protocol,
    opts: &IngestOptions,
) -> Result<u64, CorpusError> {
    let in_file = fs::File::open(input).map_err(|e| io_err(input, e))?;
    let run_dir = out.with_extension("ingest-tmp");
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| io_err(&run_dir, e))?;
    let result = spill_sorted_runs::<F>(in_file, input, &run_dir, opts)
        .and_then(|runs| replace_file(out, |tmp| merge_runs::<F>(&runs, tmp, month, protocol)));
    let _ = fs::remove_dir_all(&run_dir);
    result
}

/// A spilled run: its file and how many addresses it holds.
type Run = (PathBuf, usize);

/// The parse + sort + spill phase of [`stream_address_list_to_snapshot`].
///
/// This thread reads `input` in [`READ_BLOCK`]-byte blocks and cuts
/// chunks of exactly `chunk_lines` lines at `\n` bytes, dealt
/// round-robin onto one bounded channel per worker (a receiver has a
/// single consumer). A worker checks its chunk is UTF-8, parses it,
/// and spills one sorted, deduplicated run file per chunk. Returns the
/// runs in input order.
fn spill_sorted_runs<F: AddrFamily>(
    mut in_file: fs::File,
    input: &Path,
    run_dir: &Path,
    opts: &IngestOptions,
) -> Result<Vec<Run>, CorpusError> {
    let width = usize::from(F::BITS / 8);
    let workers = opts.workers.max(1);
    let chunk_lines = opts.chunk_lines.max(1);
    // what one worker found: its runs by chunk sequence number, its
    // first parse error, and whether any chunk was not UTF-8
    type Found = (Vec<(usize, Run)>, Option<AddressListError>, bool);
    let found: Vec<Found> = std::thread::scope(|s| {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<(usize, usize, Vec<u8>)>(1);
            senders.push(tx);
            handles.push(s.spawn(move || {
                let (mut runs, mut first_err, mut not_utf8) = (Vec::new(), None, false);
                let mut addrs: Vec<F::Addr> = Vec::new();
                let mut spill: Vec<u8> = Vec::new();
                for (seq, base_line, chunk) in rx {
                    // every chunk is checked, so bad UTF-8 anywhere in
                    // the input wins over a parse error before it
                    let Ok(text) = std::str::from_utf8(&chunk) else {
                        not_utf8 = true;
                        continue;
                    };
                    if not_utf8 || first_err.is_some() {
                        continue; // the ingest already failed
                    }
                    addrs.clear();
                    if let Err(e) = parse_list_chunk::<F>(text, base_line, &mut addrs) {
                        first_err = Some(e);
                        continue;
                    }
                    addrs.sort_unstable();
                    addrs.dedup();
                    spill.clear();
                    for &a in &addrs {
                        spill.extend_from_slice(&F::addr_to_u128(a).to_le_bytes()[..width]);
                    }
                    let path = run_dir.join(format!("run-{seq}.tmp"));
                    fs::write(&path, &spill).map_err(|e| io_err(&path, e))?;
                    runs.push((seq, (path, addrs.len())));
                }
                Ok::<Found, CorpusError>((runs, first_err, not_utf8))
            }));
        }
        let mut block = vec![0u8; READ_BLOCK];
        let mut chunk: Vec<u8> = Vec::new();
        let (mut seq, mut line_no, mut in_chunk) = (0usize, 0usize, 0usize);
        let mut send = |chunk: &mut Vec<u8>, base_line: usize| {
            let full = std::mem::replace(chunk, Vec::with_capacity(chunk.len()));
            // a worker that already failed drains without parsing, so a
            // closed channel cannot happen here
            let _ = senders[seq % workers].send((seq, base_line, full));
            seq += 1;
        };
        loop {
            let n = match in_file.read(&mut block) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(input, e)),
            };
            if n == 0 {
                // the last chunk: fewer lines, or a final line without
                // its newline
                if !chunk.is_empty() {
                    send(&mut chunk, line_no);
                }
                break;
            }
            let mut rest = &block[..n];
            while !rest.is_empty() {
                match nth_newline(rest, chunk_lines - in_chunk) {
                    Ok(end) => {
                        chunk.extend_from_slice(&rest[..=end]);
                        rest = &rest[end + 1..];
                        send(&mut chunk, line_no);
                        line_no += chunk_lines;
                        in_chunk = 0;
                    }
                    Err(newlines) => {
                        chunk.extend_from_slice(rest);
                        in_chunk += newlines;
                        rest = &[];
                    }
                }
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect()
    })?;
    if found.iter().any(|&(_, _, not_utf8)| not_utf8) {
        // the error std's UTF-8 readers (`read_to_string`) report
        let e = std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8");
        return Err(io_err(input, e));
    }
    // deterministic failure: the lowest line number wins, whatever
    // worker happened to hit it
    if let Some(source) = found
        .iter()
        .filter_map(|(_, e, _)| e.clone())
        .min_by_key(|e| e.line)
    {
        return Err(CorpusError::AddressListFile {
            path: input.to_path_buf(),
            source,
        });
    }
    let mut runs: Vec<(usize, Run)> = found.into_iter().flat_map(|(r, _, _)| r).collect();
    runs.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(runs.into_iter().map(|(_, run)| run).collect())
}

/// The index of the `k`-th (`k ≥ 1`) `\n` in `bytes`, or, when there
/// are fewer, how many there are. Counts a piece of at most 255 bytes
/// at a time in a `u8`, which cannot overflow and so vectorises to one
/// byte lane per input byte; only the last piece gets a byte scan.
fn nth_newline(bytes: &[u8], k: usize) -> Result<usize, usize> {
    const PIECE: usize = 255;
    let mut seen = 0;
    for (p, piece) in bytes.chunks(PIECE).enumerate() {
        let here = usize::from(piece.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')));
        if seen + here >= k {
            let (i, _) = piece
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .nth(k - seen - 1)
                .expect("the piece holds the k-th newline");
            return Ok(p * PIECE + i);
        }
        seen += here;
    }
    Err(seen)
}

/// The value of one little-endian address of `bytes.len()` bytes.
#[inline(always)]
fn le_addr(bytes: &[u8]) -> u128 {
    let mut raw = [0u8; 16];
    raw[..bytes.len()].copy_from_slice(bytes);
    u128::from_le_bytes(raw)
}

/// One spilled run under merge, read [`RUN_BLOCK`] bytes at a time.
struct RunReader<'a> {
    path: &'a Path,
    file: fs::File,
    /// The block in hand; `buf[pos..]` is not merged yet.
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of the file not read yet.
    unread: u64,
}

impl RunReader<'_> {
    /// Make the block in hand non-empty; false once the run is done.
    fn fill(&mut self) -> Result<bool, CorpusError> {
        if self.pos < self.buf.len() {
            return Ok(true);
        }
        if self.unread == 0 {
            return Ok(false);
        }
        let n = self.unread.min(RUN_BLOCK as u64) as usize;
        self.buf.resize(n, 0);
        self.file
            .read_exact(&mut self.buf)
            .map_err(|e| io_err(self.path, e))?;
        self.unread -= n as u64;
        self.pos = 0;
        Ok(true)
    }
}

/// The merge phase of [`stream_address_list_to_snapshot`]: merge the
/// sorted runs, deduplicating, into an aligned snapshot at `out` with a
/// placeholder count that is patched once the merge is done. Returns
/// the count.
///
/// A heap orders the runs by their next address. The least run's
/// addresses up to the next run's head go out in one batch, copied as
/// bytes: each run is strictly increasing, so only a batch's first
/// address can repeat the last one written. Runs cut from a sorted list
/// do not overlap, so each is copied block by block.
fn merge_runs<F: AddrFamily>(
    runs: &[Run],
    out: &Path,
    month: u32,
    protocol: Protocol,
) -> Result<u64, CorpusError> {
    let width = usize::from(F::BITS / 8);
    let out_file = fs::File::create(out).map_err(|e| io_err(out, e))?;
    let mut w = BufWriter::with_capacity(8 * RUN_BLOCK, out_file);
    w.write_all(&crate::snapshot::aligned_header::<F>(protocol, month, 0))
        .map_err(|e| io_err(out, e))?;
    let mut readers = Vec::with_capacity(runs.len());
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, (path, count)) in runs.iter().enumerate() {
        let mut r = RunReader {
            path,
            file: fs::File::open(path).map_err(|e| io_err(path, e))?,
            buf: Vec::with_capacity(RUN_BLOCK),
            pos: 0,
            unread: (count * width) as u64,
        };
        if r.fill()? {
            heap.push(Reverse((le_addr(&r.buf[..width]), i)));
        }
        readers.push(r);
    }
    let (mut count, mut last) = (0u64, None);
    while !heap.is_empty() {
        // the least head among the other runs: the root's greater child
        let limit = heap.as_slice()[1..]
            .iter()
            .take(2)
            .max()
            .map_or(u128::MAX, |Reverse((head, _))| *head);
        let mut top = heap.peek_mut().expect("the heap is not empty");
        let r = &mut readers[top.0 .1];
        let next_head = loop {
            let rest = &r.buf[r.pos..];
            let take = if le_addr(&rest[rest.len() - width..]) <= limit {
                rest.len()
            } else {
                width
                    * rest
                        .chunks_exact(width)
                        .position(|a| le_addr(a) > limit)
                        .expect("the last address is past the limit")
            };
            let mut batch = &rest[..take];
            if batch.len() >= width && Some(le_addr(&batch[..width])) == last {
                batch = &batch[width..];
            }
            if !batch.is_empty() {
                w.write_all(batch).map_err(|e| io_err(out, e))?;
                count += (batch.len() / width) as u64;
                last = Some(le_addr(&batch[batch.len() - width..]));
            }
            r.pos += take;
            if r.pos < r.buf.len() {
                break Some(le_addr(&r.buf[r.pos..r.pos + width]));
            }
            if !r.fill()? {
                break None;
            }
        };
        match next_head {
            // the run moves down the heap when `top` drops
            Some(head) => top.0 .0 = head,
            None => drop(PeekMut::pop(top)),
        }
    }
    w.flush().map_err(|e| io_err(out, e))?;
    let mut f = w.into_inner().map_err(|e| io_err(out, e.into_error()))?;
    f.seek(SeekFrom::Start(0)).map_err(|e| io_err(out, e))?;
    f.write_all(&crate::snapshot::aligned_header::<F>(
        protocol, month, count,
    ))
    .map_err(|e| io_err(out, e))?;
    Ok(count)
}

/// Write `path` by running `write` on a temp file beside it and then
/// renaming that into place, so `path` is never seen part-written. The
/// temp file is removed when either step fails.
fn replace_file<T>(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<T, CorpusError>,
) -> Result<T, CorpusError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = write(&tmp).and_then(|v| {
        fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        Ok(v)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// [`replace_file`] with `bytes` as the new contents.
fn write_file(path: &Path, bytes: &[u8]) -> Result<(), CorpusError> {
    replace_file(path, |tmp| {
        fs::write(tmp, bytes).map_err(|e| io_err(tmp, e))
    })
}

/// Upgrade every snapshot file of a corpus directory to the aligned
/// layout ([`Snapshot::encode_aligned`]) in place, via a temp file and
/// rename per snapshot. Already-aligned files are left untouched;
/// returns how many were rewritten. Replay results are byte-identical
/// across the migration — both layouts encode the same sorted address
/// section, the aligned one just serves it without a decode copy.
pub fn migrate_corpus(dir: &Path) -> Result<usize, CorpusError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
    let manifest = CorpusManifest::parse(&text)?;
    manifest.check_complete()?;
    fn rewrite<F: AddrFamily>(path: &Path, bytes: &[u8]) -> Result<(), CorpusError> {
        let snap = Snapshot::<F>::decode(bytes).map_err(|source| CorpusError::Decode {
            path: path.to_path_buf(),
            source,
        })?;
        write_file(path, &snap.encode_aligned())
    }
    let mut rewritten = 0usize;
    for rel in manifest.snapshots.values() {
        let path = dir.join(rel);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if bytes.get(4) == Some(&crate::snapshot::VERSION_ALIGNED) {
            continue;
        }
        // The magic names the family; dispatch so each file decodes
        // under the width it was written with.
        if bytes.starts_with(b"TSS6") {
            rewrite::<V6>(&path, &bytes)?;
        } else {
            rewrite::<V4>(&path, &bytes)?;
        }
        rewritten += 1;
    }
    Ok(rewritten)
}

// ------------------------------------------------------------ manifest

/// The parsed corpus index: what months, protocols, and files a corpus
/// directory holds. Serialised as a plain-text file
/// ([`MANIFEST_FILE`]):
///
/// ```text
/// tass-corpus 1
/// months 6
/// protocols ftp http https cwmp
/// topology topology.pfx2as
/// snapshot 0 ftp snapshots/m0-ftp.snap
/// …
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusManifest {
    /// Layout version (see [`CORPUS_VERSION`]).
    pub version: u32,
    /// Months after t₀ (snapshots per protocol = `months + 1`).
    pub months: u32,
    /// Protocols the corpus covers, in manifest order.
    pub protocols: Vec<Protocol>,
    /// Topology file path, relative to the corpus directory.
    pub topology: String,
    /// Snapshot file paths by `(month, protocol)`, relative to the
    /// corpus directory.
    pub snapshots: BTreeMap<(u32, Protocol), String>,
}

impl CorpusManifest {
    /// Parse the manifest text format. Structural problems (bad
    /// directives, duplicate cells) are [`CorpusError::Manifest`] /
    /// [`CorpusError::DuplicateSnapshot`]; completeness is checked
    /// separately by [`CorpusManifest::check_complete`].
    pub fn parse(text: &str) -> Result<CorpusManifest, CorpusError> {
        let err = |line: usize, text: &str, reason: &str| CorpusError::Manifest {
            line,
            text: text.to_string(),
            reason: reason.to_string(),
        };
        let mut lines = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            lines.push((i + 1, t));
        }
        let Some(&(first_no, first)) = lines.first() else {
            return Err(err(1, "", "empty manifest"));
        };
        let version = match first.strip_prefix("tass-corpus ") {
            Some(v) => v
                .trim()
                .parse::<u32>()
                .map_err(|_| err(first_no, first, "bad version number"))?,
            None => {
                return Err(err(
                    first_no,
                    first,
                    "expected `tass-corpus <version>` header",
                ))
            }
        };
        if version != CORPUS_VERSION {
            return Err(CorpusError::UnsupportedVersion(version));
        }

        let mut months: Option<u32> = None;
        let mut protocols: Vec<Protocol> = Vec::new();
        let mut topology: Option<String> = None;
        let mut snapshots: BTreeMap<(u32, Protocol), String> = BTreeMap::new();
        for &(no, line) in &lines[1..] {
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match directive {
                "months" => {
                    months = Some(rest.parse().map_err(|_| err(no, line, "bad month count"))?);
                }
                "protocols" => {
                    for tag in rest.split_whitespace() {
                        let p: Protocol =
                            tag.parse().map_err(|_| err(no, line, "unknown protocol"))?;
                        if protocols.contains(&p) {
                            return Err(err(no, line, "protocol listed twice"));
                        }
                        protocols.push(p);
                    }
                }
                "topology" => {
                    if rest.is_empty() {
                        return Err(err(no, line, "missing topology path"));
                    }
                    topology = Some(rest.to_string());
                }
                "snapshot" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    let [month, proto, path] = fields.as_slice() else {
                        return Err(err(no, line, "expected `snapshot <month> <proto> <path>`"));
                    };
                    let month: u32 = month.parse().map_err(|_| err(no, line, "bad month"))?;
                    let proto: Protocol = proto
                        .parse()
                        .map_err(|_| err(no, line, "unknown protocol"))?;
                    if snapshots.insert((month, proto), path.to_string()).is_some() {
                        return Err(CorpusError::DuplicateSnapshot {
                            month,
                            protocol: proto,
                        });
                    }
                }
                _ => return Err(err(no, line, "unknown directive")),
            }
        }
        let months = months.ok_or_else(|| err(first_no, first, "missing `months` directive"))?;
        let topology =
            topology.ok_or_else(|| err(first_no, first, "missing `topology` directive"))?;
        if protocols.is_empty() {
            return Err(err(first_no, first, "missing `protocols` directive"));
        }
        Ok(CorpusManifest {
            version,
            months,
            protocols,
            topology,
            snapshots,
        })
    }

    /// Check the month × protocol matrix is fully populated: every
    /// `(0..=months, protocol)` cell has a snapshot entry.
    pub fn check_complete(&self) -> Result<(), CorpusError> {
        for &proto in &self.protocols {
            for month in 0..=self.months {
                if !self.snapshots.contains_key(&(month, proto)) {
                    return Err(CorpusError::MissingMonth {
                        month,
                        protocol: proto,
                    });
                }
            }
        }
        Ok(())
    }

    /// Render the manifest text (inverse of [`CorpusManifest::parse`]).
    pub fn render(&self) -> String {
        let mut out = format!("tass-corpus {}\n", self.version);
        out.push_str(&format!("months {}\n", self.months));
        let tags: Vec<&str> = self.protocols.iter().map(|p| p.tag()).collect();
        out.push_str(&format!("protocols {}\n", tags.join(" ")));
        out.push_str(&format!("topology {}\n", self.topology));
        for ((month, proto), path) in &self.snapshots {
            out.push_str(&format!("snapshot {month} {} {path}\n", proto.tag()));
        }
        out
    }
}

// ------------------------------------------------------------- builder

/// Incremental corpus writer: create against a routing table, add one
/// snapshot (binary or plain-text address list) per `(month, protocol)`,
/// then [`CorpusBuilder::finish`] to validate completeness and write the
/// manifest.
#[derive(Debug)]
pub struct CorpusBuilder {
    dir: PathBuf,
    protocols: Vec<Protocol>,
    snapshots: BTreeMap<(u32, Protocol), String>,
    max_month: u32,
}

impl CorpusBuilder {
    /// Create the corpus directory (and `snapshots/` inside it) and
    /// write the topology file from a routing table.
    pub fn create(dir: &Path, table: &RouteTable) -> Result<CorpusBuilder, CorpusError> {
        if table.is_empty() {
            return Err(CorpusError::EmptyTopology);
        }
        let snap_dir = dir.join(SNAPSHOT_DIR);
        fs::create_dir_all(&snap_dir).map_err(|e| io_err(&snap_dir, e))?;
        let topo_path = dir.join(TOPOLOGY_FILE);
        write_file(&topo_path, pfx2as::write_table_str(table).as_bytes())?;
        Ok(CorpusBuilder {
            dir: dir.to_path_buf(),
            protocols: Vec::new(),
            snapshots: BTreeMap::new(),
            max_month: 0,
        })
    }

    /// Add one month's snapshot. The `(month, protocol)` cell must be
    /// new; a second claim is [`CorpusError::DuplicateSnapshot`].
    pub fn add_snapshot(&mut self, snap: &Snapshot) -> Result<(), CorpusError> {
        let key = (snap.month, snap.protocol);
        if self.snapshots.contains_key(&key) {
            return Err(CorpusError::DuplicateSnapshot {
                month: snap.month,
                protocol: snap.protocol,
            });
        }
        let rel = format!(
            "{SNAPSHOT_DIR}/m{}-{}.snap",
            snap.month,
            snap.protocol.tag()
        );
        let path = self.dir.join(&rel);
        // new corpora are written in the aligned v2 layout; readers
        // accept both, and `migrate_corpus` upgrades old directories
        write_file(&path, &snap.encode_aligned())?;
        if !self.protocols.contains(&snap.protocol) {
            self.protocols.push(snap.protocol);
        }
        self.max_month = self.max_month.max(snap.month);
        self.snapshots.insert(key, rel);
        Ok(())
    }

    /// Ingest one month from a plain-text address list (see
    /// [`parse_address_list`]).
    pub fn add_address_list(
        &mut self,
        month: u32,
        protocol: Protocol,
        text: &str,
    ) -> Result<(), CorpusError> {
        let hosts = parse_address_list(text).map_err(CorpusError::AddressList)?;
        self.add_snapshot(&Snapshot::new(protocol, month, hosts))
    }

    /// Ingest one month from a plain-text address-list **file** through
    /// the chunked streaming path
    /// ([`stream_address_list_to_snapshot`]): O(workers · chunk) peak
    /// memory however large the list, written directly in the aligned
    /// snapshot layout. Produces the identical host set to reading the
    /// whole file through [`CorpusBuilder::add_address_list`].
    pub fn add_address_list_file(
        &mut self,
        month: u32,
        protocol: Protocol,
        input: &Path,
        opts: &IngestOptions,
    ) -> Result<(), CorpusError> {
        let key = (month, protocol);
        if self.snapshots.contains_key(&key) {
            return Err(CorpusError::DuplicateSnapshot { month, protocol });
        }
        let rel = format!("{SNAPSHOT_DIR}/m{month}-{}.snap", protocol.tag());
        let path = self.dir.join(&rel);
        stream_address_list_to_snapshot::<V4>(input, &path, month, protocol, opts)?;
        if !self.protocols.contains(&protocol) {
            self.protocols.push(protocol);
        }
        self.max_month = self.max_month.max(month);
        self.snapshots.insert(key, rel);
        Ok(())
    }

    /// Validate completeness (every `(month, protocol)` cell filled for
    /// every added protocol up to the highest month seen), write the
    /// manifest, and return it.
    pub fn finish(self) -> Result<CorpusManifest, CorpusError> {
        if self.protocols.is_empty() {
            return Err(CorpusError::Manifest {
                line: 0,
                text: String::new(),
                reason: "corpus has no snapshots".to_string(),
            });
        }
        let manifest = CorpusManifest {
            version: CORPUS_VERSION,
            months: self.max_month,
            protocols: self.protocols,
            topology: TOPOLOGY_FILE.to_string(),
            snapshots: self.snapshots,
        };
        manifest.check_complete()?;
        let path = self.dir.join(MANIFEST_FILE);
        write_file(&path, manifest.render().as_bytes())?;
        Ok(manifest)
    }
}

/// Export a generated [`Universe`] to a corpus directory: its routing
/// table as pfx2as text plus every `(month, protocol)` snapshot in the
/// binary codec. The `corpus` exhibit and `tests/corpus.rs` prove the
/// round-trip is lossless: replaying the directory yields byte-identical
/// campaign results to running on the universe directly.
pub fn export_universe(universe: &Universe, dir: &Path) -> Result<CorpusManifest, CorpusError> {
    let mut builder = CorpusBuilder::create(dir, &universe.topology().synth.table)?;
    for proto in Protocol::ALL {
        for month in 0..=universe.months() {
            builder.add_snapshot(universe.snapshot(month, proto))?;
        }
    }
    builder.finish()
}

// -------------------------------------------------------------- replay

/// How a [`CorpusGroundTruth`] bounds its decoded-month cache.
#[derive(Debug, Clone)]
pub struct CorpusOptions {
    /// Maximum decoded months retained (at least 1 is always kept so
    /// the month being replayed cannot thrash).
    pub cache_snapshots: usize,
    /// Optional hard ceiling on resident snapshot bytes
    /// ([`Snapshot::resident_bytes`] — for mapped months, the shared
    /// file buffer). Eviction drops least-recently-touched months
    /// until the total fits; a single month larger than the ceiling
    /// still stays resident while it is being served.
    pub cache_bytes: Option<usize>,
}

impl Default for CorpusOptions {
    fn default() -> Self {
        CorpusOptions {
            cache_snapshots: DEFAULT_CACHE_SNAPSHOTS,
            cache_bytes: None,
        }
    }
}

/// One cached month: the decoded snapshot, its byte charge, and an
/// atomic recency stamp (bumped on hit without any exclusive lock).
#[derive(Debug)]
struct CacheEntry {
    key: (u32, Protocol),
    snap: Arc<Snapshot>,
    bytes: usize,
    touched: AtomicU64,
}

/// The decoded-month cache: a small vector behind a reader/writer lock.
/// Hits take the shared side (linear scan at single-digit sizes beats
/// any map) and bump the entry's recency stamp with a relaxed store —
/// replay workers sharing warm months never serialise. Only a miss
/// takes the writer side, inserting and evicting
/// least-recently-touched entries down to both budgets.
#[derive(Debug)]
struct SnapshotCache {
    max_entries: usize,
    max_bytes: Option<usize>,
    clock: AtomicU64,
    entries: RwLock<Vec<CacheEntry>>,
}

impl SnapshotCache {
    fn new(max_entries: usize, max_bytes: Option<usize>) -> SnapshotCache {
        SnapshotCache {
            max_entries: max_entries.max(1),
            max_bytes,
            clock: AtomicU64::new(0),
            entries: RwLock::new(Vec::new()),
        }
    }

    fn get(&self, key: (u32, Protocol)) -> Option<Arc<Snapshot>> {
        let entries = self.entries.read().expect("snapshot cache poisoned");
        let e = entries.iter().find(|e| e.key == key)?;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        e.touched.store(stamp, Ordering::Relaxed);
        Some(Arc::clone(&e.snap))
    }

    fn put(&self, key: (u32, Protocol), snap: Arc<Snapshot>) {
        let bytes = snap.resident_bytes();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.write().expect("snapshot cache poisoned");
        // two workers can miss the same month concurrently (loads happen
        // outside the lock); drop the older copy so a duplicate key never
        // wastes a slot
        entries.retain(|e| e.key != key);
        entries.push(CacheEntry {
            key,
            snap,
            bytes,
            touched: AtomicU64::new(stamp),
        });
        loop {
            let total: usize = entries.iter().map(|e| e.bytes).sum();
            let over =
                entries.len() > self.max_entries || self.max_bytes.is_some_and(|cap| total > cap);
            if !over || entries.len() <= 1 {
                break;
            }
            let coldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("non-empty cache");
            entries.remove(coldest);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.read().expect("snapshot cache poisoned").len()
    }
}

/// A corpus directory opened for replay: the [`GroundTruth`] over real
/// (or exported) monthly scan data.
///
/// Opening reads and validates the manifest and builds the [`Topology`]
/// from the pfx2as table; snapshots are decoded **lazily**, one month
/// at a time as the campaign loop asks for them — mapped in place
/// ([`Snapshot::decode_mapped`]) and retained in a small read-optimized
/// cache bounded by entry count and an optional byte ceiling
/// ([`CorpusOptions`]). The type is `Sync`, so campaign pools replay
/// one corpus from many worker threads, and warm months are served
/// without any exclusive lock. Each month is checked against the
/// topology on first decode: a host outside announced space is
/// [`CorpusError::TopologyMismatch`], because a snapshot that disagrees
/// with its routing table would silently zero the attribution step of
/// every strategy.
#[derive(Debug)]
pub struct CorpusGroundTruth {
    dir: PathBuf,
    manifest: CorpusManifest,
    topology: Topology,
    cache: SnapshotCache,
}

impl CorpusGroundTruth {
    /// Open a corpus directory with the default cache bounds.
    pub fn open(dir: &Path) -> Result<CorpusGroundTruth, CorpusError> {
        CorpusGroundTruth::open_with(dir, &CorpusOptions::default())
    }

    /// Open a corpus directory, retaining up to `capacity` decoded
    /// months in memory (no byte ceiling).
    pub fn with_cache_capacity(
        dir: &Path,
        capacity: usize,
    ) -> Result<CorpusGroundTruth, CorpusError> {
        CorpusGroundTruth::open_with(
            dir,
            &CorpusOptions {
                cache_snapshots: capacity,
                cache_bytes: None,
            },
        )
    }

    /// Open a corpus directory with explicit cache bounds.
    pub fn open_with(dir: &Path, opts: &CorpusOptions) -> Result<CorpusGroundTruth, CorpusError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let manifest = CorpusManifest::parse(&text)?;
        manifest.check_complete()?;
        let topo_path = dir.join(&manifest.topology);
        let topo_text = fs::read_to_string(&topo_path).map_err(|e| io_err(&topo_path, e))?;
        let table = pfx2as::read_table(topo_text.as_bytes()).map_err(CorpusError::Pfx2As)?;
        if table.is_empty() {
            return Err(CorpusError::EmptyTopology);
        }
        // A corpus table carries no AS behavioural metadata (that is a
        // synthesis concept); campaigns only consume the views.
        let topology = Topology::build(SynthTable {
            table,
            ases: Vec::new(),
            class_by_asn: BTreeMap::new(),
        });
        Ok(CorpusGroundTruth {
            dir: dir.to_path_buf(),
            manifest,
            topology,
            cache: SnapshotCache::new(opts.cache_snapshots, opts.cache_bytes),
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Eagerly load and check every snapshot once (headers, codec,
    /// topology agreement) without retaining them — a corpus lint pass
    /// for ingestion pipelines. The lazy replay path performs the same
    /// checks per month on first touch.
    pub fn validate(&self) -> Result<(), CorpusError> {
        for &proto in &self.manifest.protocols {
            for month in 0..=self.manifest.months {
                self.load_from_disk(month, proto)?;
            }
        }
        Ok(())
    }

    fn load_from_disk(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        let rel = self
            .manifest
            .snapshots
            .get(&(month, protocol))
            .ok_or(CorpusError::MissingMonth { month, protocol })?;
        let path = self.dir.join(rel);
        let bytes = Bytes::from(fs::read(&path).map_err(|e| io_err(&path, e))?);
        let snap = Snapshot::decode_mapped(bytes).map_err(|source| CorpusError::Decode {
            path: path.clone(),
            source,
        })?;
        if snap.month != month || snap.protocol != protocol {
            return Err(CorpusError::SnapshotHeaderMismatch {
                path,
                expected_month: month,
                expected_protocol: protocol,
                found_month: snap.month,
                found_protocol: snap.protocol,
            });
        }
        // Topology agreement as a counting sweep: the scan units
        // partition announced space into sorted disjoint prefixes, so
        // hosts covered == hosts total ⇔ every host is attributable —
        // O(units · log gap) for the common all-good case instead of a
        // trie walk per host. Only a mismatch pays a naming pass.
        let units = self.topology.m_view.units();
        let covered =
            PrefixCount::count_prefixes_total(&snap.hosts, &mut units.iter().map(|u| u.prefix));
        if covered as usize != snap.hosts.len() {
            for addr in snap.hosts.iter() {
                if self.topology.block_of_addr(addr).is_none() {
                    return Err(CorpusError::TopologyMismatch {
                        month,
                        protocol,
                        addr: std::net::Ipv4Addr::from(addr).to_string(),
                    });
                }
            }
        }
        Ok(Arc::new(snap))
    }
}

impl GroundTruth for CorpusGroundTruth {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn months(&self) -> u32 {
        self.manifest.months
    }

    fn protocols(&self) -> Vec<Protocol> {
        self.manifest.protocols.clone()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        if !self.manifest.protocols.contains(&protocol) {
            return Err(CorpusError::MissingProtocol { protocol });
        }
        let key = (month, protocol);
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        // load outside any lock: a matrix's worker threads should
        // overlap disk reads, not serialise on the cache
        let snap = self.load_from_disk(month, protocol)?;
        self.cache.put(key, Arc::clone(&snap));
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tass-corpus-unit-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_roundtrip() {
        let u = Universe::generate(&UniverseConfig::small(11));
        let dir = tmp("manifest");
        let manifest = export_universe(&u, &dir).unwrap();
        assert_eq!(manifest.version, CORPUS_VERSION);
        assert_eq!(manifest.months, 6);
        assert_eq!(manifest.protocols, Protocol::ALL.to_vec());
        assert_eq!(manifest.snapshots.len(), 28);
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(CorpusManifest::parse(&text).unwrap(), manifest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_then_replay_serves_identical_snapshots() {
        let u = Universe::generate(&UniverseConfig::small(12));
        let dir = tmp("roundtrip");
        export_universe(&u, &dir).unwrap();
        let corpus = CorpusGroundTruth::open(&dir).unwrap();
        corpus.validate().unwrap();
        assert_eq!(GroundTruth::months(&corpus), u.months());
        for proto in Protocol::ALL {
            for month in 0..=u.months() {
                let replayed = corpus.load_snapshot(month, proto).unwrap();
                assert_eq!(&*replayed, u.snapshot(month, proto));
            }
        }
        // and the replayed topology carries the same views
        assert_eq!(
            corpus.topology.m_view.units().len(),
            u.topology().m_view.units().len()
        );
        assert_eq!(
            corpus.topology.announced_space(),
            u.topology().announced_space()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_retains_and_evicts_least_recently_touched() {
        let c = SnapshotCache::new(2, None);
        let snap = |m| Arc::new(Snapshot::new(Protocol::Http, m, HostSet::default()));
        c.put((0, Protocol::Http), snap(0));
        c.put((1, Protocol::Http), snap(1));
        assert!(c.get((0, Protocol::Http)).is_some(), "still cached");
        c.put((2, Protocol::Http), snap(2)); // evicts month 1 (least recent)
        assert!(c.get((1, Protocol::Http)).is_none(), "evicted");
        assert!(c.get((0, Protocol::Http)).is_some());
        assert!(c.get((2, Protocol::Http)).is_some());
        // a racing double-insert of one key must not waste a slot
        c.put((2, Protocol::Http), snap(2));
        c.put((2, Protocol::Http), snap(2));
        assert_eq!(c.len(), 2, "duplicate key deduped");
        assert!(c.get((0, Protocol::Http)).is_some(), "other key survives");
    }

    #[test]
    fn cache_byte_ceiling_evicts_by_bytes_not_count() {
        // each owned snapshot charges 4 bytes per host
        let snap = |m, hosts: &[u32]| {
            Arc::new(Snapshot::new(
                Protocol::Http,
                m,
                HostSet::from_addrs(hosts.to_vec()),
            ))
        };
        let c = SnapshotCache::new(100, Some(30));
        c.put((0, Protocol::Http), snap(0, &[1, 2, 3])); // 12 bytes
        c.put((1, Protocol::Http), snap(1, &[4, 5, 6])); // 24 total
        assert_eq!(c.len(), 2);
        c.put((2, Protocol::Http), snap(2, &[7, 8, 9])); // 36 > 30: evict
        assert_eq!(c.len(), 2, "byte ceiling forced an eviction");
        assert!(c.get((0, Protocol::Http)).is_none(), "coldest went first");
        assert!(c.get((2, Protocol::Http)).is_some());
        // one month larger than the whole ceiling still stays resident
        let big: Vec<u32> = (0..100).collect();
        c.put((3, Protocol::Http), snap(3, &big));
        assert_eq!(c.len(), 1, "oversized month kept, everything else out");
        assert!(c.get((3, Protocol::Http)).is_some());
    }

    #[test]
    fn streamed_ingestion_matches_one_shot_builder() {
        let dir = tmp("stream-eq");
        fs::create_dir_all(&dir).unwrap();
        let text = "# head\n10.0.0.2\n10.0.0.1\n\n10.0.0.2 # dup\n10.0.9.9\n";
        let input = dir.join("list.txt");
        fs::write(&input, text).unwrap();
        let out = dir.join("m0-http.snap");
        for chunk_lines in [1usize, 2, 1024] {
            let opts = IngestOptions {
                workers: 3,
                chunk_lines,
            };
            let n = stream_address_list_to_snapshot::<V4>(&input, &out, 0, Protocol::Http, &opts)
                .unwrap();
            assert_eq!(n, 3);
            let streamed = Snapshot::decode(&fs::read(&out).unwrap()).unwrap();
            let oneshot = Snapshot::new(Protocol::Http, 0, parse_address_list(text).unwrap());
            assert_eq!(streamed, oneshot, "chunk_lines={chunk_lines}");
            // and the mapped reader serves the same set
            let mapped =
                Snapshot::<V4>::decode_mapped(Bytes::from(fs::read(&out).unwrap())).unwrap();
            assert_eq!(mapped, oneshot);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs longer than one merge block, interleaved and overlapping,
    /// so the merge refills a run's block while other runs wait, and a
    /// refilled block may start past the next run's head; and a list
    /// longer than one read block, so a chunk and a line straddle two.
    #[test]
    fn streamed_ingestion_merges_runs_longer_than_a_block() {
        let dir = tmp("stream-long-runs");
        fs::create_dir_all(&dir).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // 20k v4 addresses of 15 bytes a line (300 KB) from a small
        // range (many duplicates), in random order, then in sorted
        // stretches: 4 runs of 5000 lines, each over two merge blocks
        let v4: Vec<u32> = (0..20_000)
            .map(|_| 0xC0A8_0000 | (next() % 30_000) as u32)
            .collect();
        let mut sorted_runs = v4.clone();
        sorted_runs.chunks_mut(5000).for_each(|c| c.sort_unstable());
        for addrs in [&v4, &sorted_runs] {
            let text: String = addrs
                .iter()
                .map(|&a| format!("{}\n", std::net::Ipv4Addr::from(a)))
                .collect();
            assert_matches_reference::<V4>(&dir, &text, 2, 5000);
        }
        // 16-byte addresses fill a block in 512
        let v6: Vec<u128> = (0..3000).map(|_| u128::from(next() % 5000) << 64).collect();
        let text: String = v6
            .iter()
            .map(|&a| format!("{}\n", std::net::Ipv6Addr::from(a)))
            .collect();
        assert_matches_reference::<V6>(&dir, &text, 3, 1000);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nth_newline_finds_the_kth_newline_or_counts_them() {
        let bytes: Vec<u8> = (0..2000u32)
            .map(|i| {
                if i % 7 == 0 || i % 13 == 0 {
                    b'\n'
                } else {
                    b'1'
                }
            })
            .collect();
        let at: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        for k in 1..=at.len() {
            assert_eq!(nth_newline(&bytes, k), Ok(at[k - 1]), "k={k}");
        }
        assert_eq!(nth_newline(&bytes, at.len() + 1), Err(at.len()));
        assert_eq!(nth_newline(b"", 1), Err(0));
    }

    #[test]
    fn streamed_ingestion_reports_lowest_bad_line_with_path() {
        let dir = tmp("stream-err");
        fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("10.0.0.{i}\n"));
        }
        text.insert_str(18, "bogus-one\n"); // after two 9-byte lines: line 3
        text.push_str("bogus-two\n");
        let input = dir.join("list.txt");
        fs::write(&input, &text).unwrap();
        let out = dir.join("m0-http.snap");
        let opts = IngestOptions {
            workers: 4,
            chunk_lines: 2,
        };
        let e = stream_address_list_to_snapshot::<V4>(&input, &out, 0, Protocol::Http, &opts)
            .unwrap_err();
        match e {
            CorpusError::AddressListFile { path, source } => {
                assert_eq!(path, input);
                assert_eq!(source.line, 3, "lowest bad line wins");
                assert_eq!(source.text, "bogus-one");
            }
            other => panic!("expected AddressListFile, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_corpus_writes_leave_no_temp_files() {
        let u = Universe::generate(&UniverseConfig::small(14));
        let dir = tmp("no-temp");
        let mut builder = CorpusBuilder::create(&dir, &u.topology().synth.table).unwrap();
        let snap_dir = dir.join(SNAPSHOT_DIR);
        let input = dir.join("list.txt");
        let opts = IngestOptions {
            workers: 2,
            chunk_lines: 3,
        };
        // a bad line fails the parse phase
        fs::write(&input, "10.0.0.1\n10.0.0.2\nbogus\n10.0.0.3\n").unwrap();
        let e = builder.add_address_list_file(0, Protocol::Http, &input, &opts);
        assert!(
            matches!(e, Err(CorpusError::AddressListFile { .. })),
            "{e:?}"
        );
        // a directory where the snapshot goes fails the merge's rename,
        // the snapshot writer's rename, and the manifest's
        fs::write(&input, "10.0.0.1\n10.0.0.2\n10.0.0.3\n").unwrap();
        fs::create_dir_all(snap_dir.join("m0-http.snap").join("x")).unwrap();
        let e = builder.add_address_list_file(0, Protocol::Http, &input, &opts);
        assert!(matches!(e, Err(CorpusError::Io { .. })), "{e:?}");
        let snap = Snapshot::new(Protocol::Http, 0, HostSet::from_addrs(vec![1u32, 2]));
        assert!(matches!(
            builder.add_snapshot(&snap),
            Err(CorpusError::Io { .. })
        ));
        let mut builder = CorpusBuilder::create(&dir, &u.topology().synth.table).unwrap();
        builder
            .add_snapshot(&Snapshot::new(Protocol::Ftp, 0, snap.hosts.clone()))
            .unwrap();
        fs::create_dir_all(dir.join(MANIFEST_FILE).join("x")).unwrap();
        let e = builder.finish();
        assert!(matches!(e, Err(CorpusError::Io { .. })), "{e:?}");
        for d in [&dir, &snap_dir] {
            for entry in fs::read_dir(d).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                assert!(
                    !name.ends_with(".tmp") && !name.ends_with(".ingest-tmp"),
                    "{name} left behind in {}",
                    d.display()
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn migrate_rewrites_v1_to_aligned_once() {
        let u = Universe::generate(&UniverseConfig::small(13));
        let dir = tmp("migrate");
        export_universe(&u, &dir).unwrap();
        // the export writes the aligned layout already; stage a legacy
        // corpus by downgrading every snapshot file to v1
        for entry in fs::read_dir(dir.join(SNAPSHOT_DIR)).unwrap() {
            let path = entry.unwrap().path();
            let snap = Snapshot::<V4>::decode(&fs::read(&path).unwrap()).unwrap();
            fs::write(&path, snap.encode()).unwrap();
        }
        let before = CorpusGroundTruth::open(&dir).unwrap();
        let snap_before = before.load_snapshot(0, Protocol::Http).unwrap();
        let n = migrate_corpus(&dir).unwrap();
        assert_eq!(n, 28, "every v1 snapshot rewritten");
        assert_eq!(migrate_corpus(&dir).unwrap(), 0, "second run is a no-op");
        let after = CorpusGroundTruth::open(&dir).unwrap();
        after.validate().unwrap();
        let snap_after = after.load_snapshot(0, Protocol::Http).unwrap();
        assert_eq!(&*snap_after, &*snap_before);
        assert!(snap_after.hosts.is_mapped());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn address_list_parses_and_reports_line_context() {
        let hs = parse_address_list("# seed\n1.2.3.4\n\n5.6.7.8 # inline\n").unwrap();
        assert_eq!(hs.len(), 2);
        let e = parse_address_list("1.2.3.4\nnot-an-ip\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "not-an-ip");
        assert!(e.to_string().contains("line 2"));
        // a v6 literal in a v4 list is an error *with the line named*
        let e = parse_address_list("1.2.3.4\n2001:db8::1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, "2001:db8::1");
        // …while the v6 reader accepts it
        let hs = parse_address_list_family::<tass_net::V6>("2001:db8::1\n").unwrap();
        assert_eq!(hs.len(), 1);
    }

    /// The reference line grammar: one `str::lines()` line at a time,
    /// `#` comment cut, `trim()`, the family's `FromStr`. Returns the
    /// sorted, deduplicated set, or the first bad line and its text.
    fn reference_parse<F: AddrFamily>(text: &str) -> Result<Vec<F::Addr>, (usize, String)> {
        let mut addrs = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split_once('#').map_or(raw, |(before, _)| before).trim();
            if line.is_empty() {
                continue;
            }
            match F::parse_addr(line) {
                Some(a) => addrs.push(a),
                None => return Err((i + 1, line.to_string())),
            }
        }
        addrs.sort_unstable();
        addrs.dedup();
        Ok(addrs)
    }

    /// Both list readers — the one-shot text parser and the streamed
    /// file ingester — agree with [`reference_parse`] on `text`.
    fn assert_matches_reference<F: AddrFamily>(
        dir: &Path,
        text: &str,
        workers: usize,
        chunk_lines: usize,
    ) {
        let want = reference_parse::<F>(text);
        let ctx = format!("{text:?} workers={workers} chunk_lines={chunk_lines}");
        match (&want, parse_address_list_family::<F>(text)) {
            (Ok(addrs), Ok(hs)) => assert_eq!(hs, HostSet::from_addrs(addrs.clone()), "{ctx}"),
            (Err(w), Err(e)) => assert_eq!((e.line, e.text.as_str()), (w.0, w.1.as_str()), "{ctx}"),
            (w, got) => panic!("one-shot parser: want {w:?}, got {got:?} for {ctx}"),
        }
        let input = dir.join("list.txt");
        fs::write(&input, text).unwrap();
        let out = dir.join("m0-http.snap");
        let opts = IngestOptions {
            workers,
            chunk_lines,
        };
        let got = stream_address_list_to_snapshot::<F>(&input, &out, 0, Protocol::Http, &opts);
        match (&want, got) {
            (Ok(addrs), Ok(n)) => {
                assert_eq!(n, addrs.len() as u64, "{ctx}");
                let snap = Snapshot::<F>::decode(&fs::read(&out).unwrap()).unwrap();
                assert_eq!(snap.hosts, HostSet::from_addrs(addrs.clone()), "{ctx}");
            }
            (Err(w), Err(CorpusError::AddressListFile { path, source })) => {
                assert_eq!(path, input, "{ctx}");
                assert_eq!(
                    (source.line, source.text.as_str()),
                    (w.0, w.1.as_str()),
                    "{ctx}"
                );
            }
            (w, got) => panic!("streamed ingest: want {w:?}, got {got:?} for {ctx}"),
        }
    }

    /// One hostile IPv4 list line from a generated `(kind, addr, pick)`:
    /// kinds below 232 parse (or are skipped) under the reference
    /// grammar, the rest are bad lines of every shape the grammar must
    /// reject.
    fn hostile_v4_line(kind: u8, addr: u32, pick: u64) -> String {
        let a = std::net::Ipv4Addr::from(addr).to_string();
        let o = addr.to_be_bytes();
        let spaces = ["\t", " ", "\x0B", "\u{A0}", "\u{2003}", "\x0C", " \t "];
        let sp = spaces[(pick % spaces.len() as u64) as usize];
        let sp2 = spaces[((pick >> 8) % spaces.len() as u64) as usize];
        match kind {
            0..=119 => a,
            120..=139 => format!("{sp}{a}{sp2}"),
            140..=149 => format!("{a}#{pick:x}"),
            150..=159 => format!("{a}{sp}# 01.2.3.4 {sp2}"),
            160..=169 => format!("# {a} whole-line comment"),
            170..=179 => String::new(),
            180..=189 => sp.to_string(),
            190..=199 => ["0.0.0.0", "255.255.255.255", "0.10.0.9", "10.0.0.0"]
                [(pick % 4) as usize]
                .to_string(),
            200..=209 => format!("{a}\r"),
            210..=219 => format!("{sp}#"),
            220..=231 => format!("{}.{}.{}.{}", o[0], o[1], o[2], o[3]),
            // bad lines
            232 => format!("0{a}"),
            233 => format!("{}.0{}.{}.{}", o[0], o[1], o[2], o[3]),
            234 => format!("{}.{}.{}.{}", o[0], o[1], o[2], 256 + (pick % 744)),
            235 => format!("+{a}"),
            236 => format!("{}.{}.{}", o[0], o[1], o[2]),
            237 => format!("{a}.{}", o[3]),
            238 => std::net::Ipv6Addr::from(u128::from(addr) << 64 | 1).to_string(),
            239 => format!("{a}."),
            240 => format!(".{a}"),
            241 => format!("{}..{}.{}", o[0], o[1], o[2]),
            242 => format!("{}{:03}.{}.{}.{}", pick % 10, o[0], o[1], o[2], o[3]),
            243 => format!("{a}x"),
            244 => format!("{} .{}.{}.{}", o[0], o[1], o[2], o[3]),
            245 => format!("{a}\r{a}"),
            246 => "\u{661}.2.3.4".to_string(),
            247 => format!("{}.{}.{}.-{}", o[0], o[1], o[2], o[3]),
            248 => "00.1.2.3".to_string(),
            249 => format!("{a}{sp}{a}"),
            250 => "1.2.3.4/24".to_string(),
            251 => format!("::ffff:{a}"),
            252 => format!("{}.{}.{}.{}", o[0], o[1], o[2], 1000 + pick % 9000),
            253 => "0x1.2.3.4".to_string(),
            254 => "1.2.3.04".to_string(),
            _ => "not-an-address".to_string(),
        }
    }

    /// One hostile IPv6 list line, in the same shape as
    /// [`hostile_v4_line`].
    fn hostile_v6_line(kind: u8, addr: u128, pick: u64) -> String {
        let a = std::net::Ipv6Addr::from(addr).to_string();
        let spaces = ["\t", " ", "\x0B", "\u{A0}", "\u{2003}", "\x0C"];
        let sp = spaces[(pick % spaces.len() as u64) as usize];
        match kind {
            0..=119 => a,
            120..=139 => format!("{sp}{a}{sp}"),
            140..=159 => format!("{a} # {pick:x}"),
            160..=179 => format!("# {a}"),
            180..=189 => String::new(),
            190..=199 => format!("{a}\r"),
            200..=209 => format!("::ffff:{}", std::net::Ipv4Addr::from(addr as u32)),
            210..=231 => std::net::Ipv6Addr::from(addr & 0xFFFF_FFFF).to_string(),
            // bad lines
            232..=235 => std::net::Ipv4Addr::from(addr as u32).to_string(),
            236..=239 => format!("{a}::"),
            240..=243 => format!(":{a}"),
            244..=247 => format!("{a}%eth0"),
            248..=251 => format!("{a}g"),
            _ => "2001:db8:::1".to_string(),
        }
    }

    /// Join generated lines with `\n` or `\r\n`, and end the text with a
    /// newline, without one, or with a bare `\r`.
    fn join_hostile_lines(lines: &[String], ends: u64) -> String {
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            text.push_str(line);
            if i + 1 < lines.len() {
                text.push_str(if (ends >> (i % 61)) & 1 == 1 {
                    "\r\n"
                } else {
                    "\n"
                });
            }
        }
        if !lines.is_empty() {
            text.push_str(["\n", "", "\r", "\r\n"][(ends >> 62) as usize]);
        }
        text
    }

    #[test]
    fn list_grammar_matches_the_reference_on_fixed_edge_cases() {
        let dir = tmp("grammar-fixed");
        fs::create_dir_all(&dir).unwrap();
        let v4 = [
            "",
            "\n",
            "\r",
            "\r\n",
            "1.2.3.4",
            "1.2.3.4\r",
            "1.2.3.4\r\r\n",
            "1.2.3.4\n\n",
            "01.2.3.4\n",
            "1.2.3.256\n",
            "+1.2.3.4\n",
            "1.2.3\n",
            "1.2.3.4.5\n",
            "\t1.2.3.4\x0B\n",
            "\u{A0}1.2.3.4\u{2003}\n",
            "1.2.3.4#x\n1.2.3.4 # y\n",
            "2001:db8::1\n",
            "1.2.3.4\n2001:db8::1",
            "255.255.255.255\n0.0.0.0\n",
            "1.2.3.4\n\r\n5.6.7.8\r\n",
        ];
        let v6 = [
            "",
            "\r",
            "2001:db8::1\r",
            "::1\n::\n",
            "\t::1 # x\r\n",
            "1.2.3.4\n",
        ];
        for (workers, chunk_lines) in [(1, 1), (2, 1), (3, 2), (4, 39)] {
            for text in v4 {
                assert_matches_reference::<V4>(&dir, text, workers, chunk_lines);
            }
            for text in v6 {
                assert_matches_reference::<V6>(&dir, text, workers, chunk_lines);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// Every list reader accepts exactly the reference grammar on
        /// hostile IPv4 lists (leading zeros, octets past 255, signs,
        /// three or five octets, Unicode and ASCII whitespace, inline
        /// comments, `\r\n` and bare `\r` ends, v6 literals), at any
        /// chunk size and worker count: the same host set, or the same
        /// first bad line and text.
        #[test]
        fn v4_list_grammar_matches_the_reference(
            spec in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u32>(), proptest::prelude::any::<u64>()),
                0..60,
            ),
            clean in proptest::prelude::any::<bool>(),
            ends in proptest::prelude::any::<u64>(),
            workers in 1usize..5,
            chunk_lines in 1usize..40,
        ) {
            let lines: Vec<String> = spec
                .iter()
                .map(|&(kind, addr, pick)| {
                    // half the cases hold no bad line at all
                    let kind = if clean && kind >= 232 { kind % 232 } else { kind };
                    hostile_v4_line(kind, addr, pick)
                })
                .collect();
            let text = join_hostile_lines(&lines, ends);
            let dir = tmp(&format!("grammar-v4-{workers}-{chunk_lines}-{ends:x}"));
            fs::create_dir_all(&dir).unwrap();
            assert_matches_reference::<V4>(&dir, &text, workers, chunk_lines);
            let _ = fs::remove_dir_all(&dir);
        }

        /// [`v4_list_grammar_matches_the_reference`] for IPv6 lists.
        #[test]
        fn v6_list_grammar_matches_the_reference(
            spec in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u128>(), proptest::prelude::any::<u64>()),
                0..40,
            ),
            clean in proptest::prelude::any::<bool>(),
            ends in proptest::prelude::any::<u64>(),
            workers in 1usize..5,
            chunk_lines in 1usize..40,
        ) {
            let lines: Vec<String> = spec
                .iter()
                .map(|&(kind, addr, pick)| {
                    let kind = if clean && kind >= 232 { kind % 232 } else { kind };
                    hostile_v6_line(kind, addr, pick)
                })
                .collect();
            let text = join_hostile_lines(&lines, ends);
            let dir = tmp(&format!("grammar-v6-{workers}-{chunk_lines}-{ends:x}"));
            fs::create_dir_all(&dir).unwrap();
            assert_matches_reference::<V6>(&dir, &text, workers, chunk_lines);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn streamed_ingestion_of_invalid_utf8_is_an_io_error_naming_the_input() {
        let dir = tmp("stream-utf8");
        fs::create_dir_all(&dir).unwrap();
        let input = dir.join("list.txt");
        let out = dir.join("m0-http.snap");
        let mut good = Vec::new();
        for i in 0..30 {
            good.extend_from_slice(format!("10.0.1.{i}\n").as_bytes());
        }
        let bad_utf8: &[u8] = b"10.9.9.9 # caf\xE9\n";
        let bad_line: &[u8] = b"bogus\n";
        let lists = [
            // the bad byte before a bad address line, and after it
            [&good[..27], bad_utf8, &good[27..90], bad_line, &good[90..]].concat(),
            [&good[..27], bad_line, &good[27..90], bad_utf8, &good[90..]].concat(),
            // a lone bad byte as the last line, without a newline
            [&good[..], b"\xFF"].concat(),
        ];
        for list in lists {
            fs::write(&input, &list).unwrap();
            // the error std's UTF-8 readers give for the same bytes
            let want = fs::read_to_string(&input).unwrap_err();
            assert_eq!(want.kind(), std::io::ErrorKind::InvalidData);
            for (workers, chunk_lines) in [(1, 1), (2, 2), (4, 5), (3, 1024)] {
                let opts = IngestOptions {
                    workers,
                    chunk_lines,
                };
                match stream_address_list_to_snapshot::<V4>(&input, &out, 0, Protocol::Http, &opts)
                {
                    Err(CorpusError::Io { path, message }) => {
                        assert_eq!(path, input);
                        assert_eq!(message, want.to_string());
                    }
                    other => panic!("expected an Io error, got {other:?}"),
                }
                assert!(!out.exists(), "no snapshot written");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
