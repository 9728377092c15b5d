//! Disk-backed prefix store: the cross-process tier of the prefix cache.
//!
//! Every intermediate AIG reached while replaying a synthesis sequence is
//! serialised to a directory as binary AIGER. A `boils-bench` sweep runs
//! the same circuit through many methods, seeds and *processes*; the
//! in-memory [`PrefixCache`](super::PrefixCache) dies with each evaluator,
//! but this store lets every later run — warm restarts, other seeds, other
//! methods, other processes — resume from work any earlier run already did.
//!
//! The store is **content-addressed** and split in two layers:
//!
//! * a **payload store** — each intermediate AIG lives in one file named
//!   by its own [`Aig::content_hash`] (`p<hash>.aig`), written once and
//!   checksummed; two circuits (or two prefixes of one circuit) whose
//!   synthesis trajectories pass through the same structure share one
//!   payload on disk, and
//! * a **pointer index** — one tiny file per (circuit, prefix) key mapping
//!   the prefix to its payload hash, so lookups stay keyed exactly as
//!   before while the bytes dedup underneath.
//!
//! Design constraints, in order:
//!
//! * **Never trusted blindly.** Pointers and payloads each carry a
//!   self-describing header (magic, key, length, checksum); any mismatch —
//!   truncation, bit rot, a foreign or older-format file, a dangling
//!   pointer whose payload was evicted by another process — drops the
//!   entry and falls back to recomputation. A bad cache can cost time,
//!   never correctness.
//! * **Crash- and concurrency-safe writes.** Files are written to a
//!   process-unique temporary name and atomically renamed into place, so
//!   readers (in this or any other process) only ever observe complete
//!   files. Racing writers of the same payload produce identical bytes
//!   (the name *is* the content hash), so either rename winning is correct.
//! * **Bounded.** A byte budget (default 256 MiB) is enforced by a
//!   refcount-weighted LRU: unreferenced payloads go first, then the
//!   least-recently-stamped pointers — a payload is deleted only once no
//!   live pointer references it. The `index.tsv` file persists sizes,
//!   stamps and pointer→payload edges across runs; it is advisory — stale
//!   lines are dropped on load, and files missing from the index are
//!   adopted from a directory scan.
//!
//! Restoring an entry yields an AIG **structurally identical** to the one
//! that was written (the binary AIGER codec is round-trip stable, property
//! tested in `crates/aig/tests/prop.rs`), so every transform applied on
//! top of a restored intermediate is bit-identical to a from-scratch
//! replay — the invariant `crates/core/tests/persist.rs` additionally
//! proves by SAT-mitering restored intermediates against fresh syntheses.
//!
//! On the same machinery the store keeps per-circuit **transfer metadata**
//! (`t<circuit>.meta`): a [`CircuitFeatures`] vector plus the best
//! (sequence, QoR) observations recorded by finished runs, so a new job on
//! a structurally similar circuit can warm-start its search (see
//! [`PersistentPrefixStore::transfer_donor`]). Metadata is advisory and
//! never part of the byte budget or the fault-accounted write path.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use boils_aig::{Aig, CircuitFeatures, CIRCUIT_FEATURE_DIM};

use super::PrefixStats;
use crate::fault::{FaultInjector, FaultKind, FaultOp};

/// Default byte budget: generous enough to keep every intermediate of a
/// paper-scale sweep on one circuit (≈ 4 000 prefixes × ~10 KiB each)
/// resident many times over, while bounding unattended cache directories.
pub const DEFAULT_PERSIST_BYTE_BUDGET: u64 = 256 * 1024 * 1024;

/// Magic tag opening every pointer file (versioned: bump on change).
const POINTER_MAGIC: &str = "bpt1";

/// Magic tag opening every content-addressed payload file.
const PAYLOAD_MAGIC: &str = "bpp1";

/// Magic tag opening every transfer-metadata file.
const META_MAGIC: &str = "bpm1";

/// Name of the advisory index file inside the store directory.
const INDEX_FILE: &str = "index.tsv";

/// Most (sequence, QoR) observations kept per circuit in the transfer
/// metadata: enough to seed an initial design several times over, small
/// enough that a fleet of circuits stays kilobytes.
const TRANSFER_OBSERVATION_CAP: usize = 64;

/// Write attempts per file (one initial try plus bounded retries): enough
/// to ride out a transient failure — a torn write, a blip — without
/// hammering a genuinely full disk.
const WRITE_ATTEMPTS: usize = 3;

/// Consecutive hard write failures after which the circuit breaker trips
/// and the store degrades to memory-only.
const BREAKER_THRESHOLD: usize = 3;

/// Half-open probation: while the breaker is open, this many store
/// requests are absorbed memory-only before a single probe write is let
/// through. A recovered disk (ENOSPC cleared, permissions fixed)
/// re-enables persistence on the first successful probe; a probe that
/// fails keeps the breaker open and restarts the count — a dead disk
/// costs one failed write burst per `BREAKER_PROBE_AFTER` stores instead
/// of one per store, and a daemon-lifetime store is never permanently
/// degraded by a transient outage.
const BREAKER_PROBE_AFTER: usize = 16;

/// Sentinel in `disabled_at` meaning "the breaker has not tripped".
const ENABLED: usize = usize::MAX;

/// One pointer entry: a (circuit, prefix) key resolving to a payload.
#[derive(Debug, Clone, Copy)]
struct PointerRec {
    /// Pointer file size on disk.
    bytes: u64,
    /// Last-touch stamp (LRU recency).
    stamp: u64,
    /// Content hash of the payload this pointer resolves to.
    payload: u64,
}

/// One content-addressed payload: an intermediate AIG, stored once.
#[derive(Debug, Clone, Copy)]
struct PayloadRec {
    /// Payload file size on disk.
    bytes: u64,
    /// Last-touch stamp (LRU recency).
    stamp: u64,
    /// Live pointers resolving to this payload (this instance's view);
    /// `0` marks an orphan — evicted first when the budget presses.
    refs: usize,
}

/// Mutable state: the in-memory mirror of the on-disk index.
#[derive(Debug, Default)]
struct Index {
    /// Pointer file name → record.
    pointers: HashMap<String, PointerRec>,
    /// Payload file name → record.
    payloads: HashMap<String, PayloadRec>,
    /// Logical clock; starts above the largest stamp found on load.
    clock: u64,
    /// Sum of all pointer and payload sizes (maintained incrementally).
    total_bytes: u64,
}

impl Index {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Records (or refreshes) a pointer, wiring its payload's refcount:
    /// a new pointer gains its payload a reference, a re-pointed one
    /// moves the reference.
    fn touch_pointer(&mut self, name: &str, bytes: u64, payload: u64) {
        let stamp = self.next_stamp();
        let previous = self.pointers.insert(
            name.to_string(),
            PointerRec {
                bytes,
                stamp,
                payload,
            },
        );
        self.total_bytes += bytes;
        let mut gained = true;
        if let Some(old) = previous {
            self.total_bytes -= old.bytes;
            if old.payload == payload {
                gained = false;
            } else if let Some(rec) = self.payloads.get_mut(&payload_file_name(old.payload)) {
                rec.refs = rec.refs.saturating_sub(1);
            }
        }
        if gained {
            if let Some(rec) = self.payloads.get_mut(&payload_file_name(payload)) {
                rec.refs += 1;
            }
        }
    }

    /// Records (or refreshes) a payload. A newly adopted payload counts
    /// its references from the pointers already indexed — the one scan
    /// that keeps `refs` exact no matter which order this instance
    /// discovered the files in.
    fn touch_payload(&mut self, name: &str, bytes: u64) {
        let stamp = self.next_stamp();
        if let Some(rec) = self.payloads.get_mut(name) {
            self.total_bytes += bytes;
            self.total_bytes -= rec.bytes;
            rec.bytes = bytes;
            rec.stamp = stamp;
            return;
        }
        let refs = match parse_payload_name(name) {
            Some(hash) => self.pointers.values().filter(|p| p.payload == hash).count(),
            None => 0,
        };
        self.payloads
            .insert(name.to_string(), PayloadRec { bytes, stamp, refs });
        self.total_bytes += bytes;
    }

    /// Drops a pointer record (its file is already gone), releasing its
    /// payload reference. The payload itself stays — other pointers (or
    /// other processes) may still resolve to it; an orphan is reclaimed
    /// by the byte budget, never yanked from under a live reader.
    fn forget_pointer(&mut self, name: &str) {
        if let Some(rec) = self.pointers.remove(name) {
            self.total_bytes -= rec.bytes;
            if let Some(payload) = self.payloads.get_mut(&payload_file_name(rec.payload)) {
                payload.refs = payload.refs.saturating_sub(1);
            }
        }
    }

    /// Drops a payload record (its file is already gone).
    fn forget_payload(&mut self, name: &str) {
        if let Some(rec) = self.payloads.remove(name) {
            self.total_bytes -= rec.bytes;
        }
    }
}

/// File name of a content-addressed payload. The `p` prefix cannot
/// collide with pointer names (which open with 16 hex digits).
fn payload_file_name(payload_hash: u64) -> String {
    format!("p{payload_hash:016x}.aig")
}

/// Parses a payload file name back to its content hash.
fn parse_payload_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix('p')?.strip_suffix(".aig")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Parses a pointer file name to `(circuit_hash, prefix_hex)`.
fn parse_pointer_name(name: &str) -> Option<(u64, &str)> {
    let stem = name.strip_suffix(".aig")?;
    let (circuit_hex, prefix_hex) = stem.split_once('-')?;
    if circuit_hex.len() != 16 {
        return None;
    }
    let circuit = u64::from_str_radix(circuit_hex, 16).ok()?;
    if prefix_hex.len() % 2 != 0 || !prefix_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some((circuit, prefix_hex))
}

/// The hex spelling of a token prefix (the key spelling used in file
/// names and pointer bodies alike).
fn prefix_hex(prefix: &[u8]) -> String {
    let mut hex = String::with_capacity(2 * prefix.len());
    for &token in prefix {
        let _ = write!(hex, "{token:02x}"); // writing to a String cannot fail
    }
    hex
}

/// Serialises one pointer file: a single self-describing line.
fn encode_pointer(circuit: u64, prefix_hex: &str, payload_hash: u64) -> Vec<u8> {
    format!("{POINTER_MAGIC} {circuit:016x} {prefix_hex} {payload_hash:016x}\n").into_bytes()
}

/// Validates a pointer file against its expected key; returns the payload
/// hash. Strict whole-content validation: any flipped byte — including
/// the trailing newline — makes the pointer untrusted.
fn decode_pointer(bytes: &[u8], circuit: u64, expected_prefix_hex: &str) -> Option<u64> {
    let text = std::str::from_utf8(bytes).ok()?;
    let line = text.strip_suffix('\n')?;
    if line.contains('\n') {
        return None;
    }
    let mut fields = line.split(' ');
    if fields.next()? != POINTER_MAGIC {
        return None;
    }
    if u64::from_str_radix(fields.next()?, 16).ok()? != circuit {
        return None;
    }
    if fields.next()? != expected_prefix_hex {
        return None;
    }
    let payload = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    Some(payload)
}

/// Serialises one payload file: a self-describing header naming the
/// content hash, then the binary AIGER bytes.
fn encode_payload(payload_hash: u64, aig: &Aig) -> Vec<u8> {
    let mut payload = Vec::new();
    // Writing to a Vec cannot fail; were it somehow cut short, the
    // checksum below covers exactly the bytes present, and the AIGER
    // parse on read drops the entry — corrupt, never wrong.
    let _ = aig.write_aig_binary(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + 64);
    let header = format!(
        "{PAYLOAD_MAGIC} {payload_hash:016x} {} {:016x}\n",
        payload.len(),
        boils_aig::fnv1a64(&payload)
    );
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates and parses a payload file. Beyond the header checks the
/// restored AIG must hash back to the name it was stored under — the
/// content address *is* the contract.
fn decode_payload(bytes: &[u8], payload_hash: u64) -> Option<Aig> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let mut fields = header.split(' ');
    if fields.next()? != PAYLOAD_MAGIC {
        return None;
    }
    if u64::from_str_radix(fields.next()?, 16).ok()? != payload_hash {
        return None;
    }
    let payload_len: usize = fields.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    let payload = bytes.get(newline + 1..)?;
    if payload.len() != payload_len || boils_aig::fnv1a64(payload) != checksum {
        return None;
    }
    let aig = Aig::read_aig_binary(payload).ok()?;
    if aig.content_hash() != payload_hash {
        return None;
    }
    Some(aig)
}

/// A transfer donor: the most feature-similar circuit the store has
/// recorded history for, with its best observations (QoR ascending).
#[derive(Debug, Clone)]
pub struct TransferDonor {
    /// Content hash of the donor circuit.
    pub circuit_hash: u64,
    /// Feature-space similarity to the querying circuit, in `(0, 1]`.
    pub similarity: f64,
    /// The donor's recorded `(sequence, qor)` observations, best first.
    /// Costs are the *donor's* — a warm-started run re-evaluates every
    /// transferred sequence exactly on its own circuit.
    pub observations: Vec<(Vec<u8>, f64)>,
}

/// A disk-backed store of intermediate AIGs keyed by token prefix.
///
/// One store instance serves one base circuit (identified by
/// [`Aig::content_hash`]); several evaluators — in this process or others —
/// may point at the same directory concurrently, including for different
/// circuits. Pointer keys carry the circuit hash, while payloads are
/// content-addressed and shared across circuits.
#[derive(Debug)]
pub struct PersistentPrefixStore {
    dir: PathBuf,
    circuit_hash: u64,
    byte_budget: u64,
    index: Mutex<Index>,
    disk_hits: AtomicUsize,
    disk_writes: AtomicUsize,
    corrupt_dropped: AtomicUsize,
    evictions: AtomicUsize,
    /// Stores that found their payload already on disk and only wrote a
    /// pointer (the content-addressed dedup tier at work).
    dedup_hits: AtomicUsize,
    /// Payload bytes not rewritten thanks to dedup.
    payload_bytes_saved: AtomicU64,
    /// Deterministic fault injection for tests and resilience drills
    /// (`None` in production: one branch per instrumented operation).
    fault: Option<Arc<FaultInjector>>,
    /// Writes (entry or index) that ultimately failed after retries.
    write_failures: AtomicUsize,
    /// Write attempts retried after a transient failure.
    write_retries: AtomicUsize,
    /// Consecutive hard entry-write failures; reset on any success.
    consecutive_failures: AtomicUsize,
    /// [`ENABLED`] while healthy; once the breaker trips, the 1-based
    /// disk-operation ordinal it tripped at (reads and writes then skip,
    /// except for half-open probe writes — see [`BREAKER_PROBE_AFTER`]).
    disabled_at: AtomicUsize,
    /// Store requests absorbed memory-only since the breaker tripped (or
    /// since the last failed probe); drives the half-open probe cadence.
    disabled_skips: AtomicUsize,
    /// Times a successful half-open probe re-enabled the store.
    reenables: AtomicUsize,
}

impl PersistentPrefixStore {
    /// Opens (creating if necessary) a store directory for a circuit with
    /// the given content hash and the default byte budget.
    ///
    /// Loading is tolerant by construction: malformed index lines and
    /// index entries whose file has meanwhile disappeared are dropped,
    /// files the index does not know about are adopted from a directory
    /// scan, and entry files that do not validate as pointers are deleted.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created or scanned; a corrupt
    /// or stale index is recovered from, not reported.
    pub fn open(dir: impl AsRef<Path>, circuit_hash: u64) -> io::Result<PersistentPrefixStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut index = Index::default();
        // Advisory index lines: sizes are re-checked against the stat
        // below; a pointer line whose size matches is trusted without a
        // read (its 4th field carries the payload hash).
        struct Line {
            bytes: u64,
            stamp: u64,
            payload: Option<u64>,
        }
        let mut lines: HashMap<String, Line> = HashMap::new();
        if let Ok(text) = fs::read_to_string(dir.join(INDEX_FILE)) {
            for line in text.lines() {
                let mut fields = line.split('\t');
                let (Some(name), Some(bytes), Some(stamp)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    continue; // malformed line: ignore
                };
                let payload = fields
                    .next()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok());
                if let (Ok(bytes), Ok(stamp)) = (bytes.parse::<u64>(), stamp.parse::<u64>()) {
                    lines.insert(
                        name.to_string(),
                        Line {
                            bytes,
                            stamp,
                            payload,
                        },
                    );
                }
            }
        }
        // The directory is the source of truth. Payloads and index-known
        // pointers adopt by stat alone; every other entry file is read
        // and classified.
        let mut classify: Vec<(String, u64)> = Vec::new();
        let mut pre_dropped = 0usize;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // Litter from a crashed writer. Only sweep tempfiles that
                // are demonstrably old — a concurrent process's in-flight
                // tempfile is seconds old and must not be yanked out from
                // under its rename.
                let stale = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age.as_secs() > 3600);
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
                continue;
            }
            if !name.ends_with(".aig") {
                continue; // index.tsv, transfer metadata, foreign files
            }
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            // saturating: a garbage index may carry stamp u64::MAX.
            let stamp = lines.get(&name).map_or(0, |line| line.stamp);
            index.clock = index.clock.max(stamp.saturating_add(1));
            if parse_payload_name(&name).is_some() {
                // A payload whose on-disk size disagrees with its index
                // line was torn after it was indexed. It is content-
                // addressed — rewritable from recomputation at any time —
                // so drop it rather than let the dedup path point new
                // entries at damaged bytes. (Unindexed payloads adopt by
                // stat; loads still validate every byte.)
                if lines
                    .get(&name)
                    .is_some_and(|line| line.bytes != meta.len())
                {
                    let _ = fs::remove_file(entry.path());
                    pre_dropped += 1;
                    continue;
                }
                index.payloads.insert(
                    name,
                    PayloadRec {
                        bytes: meta.len(),
                        stamp,
                        refs: 0, // rebuilt from pointers below
                    },
                );
                index.total_bytes += meta.len();
                continue;
            }
            if let Some(line) = lines.get(&name) {
                if let Some(payload) = line.payload {
                    if line.bytes == meta.len() {
                        index.pointers.insert(
                            name,
                            PointerRec {
                                bytes: meta.len(),
                                stamp,
                                payload,
                            },
                        );
                        index.total_bytes += meta.len();
                        continue;
                    }
                }
            }
            classify.push((name, stamp));
        }
        let store = PersistentPrefixStore {
            dir,
            circuit_hash,
            byte_budget: DEFAULT_PERSIST_BYTE_BUDGET,
            index: Mutex::new(index),
            disk_hits: AtomicUsize::new(0),
            disk_writes: AtomicUsize::new(0),
            corrupt_dropped: AtomicUsize::new(pre_dropped),
            evictions: AtomicUsize::new(0),
            dedup_hits: AtomicUsize::new(0),
            payload_bytes_saved: AtomicU64::new(0),
            fault: None,
            write_failures: AtomicUsize::new(0),
            write_retries: AtomicUsize::new(0),
            consecutive_failures: AtomicUsize::new(0),
            disabled_at: AtomicUsize::new(ENABLED),
            disabled_skips: AtomicUsize::new(0),
            reenables: AtomicUsize::new(0),
        };
        for (name, stamp) in classify {
            store.classify_entry(&name, stamp);
        }
        {
            // Set payload refcounts from the adopted pointers (idempotent:
            // overwrites anything the classification pass wired).
            let mut index = store.lock_index();
            let mut refs: HashMap<String, usize> = HashMap::new();
            for rec in index.pointers.values() {
                *refs.entry(payload_file_name(rec.payload)).or_insert(0) += 1;
            }
            for (name, rec) in &mut index.payloads {
                rec.refs = refs.get(name).copied().unwrap_or(0);
            }
        }
        // Deliberately no budget enforcement here: a caller raising the
        // cap via `with_byte_budget` must get a chance to do so before
        // any pre-existing (possibly larger) contents are evicted. The
        // budget is applied on the first write instead.
        Ok(store)
    }

    /// Reads and classifies one dash-named entry file the index could not
    /// vouch for: a pointer adopts, anything else — a file that does not
    /// parse as a pointer under the key its own name spells — is deleted
    /// (it can never serve a hit, only waste budget).
    fn classify_entry(&self, name: &str, stamp: u64) {
        let path = self.dir.join(name);
        let Some((circuit, prefix_hex)) = parse_pointer_name(name) else {
            let _ = fs::remove_file(&path);
            return;
        };
        let Ok(bytes) = fs::read(&path) else {
            return; // transient read failure: leave it for a later probe
        };
        if let Some(payload) = decode_pointer(&bytes, circuit, prefix_hex) {
            let mut index = self.lock_index();
            index.pointers.insert(
                name.to_string(),
                PointerRec {
                    bytes: bytes.len() as u64,
                    stamp,
                    payload,
                },
            );
            index.total_bytes += bytes.len() as u64;
            // Wire the payload edge when the payload is already indexed;
            // open-time adoptions are recounted in one pass afterwards,
            // later payload adoptions recount via `touch_payload`.
            if let Some(rec) = index.payloads.get_mut(&payload_file_name(payload)) {
                rec.refs += 1;
            }
            return;
        }
        // The name spelled a valid key but the content is not a valid
        // pointer: corrupt or another format, dropped, never trusted.
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(&path);
    }

    /// An un-instrumented tempfile + atomic-rename write for the
    /// transfer-metadata maintenance path: best-effort, no fault
    /// injection, no breaker accounting.
    fn plain_replace(&self, name: &str, bytes: &[u8]) -> bool {
        let stamp = {
            let mut index = self.lock_index();
            index.next_stamp()
        };
        let tmp = self
            .dir
            .join(format!(".{}.{}.{}.tmp", std::process::id(), stamp, name));
        let ok = fs::write(&tmp, bytes).is_ok() && fs::rename(&tmp, self.dir.join(name)).is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
        }
        ok
    }

    /// Opens a store keyed for `base` (see [`PersistentPrefixStore::open`]).
    ///
    /// # Errors
    ///
    /// Propagates directory creation/scan failures.
    pub fn open_for(dir: impl AsRef<Path>, base: &Aig) -> io::Result<PersistentPrefixStore> {
        PersistentPrefixStore::open(dir, base.content_hash())
    }

    /// Caps the store at `bytes` of pointer + payload files, evicting
    /// immediately if the current contents exceed the new budget.
    pub fn with_byte_budget(mut self, bytes: u64) -> PersistentPrefixStore {
        self.byte_budget = bytes;
        self.enforce_budget();
        self
    }

    /// Arms (or disarms) deterministic fault injection on this store's
    /// disk operations.
    pub fn with_fault_injector(
        mut self,
        fault: Option<Arc<FaultInjector>>,
    ) -> PersistentPrefixStore {
        self.fault = fault;
        self
    }

    /// The index lock, proof against panicking holders: the index is a
    /// cache of on-disk state that every reader re-validates, so observing
    /// a poisoned snapshot costs at most a recomputation, never a wrong
    /// value.
    fn lock_index(&self) -> MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the circuit breaker has flipped this store to memory-only.
    pub fn is_disabled(&self) -> bool {
        self.disabled_at.load(Ordering::Relaxed) != ENABLED
    }

    /// The 1-based disk-operation ordinal (successful writes + failed
    /// writes) at which the circuit breaker tripped; `None` while healthy.
    pub fn disabled_at(&self) -> Option<usize> {
        match self.disabled_at.load(Ordering::Relaxed) {
            ENABLED => None,
            at => Some(at),
        }
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content hash of the circuit this store instance serves.
    pub fn circuit_hash(&self) -> u64 {
        self.circuit_hash
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Number of pointer entries this instance currently believes are on
    /// disk (across every circuit sharing the directory).
    pub fn len(&self) -> usize {
        self.lock_index().pointers.len()
    }

    /// Whether the store holds no pointer entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pointer + payload bytes this instance currently believes are
    /// on disk.
    pub fn total_bytes(&self) -> u64 {
        self.lock_index().total_bytes
    }

    /// Number of content-addressed payloads this instance tracks.
    pub fn payload_count(&self) -> usize {
        self.lock_index().payloads.len()
    }

    /// Entry file name for a prefix under this store's circuit.
    fn entry_name(&self, prefix: &[u8]) -> String {
        format!("{:016x}-{}.aig", self.circuit_hash, prefix_hex(prefix))
    }

    /// The longest stored prefix of `tokens` strictly longer than `floor`,
    /// as `(prefix_length, restored_aig)`.
    ///
    /// Probes the filesystem once per candidate length, longest first.
    /// This store's in-memory index cannot decide which lengths have an
    /// entry: entries written by *other processes* since open are
    /// invisible to it. At the paper's `K = 20` a handful of `ENOENT`
    /// probes is cheaper than listing a shared cache directory that may
    /// hold tens of thousands of entries from other circuits and runs.
    /// Entries that fail validation are dropped and probing continues
    /// with the next shorter candidate.
    pub fn longest_prefix(&self, tokens: &[u8], floor: usize) -> Option<(usize, Aig)> {
        if tokens.len() <= floor || self.is_disabled() {
            return None;
        }
        for len in ((floor + 1)..=tokens.len()).rev() {
            if let Some(aig) = self.load(&tokens[..len]) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some((len, aig));
            }
        }
        None
    }

    /// Loads and validates one entry, without hit accounting. Returns
    /// `None` — after dropping whatever failed validation — on any
    /// pointer or payload failure.
    pub fn load(&self, prefix: &[u8]) -> Option<Aig> {
        let name = self.entry_name(prefix);
        let path = self.dir.join(&name);
        // Fast path: most probe lengths have no entry at all. A racing
        // eviction between this check and the read behaves like a miss.
        let bytes = match self.faulted_read(&path) {
            Ok(bytes) => bytes,
            Err(error) => {
                // A missing file means another process evicted it while
                // our index still lists it; reconcile lazily. Any other
                // read error is transient — the entry may be perfectly
                // healthy, so it stays indexed and this is a plain miss.
                if error.kind() == io::ErrorKind::NotFound {
                    self.lock_index().forget_pointer(&name);
                }
                return None;
            }
        };
        if let Some(payload_hash) = decode_pointer(&bytes, self.circuit_hash, &prefix_hex(prefix)) {
            return self.load_payload(&name, bytes.len() as u64, payload_hash);
        }
        // Truncated, bit-rotted, foreign, or stale-format: drop it so
        // the next probe does not pay the read again.
        self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(&path);
        self.lock_index().forget_pointer(&name);
        None
    }

    /// Resolves a validated pointer to its payload: reads, validates and
    /// parses the content-addressed file. A dangling pointer (payload
    /// evicted, possibly by another process) or a corrupt payload drops
    /// everything that failed — never trusted, never served.
    fn load_payload(
        &self,
        pointer_name: &str,
        pointer_bytes: u64,
        payload_hash: u64,
    ) -> Option<Aig> {
        let payload_name = payload_file_name(payload_hash);
        let payload_path = self.dir.join(&payload_name);
        let bytes = match self.faulted_read(&payload_path) {
            Ok(bytes) => bytes,
            Err(error) => {
                if error.kind() == io::ErrorKind::NotFound {
                    // Dangling pointer: its payload is gone for good.
                    self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                    let _ = fs::remove_file(self.dir.join(pointer_name));
                    let mut index = self.lock_index();
                    index.forget_pointer(pointer_name);
                    index.forget_payload(&payload_name);
                }
                return None;
            }
        };
        match decode_payload(&bytes, payload_hash) {
            Some(aig) => {
                let mut index = self.lock_index();
                index.touch_payload(&payload_name, bytes.len() as u64);
                index.touch_pointer(pointer_name, pointer_bytes, payload_hash);
                Some(aig)
            }
            None => {
                // One corruption event, even though two files fall: the
                // payload is the broken artefact, the pointer merely
                // referenced it.
                self.corrupt_dropped.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&payload_path);
                let _ = fs::remove_file(self.dir.join(pointer_name));
                let mut index = self.lock_index();
                index.forget_pointer(pointer_name);
                index.forget_payload(&payload_name);
                None
            }
        }
    }

    /// Serialises the intermediate reached after `prefix`, unless a
    /// pointer for it already exists. The payload is content-addressed:
    /// when the intermediate's bytes are already on disk — written for
    /// another prefix, another circuit, or by another process — only the
    /// tiny pointer is written and the call books a `dedup_hit`.
    ///
    /// Failures never fail evaluation — the store is an accelerator —
    /// but they are *counted*, not swallowed: each file write gets
    /// bounded retries (`WRITE_ATTEMPTS`), a store call that still fails
    /// lands once in `disk_write_failures`, and `BREAKER_THRESHOLD`
    /// consecutive hard failures trip the circuit breaker, flipping the
    /// store to memory-only (a dead disk costs one failed syscall per
    /// write forever otherwise). The breaker is *half-open*: after
    /// `BREAKER_PROBE_AFTER` memory-only store requests one probe write
    /// is let through, and a probe that lands re-enables the store.
    pub fn store(&self, prefix: &[u8], aig: &Aig) {
        if self.is_disabled() && !self.probe_due() {
            return;
        }
        let name = self.entry_name(prefix);
        {
            let index = self.lock_index();
            if index.pointers.contains_key(&name) {
                return;
            }
        }
        let path = self.dir.join(&name);
        if path.exists() {
            // Another process wrote this pointer since our index was
            // loaded; adopt it (and its payload edge) rather than race.
            let stamp = self.lock_index().next_stamp();
            self.classify_entry(&name, stamp);
            return;
        }
        let payload_hash = aig.content_hash();
        let payload_name = payload_file_name(payload_hash);
        let payload_path = self.dir.join(&payload_name);
        let mut known_payload_bytes = {
            let index = self.lock_index();
            index.payloads.get(&payload_name).map(|rec| rec.bytes)
        };
        if known_payload_bytes.is_none() && payload_path.exists() {
            // Written for another circuit or by another process since our
            // scan: adopt it by size, no read needed (loads validate).
            if let Ok(meta) = fs::metadata(&payload_path) {
                let mut index = self.lock_index();
                index.touch_payload(&payload_name, meta.len());
                known_payload_bytes = Some(meta.len());
            }
        }
        if let Some(bytes) = known_payload_bytes {
            // The content-addressed tier already holds this intermediate:
            // the whole payload write is saved, only a pointer follows.
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.payload_bytes_saved.fetch_add(bytes, Ordering::Relaxed);
            self.lock_index().touch_payload(&payload_name, bytes);
        } else {
            let bytes = encode_payload(payload_hash, aig);
            if !self.write_file(&payload_name, &bytes) {
                self.record_write_failure();
                return;
            }
            let mut index = self.lock_index();
            index.touch_payload(&payload_name, bytes.len() as u64);
        }
        let pointer = encode_pointer(self.circuit_hash, &prefix_hex(prefix), payload_hash);
        if !self.write_file(&name, &pointer) {
            // The payload (if newly written) stays as an unreferenced
            // orphan: harmless, reclaimed by the byte budget.
            self.record_write_failure();
            return;
        }
        self.consecutive_failures.store(0, Ordering::Relaxed);
        // A successful write while the breaker was open is a landed
        // half-open probe: the disk recovered, close the breaker.
        if self.disabled_at.swap(ENABLED, Ordering::Relaxed) != ENABLED {
            self.reenables.fetch_add(1, Ordering::Relaxed);
            self.disabled_skips.store(0, Ordering::Relaxed);
        }
        let writes = self.disk_writes.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut index = self.lock_index();
            index.touch_pointer(&name, pointer.len() as u64, payload_hash);
        }
        self.enforce_budget();
        // The index file is advisory (the directory scan on open adopts
        // unlisted entries), so amortise its rewrite across entry writes;
        // `Drop` persists the final state.
        if writes.is_multiple_of(32) {
            self.persist_index();
        }
    }

    /// Writes one file through the instrumented tempfile + atomic-rename
    /// path with bounded retries; `false` when the write ultimately
    /// failed (the caller books the failure — at most once per store
    /// call).
    fn write_file(&self, name: &str, bytes: &[u8]) -> bool {
        let stamp = {
            let mut index = self.lock_index();
            index.next_stamp()
        };
        let tmp = self
            .dir
            .join(format!(".{}.{}.{}.tmp", std::process::id(), stamp, name));
        let mut wrote = false;
        for attempt in 1..=WRITE_ATTEMPTS {
            match self.try_write(&tmp, bytes) {
                Ok(()) => {
                    wrote = true;
                    break;
                }
                Err(_) => {
                    let _ = fs::remove_file(&tmp);
                    if attempt < WRITE_ATTEMPTS {
                        self.write_retries.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if !wrote {
            return false;
        }
        if self.faulted_rename(&tmp, &self.dir.join(name)).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// One write attempt with post-write verification: a short write —
    /// real `ENOSPC` behaviour on some filesystems, or injected — must
    /// surface as a failure *now*, at write time where it can be retried,
    /// not later as a corrupt entry.
    fn try_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self
            .fault
            .as_ref()
            .and_then(|injector| injector.next_fault(FaultOp::Write))
        {
            // A torn write: part of the payload lands, the call "succeeds".
            Some(FaultKind::Torn) => fs::write(path, &bytes[..bytes.len() / 2])?,
            Some(kind) => return Err(kind.io_error()),
            None => fs::write(path, bytes)?,
        }
        let written = fs::metadata(path)?.len();
        if written != bytes.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("short write: {written} of {} bytes", bytes.len()),
            ));
        }
        Ok(())
    }

    /// An atomic rename, subject to fault injection.
    fn faulted_rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(kind) = self
            .fault
            .as_ref()
            .and_then(|injector| injector.next_fault(FaultOp::Rename))
        {
            return Err(kind.io_error());
        }
        fs::rename(from, to)
    }

    /// A whole-file read, subject to fault injection.
    fn faulted_read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some(kind) = self
            .fault
            .as_ref()
            .and_then(|injector| injector.next_fault(FaultOp::Read))
        {
            return Err(kind.io_error());
        }
        fs::read(path)
    }

    /// Books one hard write failure and trips the circuit breaker after
    /// [`BREAKER_THRESHOLD`] consecutive ones. The recorded ordinal counts
    /// every disk write outcome (successes + failures) so operators can
    /// line it up with a fault plan's write ordinals.
    fn record_write_failure(&self) {
        self.write_failures.fetch_add(1, Ordering::Relaxed);
        let consecutive = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if consecutive >= BREAKER_THRESHOLD {
            let ordinal = self.disk_writes.load(Ordering::Relaxed)
                + self.write_failures.load(Ordering::Relaxed);
            // First tripper wins; later failures keep the original ordinal.
            let _ = self.disabled_at.compare_exchange(
                ENABLED,
                ordinal,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Whether a half-open probe write is due: counts store requests
    /// absorbed memory-only while the breaker is open and grants one
    /// probe every [`BREAKER_PROBE_AFTER`] of them. The counter reset on
    /// granting means a failed probe restarts the count.
    fn probe_due(&self) -> bool {
        let skips = self.disabled_skips.fetch_add(1, Ordering::Relaxed) + 1;
        if skips < BREAKER_PROBE_AFTER {
            return false;
        }
        self.disabled_skips.store(0, Ordering::Relaxed);
        true
    }

    /// Folds this store's counters into an evaluator-level stats snapshot.
    pub(crate) fn merge_into(&self, stats: &mut PrefixStats) {
        stats.disk_hits += self.disk_hits.load(Ordering::Relaxed);
        stats.disk_writes += self.disk_writes.load(Ordering::Relaxed);
        stats.disk_corrupt_dropped += self.corrupt_dropped.load(Ordering::Relaxed);
        stats.disk_evictions += self.evictions.load(Ordering::Relaxed);
        stats.disk_write_failures += self.write_failures.load(Ordering::Relaxed);
        stats.disk_retries += self.write_retries.load(Ordering::Relaxed);
        stats.store_reenables += self.reenables.load(Ordering::Relaxed);
        stats.dedup_hits += self.dedup_hits.load(Ordering::Relaxed);
        stats.payload_bytes_saved += self.payload_bytes_saved.load(Ordering::Relaxed);
        stats.pointer_entries += self.len();
        if let Some(at) = self.disabled_at() {
            stats.store_disabled_at = Some(stats.store_disabled_at.map_or(at, |prev| prev.min(at)));
        }
    }

    /// This store's own counters as a stats snapshot (disk fields only).
    pub fn stats(&self) -> PrefixStats {
        let mut stats = PrefixStats::default();
        self.merge_into(&mut stats);
        stats
    }

    /// Deletes files until the byte budget holds, refcount-weighted:
    /// unreferenced payloads go first (nothing can resolve to them),
    /// then the least-recently-stamped pointers — each released payload
    /// reference cascades the payload itself once nothing points at it.
    /// A payload with a live pointer is **never** deleted.
    fn enforce_budget(&self) {
        let mut victims: Vec<String> = Vec::new();
        {
            let mut index = self.lock_index();
            if index.total_bytes <= self.byte_budget {
                return;
            }
            let mut orphans: Vec<(u64, String, u64)> = index
                .payloads
                .iter()
                .filter(|(_, rec)| rec.refs == 0)
                .map(|(name, rec)| (rec.stamp, name.clone(), rec.bytes))
                .collect();
            orphans.sort(); // oldest stamp first; name breaks ties stably
            for (_, name, bytes) in orphans {
                if index.total_bytes <= self.byte_budget {
                    break;
                }
                index.payloads.remove(&name);
                index.total_bytes -= bytes;
                victims.push(name);
            }
            if index.total_bytes > self.byte_budget {
                let mut by_age: Vec<(u64, String)> = index
                    .pointers
                    .iter()
                    .map(|(name, rec)| (rec.stamp, name.clone()))
                    .collect();
                by_age.sort();
                for (_, name) in by_age {
                    if index.total_bytes <= self.byte_budget {
                        break;
                    }
                    let Some(rec) = index.pointers.remove(&name) else {
                        continue;
                    };
                    index.total_bytes -= rec.bytes;
                    victims.push(name);
                    let payload_name = payload_file_name(rec.payload);
                    if let Some(payload) = index.payloads.get_mut(&payload_name) {
                        payload.refs = payload.refs.saturating_sub(1);
                        if payload.refs == 0 {
                            let bytes = payload.bytes;
                            index.payloads.remove(&payload_name);
                            index.total_bytes -= bytes;
                            victims.push(payload_name);
                        }
                    }
                }
            }
        }
        for name in victims {
            let _ = fs::remove_file(self.dir.join(&name));
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // No index rewrite here: at steady state over budget this runs on
        // every store(), and the rewrite is O(entries). The amortised
        // writes (1/32 in `store`, final in `Drop`) cover it, and a stale
        // index merely lists files the next open's scan will not find.
    }

    /// Writes the advisory index file (tempfile + atomic rename): pointer
    /// lines carry a fourth field — the payload hash — so the next open
    /// can adopt them without a read; payload lines keep the original
    /// three-field shape. A failure is counted in `disk_write_failures`
    /// but does not feed the circuit breaker: the index is advisory (the
    /// directory scan on the next open recovers), so losing it must not
    /// cost entry writes.
    fn persist_index(&self) {
        if self.is_disabled() {
            return;
        }
        let (text, stamp) = {
            let index = self.lock_index();
            let mut lines: Vec<String> = index
                .pointers
                .iter()
                .map(|(name, rec)| {
                    format!("{name}\t{}\t{}\t{:016x}", rec.bytes, rec.stamp, rec.payload)
                })
                .chain(
                    index
                        .payloads
                        .iter()
                        .map(|(name, rec)| format!("{name}\t{}\t{}", rec.bytes, rec.stamp)),
                )
                .collect();
            lines.sort();
            let mut text = String::new();
            for line in lines {
                let _ = writeln!(text, "{line}");
            }
            (text, index.clock)
        };
        let tmp = self
            .dir
            .join(format!(".{}.{}.index.tmp", std::process::id(), stamp));
        // Clean the tempfile up on either failure: a failed write can
        // still leave a partial file behind (e.g. ENOSPC mid-write).
        let ok = self.try_write(&tmp, text.as_bytes()).is_ok()
            && self
                .faulted_rename(&tmp, &self.dir.join(INDEX_FILE))
                .is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
            self.write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// File name of this circuit's transfer metadata.
    fn meta_name(&self) -> String {
        format!("t{:016x}.meta", self.circuit_hash)
    }

    /// Records (merging with any prior record) this circuit's feature
    /// vector and its best `(sequence, qor)` observations, capped at
    /// `TRANSFER_OBSERVATION_CAP` best-QoR rows. Advisory and
    /// best-effort: metadata rides the maintenance write path — no fault
    /// injection, no breaker accounting, no byte-budget participation —
    /// and a failed write costs a future warm-start, never correctness.
    pub fn record_transfer(&self, features: &CircuitFeatures, observations: &[(Vec<u8>, f64)]) {
        if self.is_disabled() {
            return;
        }
        let mut best: HashMap<Vec<u8>, f64> = HashMap::new();
        if let Ok(bytes) = fs::read(self.dir.join(self.meta_name())) {
            if let Some((_, _, existing)) = parse_meta(&bytes) {
                for (tokens, qor) in existing {
                    best.insert(tokens, qor);
                }
            }
        }
        for (tokens, &qor) in observations.iter().map(|(t, q)| (t, q)) {
            if tokens.is_empty() || !qor.is_finite() {
                continue;
            }
            best.entry(tokens.clone())
                .and_modify(|prev| *prev = prev.min(qor))
                .or_insert(qor);
        }
        let mut rows: Vec<(Vec<u8>, f64)> = best.into_iter().collect();
        // Sort by QoR then tokens: deterministic files, best rows survive
        // the cap.
        rows.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(TRANSFER_OBSERVATION_CAP);
        let mut text = format!("{META_MAGIC} {:016x}\n", self.circuit_hash);
        let feature_row: Vec<String> = features.to_array().iter().map(f64::to_string).collect();
        let _ = writeln!(text, "{}", feature_row.join(" "));
        for (tokens, qor) in rows {
            let _ = writeln!(text, "{qor} {}", prefix_hex(&tokens));
        }
        let _ = self.plain_replace(&self.meta_name(), text.as_bytes());
    }

    /// The most feature-similar *other* circuit with recorded transfer
    /// metadata in this directory, or `None` when the store is flying
    /// solo (no donors, unreadable directory, breaker open).
    pub fn transfer_donor(&self, features: &CircuitFeatures) -> Option<TransferDonor> {
        if self.is_disabled() {
            return None;
        }
        let mut donor: Option<TransferDonor> = None;
        for entry in fs::read_dir(&self.dir).ok()? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.starts_with('t') || !name.ends_with(".meta") {
                continue;
            }
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            let Some((circuit, donor_features, observations)) = parse_meta(&bytes) else {
                continue;
            };
            if circuit == self.circuit_hash || observations.is_empty() {
                continue;
            }
            let similarity = features.similarity(&donor_features);
            let better = donor.as_ref().is_none_or(|best| {
                similarity > best.similarity
                    || (similarity == best.similarity && circuit < best.circuit_hash)
            });
            if better {
                donor = Some(TransferDonor {
                    circuit_hash: circuit,
                    similarity,
                    observations,
                });
            }
        }
        donor
    }
}

/// Parses one transfer-metadata file:
/// `(circuit_hash, features, observations)` with observations sorted
/// best-QoR first. `None` on any malformation — metadata is advisory
/// and never trusted further than it parses.
type ParsedMeta = (u64, CircuitFeatures, Vec<(Vec<u8>, f64)>);

fn parse_meta(bytes: &[u8]) -> Option<ParsedMeta> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    let mut header = lines.next()?.split(' ');
    if header.next()? != META_MAGIC {
        return None;
    }
    let circuit = u64::from_str_radix(header.next()?, 16).ok()?;
    if header.next().is_some() {
        return None;
    }
    let features: Vec<f64> = lines
        .next()?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if features.len() != CIRCUIT_FEATURE_DIM {
        return None;
    }
    let features = CircuitFeatures::from_slice(&features)?;
    let mut observations = Vec::new();
    for line in lines {
        let (qor, hex) = line.split_once(' ')?;
        let qor: f64 = qor.parse().ok()?;
        if hex.len() % 2 != 0 {
            return None;
        }
        let mut tokens = Vec::with_capacity(hex.len() / 2);
        for chunk in hex.as_bytes().chunks(2) {
            let pair = std::str::from_utf8(chunk).ok()?;
            tokens.push(u8::from_str_radix(pair, 16).ok()?);
        }
        observations.push((tokens, qor));
    }
    observations.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    Some((circuit, features, observations))
}

impl Drop for PersistentPrefixStore {
    fn drop(&mut self) {
        self.persist_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;

    fn temp_store_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("boils-store-unit-{}-{label}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_and_reload_round_trips_structurally() {
        let dir = temp_store_dir("roundtrip");
        let base = random_aig(1, 6, 120, 3);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        let intermediate = random_aig(2, 6, 90, 2);
        store.store(&[3, 1, 4], &intermediate);
        assert_eq!(store.len(), 1);
        let back = store.load(&[3, 1, 4]).expect("entry restored");
        assert_eq!(back.content_hash(), intermediate.content_hash());
        // A different prefix misses; a shorter prefix of the key misses.
        assert!(store.load(&[3, 1]).is_none());
        assert!(store.load(&[3, 1, 5]).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn longest_prefix_respects_the_floor() {
        let dir = temp_store_dir("floor");
        let base = random_aig(3, 5, 80, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        store.store(&[1], &random_aig(10, 5, 40, 2));
        store.store(&[1, 2], &random_aig(11, 5, 40, 2));
        let (len, _) = store.longest_prefix(&[1, 2, 3], 0).expect("hit");
        assert_eq!(len, 2);
        // Floor 2 excludes both stored prefixes.
        assert!(store.longest_prefix(&[1, 2, 3], 2).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_instance_sees_entries_written_by_the_first() {
        let dir = temp_store_dir("reopen");
        let base = random_aig(5, 6, 100, 2);
        let intermediate = random_aig(6, 6, 70, 2);
        {
            let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
            store.store(&[7, 7], &intermediate);
        }
        let reopened = PersistentPrefixStore::open_for(&dir, &base).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.payload_count(), 1);
        let back = reopened.load(&[7, 7]).expect("restored after reopen");
        assert_eq!(back.content_hash(), intermediate.content_hash());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_circuit_hash_never_matches() {
        let dir = temp_store_dir("crosshash");
        let a = random_aig(20, 6, 100, 2);
        let b = random_aig(21, 6, 100, 2);
        assert_ne!(a.content_hash(), b.content_hash());
        let store_a = PersistentPrefixStore::open_for(&dir, &a).expect("open");
        store_a.store(&[9], &random_aig(22, 6, 60, 2));
        let store_b = PersistentPrefixStore::open_for(&dir, &b).expect("open");
        // Same prefix, different circuit: different file name, no match.
        assert!(store_b.load(&[9]).is_none());
        assert_eq!(store_b.stats().disk_corrupt_dropped, 0);
        // And store_a's entry is still intact.
        assert!(store_a.load(&[9]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn longest_prefix_single_listing_matches_per_length_probing_for_large_k() {
        // K ≫ 20: the listing-based lookup must hit exactly the same
        // (length, entry) a per-length probe loop would, across floors,
        // corrupt entries, and entries written by a *different* store
        // instance (invisible to this instance's in-memory index).
        let dir = temp_store_dir("biglisting");
        let base = random_aig(50, 6, 100, 2);
        let k = 64usize;
        let tokens: Vec<u8> = (0..k as u8).map(|i| i % 11).collect();
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        let stored_lens = [3usize, 17, 29, 41, 57];
        for &len in &stored_lens {
            store.store(&tokens[..len], &random_aig(60 + len as u64, 6, 50, 2));
        }
        // A foreign-process write this instance's index has never seen.
        {
            let other = PersistentPrefixStore::open_for(&dir, &base).expect("open");
            other.store(&tokens[..60], &random_aig(200, 6, 50, 2));
        }
        // The exhaustive per-length reference: the longest stored length
        // not exceeding the query and strictly above the floor.
        let reference = |query_len: usize, floor: usize| {
            (floor + 1..=query_len)
                .rev()
                .find(|len| stored_lens.contains(len) || *len == 60)
        };
        for (query_len, floor) in [(k, 0), (k, 41), (k, 57), (k, 60), (40, 0), (16, 3), (2, 0)] {
            let got = store.longest_prefix(&tokens[..query_len], floor);
            match reference(query_len, floor) {
                Some(expected_len) => {
                    let (len, _) = got.unwrap_or_else(|| {
                        panic!("query {query_len}/floor {floor}: expected hit {expected_len}")
                    });
                    assert_eq!(len, expected_len, "query {query_len} floor {floor}");
                }
                None => assert!(got.is_none(), "query {query_len} floor {floor}"),
            }
        }
        // Corrupting the longest entries must fall through to the next
        // shorter stored prefix, exactly as per-length probing would.
        for corrupt_len in [60usize, 57] {
            let path = dir.join(store.entry_name(&tokens[..corrupt_len]));
            let mut bytes = fs::read(&path).expect("entry exists");
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
            fs::write(&path, &bytes).expect("rewrite");
        }
        let (len, _) = store.longest_prefix(&tokens, 0).expect("shorter hit");
        assert_eq!(len, 41, "corrupt 60 and 57 must fall back to 41");
        assert!(store.stats().disk_corrupt_dropped >= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    fn injector(spec: &str) -> Option<Arc<FaultInjector>> {
        Some(Arc::new(FaultInjector::new(
            crate::fault::FaultPlan::parse(spec).expect("valid plan"),
        )))
    }

    #[test]
    fn enospc_writes_trip_the_circuit_breaker() {
        let dir = temp_store_dir("breaker");
        let base = random_aig(70, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base)
            .expect("open")
            .with_fault_injector(injector("write:enospc@1+"));
        for i in 0..5u8 {
            store.store(&[i], &random_aig(71 + u64::from(i), 6, 50, 2));
        }
        assert_eq!(store.len(), 0);
        let stats = store.stats();
        // Each failed store burns WRITE_ATTEMPTS attempts (2 retries) on
        // its payload and books one hard failure; the third consecutive
        // failure trips the breaker, so stores 4 and 5 never touch the
        // disk at all.
        assert_eq!(stats.disk_write_failures, 3);
        assert_eq!(stats.disk_retries, 6);
        assert_eq!(stats.store_disabled_at, Some(3));
        assert!(store.is_disabled());
        // Memory-only degradation: reads are skipped too.
        assert!(store.longest_prefix(&[0, 1], 0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_open_probe_reenables_a_recovered_store() {
        let dir = temp_store_dir("halfopen");
        let base = random_aig(110, 6, 100, 2);
        // A bounded failure burst: exactly the first nine write attempts
        // fail (three stores x WRITE_ATTEMPTS), tripping the breaker;
        // every write after that lands — the disk has recovered.
        let plan = (1..=9)
            .map(|i| format!("write:enospc@{i}"))
            .collect::<Vec<_>>()
            .join(";");
        let store = PersistentPrefixStore::open_for(&dir, &base)
            .expect("open")
            .with_fault_injector(injector(&plan));
        for i in 0..3u8 {
            store.store(&[i], &random_aig(111 + u64::from(i), 6, 50, 2));
        }
        assert!(store.is_disabled());
        assert_eq!(store.stats().store_disabled_at, Some(3));
        // Probation: the next BREAKER_PROBE_AFTER - 1 requests stay
        // memory-only (successful memory-tier operations, no disk I/O).
        for i in 0..(BREAKER_PROBE_AFTER - 1) as u8 {
            store.store(&[10 + i], &random_aig(130 + u64::from(i), 6, 50, 2));
            assert!(store.is_disabled(), "request {i} must stay memory-only");
        }
        assert_eq!(store.len(), 0);
        // The BREAKER_PROBE_AFTER-th request is the probe; the recovered
        // disk accepts it (payload and pointer both) and the breaker
        // closes.
        store.store(&[99], &random_aig(150, 6, 50, 2));
        assert!(!store.is_disabled());
        let stats = store.stats();
        assert_eq!(stats.store_disabled_at, None);
        assert_eq!(stats.store_reenables, 1);
        assert_eq!(stats.disk_writes, 1);
        // Writes and reads are both live again.
        assert!(store.load(&[99]).is_some());
        store.store(&[42], &random_aig(151, 6, 50, 2));
        assert!(store.longest_prefix(&[42, 1], 0).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_probe_keeps_the_breaker_open() {
        let dir = temp_store_dir("probefail");
        let base = random_aig(115, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base)
            .expect("open")
            .with_fault_injector(injector("write:enospc@1+"));
        for i in 0..3u8 {
            store.store(&[i], &random_aig(116 + u64::from(i), 6, 50, 2));
        }
        assert!(store.is_disabled());
        // Ride through one full probation window plus the probe itself:
        // the probe write fails (the disk is still dead), so the breaker
        // stays open with its original trip ordinal.
        for i in 0..BREAKER_PROBE_AFTER as u8 {
            store.store(&[10 + i], &random_aig(140 + u64::from(i), 6, 50, 2));
        }
        let stats = store.stats();
        assert!(store.is_disabled());
        assert_eq!(stats.store_disabled_at, Some(3));
        assert_eq!(stats.store_reenables, 0);
        // Exactly one extra failed write burst: the probe, nothing else.
        assert_eq!(stats.disk_write_failures, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_caught_at_write_time_and_retried() {
        let dir = temp_store_dir("torn");
        let base = random_aig(80, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base)
            .expect("open")
            .with_fault_injector(injector("write:torn@1"));
        store.store(&[2, 4], &random_aig(81, 6, 60, 2));
        // The short write was detected by post-write verification and the
        // retry landed the full entry: no failure, no corrupt entry.
        let stats = store.stats();
        assert_eq!(stats.disk_retries, 1);
        assert_eq!(stats.disk_write_failures, 0);
        assert_eq!(stats.store_disabled_at, None);
        assert_eq!(stats.disk_writes, 1);
        assert!(store.load(&[2, 4]).is_some());
        assert_eq!(store.stats().disk_corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_fault_is_a_miss_that_keeps_the_entry() {
        let dir = temp_store_dir("readfault");
        let base = random_aig(90, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        store.store(&[5], &random_aig(91, 6, 60, 2));
        let store = store.with_fault_injector(injector("read:denied@1"));
        // First read hits the injected EACCES: a plain miss...
        assert!(store.load(&[5]).is_none());
        // ...that does not forget the (perfectly healthy) entry.
        assert_eq!(store.len(), 1);
        assert!(store.load(&[5]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_failure_counts_without_breaking_a_recovering_store() {
        let dir = temp_store_dir("renamefault");
        let base = random_aig(95, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base)
            .expect("open")
            .with_fault_injector(injector("rename:enospc@1"));
        store.store(&[1], &random_aig(96, 6, 60, 2));
        assert_eq!(store.stats().disk_write_failures, 1);
        assert_eq!(store.len(), 0);
        // The next store succeeds and resets the consecutive counter.
        store.store(&[2], &random_aig(97, 6, 60, 2));
        let stats = store.stats();
        assert_eq!(stats.disk_writes, 1);
        assert_eq!(stats.store_disabled_at, None);
        assert!(!store.is_disabled());
        // No stray tempfiles linger after the failed rename.
        let leftovers = fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_oldest_entries() {
        let dir = temp_store_dir("budget");
        let base = random_aig(30, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        for i in 0..8u8 {
            store.store(&[i], &random_aig(40 + u64::from(i), 6, 80, 2));
        }
        let one_entry = store.total_bytes() / store.len() as u64;
        let store = store.with_byte_budget(3 * one_entry);
        assert!(store.total_bytes() <= 3 * one_entry);
        assert!(store.stats().disk_evictions >= 5);
        // The newest entries survive; the oldest are gone from disk too.
        assert!(store.load(&[7]).is_some());
        assert!(store.load(&[0]).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_intermediates_share_one_payload() {
        let dir = temp_store_dir("dedup");
        let base = random_aig(300, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        let intermediate = random_aig(301, 6, 70, 2);
        store.store(&[1, 2], &intermediate);
        store.store(&[3, 4, 5], &intermediate);
        assert_eq!(store.len(), 2);
        assert_eq!(store.payload_count(), 1);
        let stats = store.stats();
        assert_eq!(stats.dedup_hits, 1);
        assert!(stats.payload_bytes_saved > 0);
        assert_eq!(stats.pointer_entries, 2);
        // Both prefixes restore the same structure.
        let a = store.load(&[1, 2]).expect("first");
        let b = store.load(&[3, 4, 5]).expect("second");
        assert_eq!(a.content_hash(), b.content_hash());
        // Exactly one payload file on disk.
        let payloads = fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| parse_payload_name(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert_eq!(payloads, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_circuit_writers_dedup_to_one_payload() {
        let dir = temp_store_dir("crossdedup");
        let a = random_aig(310, 6, 100, 2);
        let b = random_aig(311, 6, 100, 2);
        assert_ne!(a.content_hash(), b.content_hash());
        let shared = random_aig(312, 6, 70, 2);
        // Sequential first: the second circuit's store must see the first
        // one's payload and count the dedup.
        let store_a = PersistentPrefixStore::open_for(&dir, &a).expect("open a");
        let store_b = PersistentPrefixStore::open_for(&dir, &b).expect("open b");
        store_a.store(&[1], &shared);
        store_b.store(&[2, 2], &shared);
        assert_eq!(store_b.stats().dedup_hits, 1);
        assert!(store_b.stats().payload_bytes_saved > 0);
        assert!(store_a.load(&[1]).is_some());
        assert!(store_b.load(&[2, 2]).is_some());
        // Concurrent writers from both circuits converge on one payload
        // per intermediate (racing payload writes produce identical
        // bytes, so either rename winning is correct).
        let dir_c = temp_store_dir("crossdedup-conc");
        let sa = Arc::new(PersistentPrefixStore::open_for(&dir_c, &a).expect("open"));
        let sb = Arc::new(PersistentPrefixStore::open_for(&dir_c, &b).expect("open"));
        let threads: Vec<_> = [Arc::clone(&sa), Arc::clone(&sb)]
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for t in 0..8u8 {
                        store.store(&[i as u8, t], &shared);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer");
        }
        let payloads = fs::read_dir(&dir_c)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| parse_payload_name(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert_eq!(payloads, 1, "all writers share one payload file");
        for t in 0..8u8 {
            assert!(sa.load(&[0, t]).is_some());
            assert!(sb.load(&[1, t]).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir_c);
    }

    #[test]
    fn corrupt_pointers_and_payloads_are_dropped_never_trusted() {
        let dir = temp_store_dir("corruptptr");
        let base = random_aig(330, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        store.store(&[1], &random_aig(331, 6, 60, 2));
        store.store(&[2], &random_aig(332, 6, 60, 2));
        store.store(&[3], &random_aig(333, 6, 60, 2));
        // A flipped byte anywhere in a pointer file — including its
        // trailing newline — makes it untrusted.
        let p1 = dir.join(store.entry_name(&[1]));
        let mut bytes = fs::read(&p1).expect("pointer");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&p1, &bytes).expect("rewrite");
        assert!(store.load(&[1]).is_none());
        assert_eq!(store.stats().disk_corrupt_dropped, 1);
        assert!(!p1.exists(), "corrupt pointer deleted");
        // A dangling pointer (payload gone) is dropped the same way.
        let rec = {
            let index = store.lock_index();
            *index.pointers.get(&store.entry_name(&[2])).expect("rec")
        };
        fs::remove_file(dir.join(payload_file_name(rec.payload))).expect("unlink payload");
        assert!(store.load(&[2]).is_none());
        assert_eq!(store.stats().disk_corrupt_dropped, 2);
        assert!(!dir.join(store.entry_name(&[2])).exists());
        // A corrupt payload takes its pointer down with it, but books one
        // corruption event.
        let rec = {
            let index = store.lock_index();
            *index.pointers.get(&store.entry_name(&[3])).expect("rec")
        };
        let payload_path = dir.join(payload_file_name(rec.payload));
        let mut bytes = fs::read(&payload_path).expect("payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&payload_path, &bytes).expect("rewrite");
        assert!(store.load(&[3]).is_none());
        assert_eq!(store.stats().disk_corrupt_dropped, 3);
        assert!(!payload_path.exists());
        assert!(!dir.join(store.entry_name(&[3])).exists());
        assert_eq!(store.len(), 0);
        // An entry in the single-file format older stores wrote (`bps1`
        // header + valid binary AIGER) is not a pointer: a miss, dropped
        // and counted like any other untrusted file, both when a probe
        // meets it and when an open-time scan does.
        let bps1_entry = |prefix: &[u8]| {
            let mut aiger = Vec::new();
            random_aig(334, 6, 60, 2)
                .write_aig_binary(&mut aiger)
                .expect("encode");
            let mut bytes = format!(
                "bps1 {:016x} {} {} {:016x}\n",
                base.content_hash(),
                prefix_hex(prefix),
                aiger.len(),
                boils_aig::fnv1a64(&aiger)
            )
            .into_bytes();
            bytes.extend_from_slice(&aiger);
            let path = dir.join(store.entry_name(prefix));
            fs::write(&path, bytes).expect("write bps1 entry");
            path
        };
        let old = bps1_entry(&[4]);
        assert!(store.load(&[4]).is_none());
        assert!(!old.exists(), "old-format entry deleted");
        assert_eq!(store.stats().disk_corrupt_dropped, 4);
        let old = bps1_entry(&[5]);
        let reopened = PersistentPrefixStore::open_for(&dir, &base).expect("reopen");
        assert!(!old.exists(), "old-format entry deleted on open");
        assert_eq!(reopened.stats().disk_corrupt_dropped, 1);
        assert_eq!(reopened.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refcounted_eviction_never_strands_a_live_pointer() {
        let dir = temp_store_dir("refevict");
        let base = random_aig(340, 6, 100, 2);
        let store = PersistentPrefixStore::open_for(&dir, &base).expect("open");
        let shared = random_aig(341, 6, 70, 2);
        // Two pointers share one payload; a third, newer entry has its
        // own.
        store.store(&[1], &shared);
        store.store(&[2], &shared);
        store.store(&[3], &random_aig(342, 6, 70, 2));
        assert_eq!(store.payload_count(), 2);
        // Budget just under the total: the oldest pointer ([1]) is
        // evicted, but the shared payload still has a live reference
        // through [2] and MUST survive.
        let squeeze = store.total_bytes() - 1;
        let store = store.with_byte_budget(squeeze);
        assert!(store.load(&[1]).is_none(), "oldest pointer evicted");
        assert!(
            store.load(&[2]).is_some(),
            "payload survives while referenced"
        );
        assert!(store.load(&[3]).is_some());
        assert_eq!(store.payload_count(), 2);
        // Squeezing further evicts [2] and only then cascades the shared
        // payload — nothing references it any more.
        let shared_payload = dir.join(payload_file_name(shared.content_hash()));
        assert!(shared_payload.exists());
        let squeeze = store.total_bytes() - 1;
        let store = store.with_byte_budget(squeeze);
        assert!(store.load(&[2]).is_none());
        assert!(!shared_payload.exists(), "unreferenced payload cascaded");
        assert!(store.load(&[3]).is_some(), "newest entry intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reader_gets_exact_entries_or_misses_while_another_instance_evicts() {
        // Two instances on one directory, each with its own index, as two
        // processes would have. One keeps writing and evicting under a
        // budget of a few entries while the other loads the same prefixes.
        // A load may miss (its pointer or payload was evicted first), but
        // whatever it restores must be that prefix's synthesis, byte for
        // byte.
        use boils_synth::Transform;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let dir = temp_store_dir("crossproc");
        let base = random_aig(350, 7, 160, 3);
        let binary = |aig: &Aig| {
            let mut bytes = Vec::new();
            aig.write_aig_binary(&mut bytes).expect("encode");
            bytes
        };
        // Every prefix of three sequences, synthesised from scratch.
        let mut entries: Vec<(Vec<u8>, Aig, Vec<u8>)> = Vec::new();
        for tokens in [[0u8, 3, 6, 9], [2, 5, 8, 1], [4, 7, 10, 3]] {
            let mut aig = base.clone();
            for len in 1..=tokens.len() {
                aig = Transform::from_index(tokens[len - 1] as usize).apply(&aig);
                entries.push((tokens[..len].to_vec(), aig.clone(), binary(&aig)));
            }
        }
        let writer = PersistentPrefixStore::open_for(&dir, &base).expect("open writer");
        let reader = PersistentPrefixStore::open_for(&dir, &base).expect("open reader");

        // Sequential warm phase: the reader hits what the writer wrote.
        for (prefix, aig, bytes) in &entries[..3] {
            writer.store(prefix, aig);
            let restored = reader.load(prefix).expect("a written entry loads");
            assert_eq!(&binary(&restored), bytes, "prefix {prefix:?}");
        }
        let one_entry = writer.total_bytes() / writer.len() as u64;
        let writer = writer.with_byte_budget(4 * one_entry);

        // The barrier starts both sides together; `done` publishes nothing
        // but itself.
        let start = Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..20 {
                    for (prefix, aig, _) in &entries {
                        writer.store(prefix, aig);
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
            start.wait();
            while !done.load(Ordering::Relaxed) {
                for (prefix, _, bytes) in &entries {
                    if let Some(restored) = reader.load(prefix) {
                        assert_eq!(&binary(&restored), bytes, "prefix {prefix:?}");
                    }
                }
            }
        });
        assert!(
            writer.stats().disk_evictions > 0,
            "the writer never evicted"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transfer_metadata_round_trips_and_picks_the_most_similar_donor() {
        let dir = temp_store_dir("transfer");
        let a = random_aig(350, 8, 200, 4);
        let b = random_aig(351, 8, 210, 4);
        let c = random_aig(352, 24, 1500, 12);
        let store_a = PersistentPrefixStore::open_for(&dir, &a).expect("open");
        let store_b = PersistentPrefixStore::open_for(&dir, &b).expect("open");
        let store_c = PersistentPrefixStore::open_for(&dir, &c).expect("open");
        // No donors yet.
        assert!(store_b.transfer_donor(&CircuitFeatures::of(&b)).is_none());
        store_a.record_transfer(
            &CircuitFeatures::of(&a),
            &[(vec![1, 2, 3], 1.5), (vec![4, 5], 1.2)],
        );
        store_c.record_transfer(&CircuitFeatures::of(&c), &[(vec![9, 9], 1.9)]);
        // b is structurally close to a, far from c.
        let donor = store_b
            .transfer_donor(&CircuitFeatures::of(&b))
            .expect("donor");
        assert_eq!(donor.circuit_hash, a.content_hash());
        assert!(donor.similarity > 0.5);
        // Observations come back best-QoR first.
        assert_eq!(donor.observations[0], (vec![4, 5], 1.2));
        assert_eq!(donor.observations[1], (vec![1, 2, 3], 1.5));
        // Re-recording merges, keeps the best QoR per sequence, and a
        // store never donates to itself.
        store_a.record_transfer(&CircuitFeatures::of(&a), &[(vec![1, 2, 3], 1.1)]);
        let donor = store_b
            .transfer_donor(&CircuitFeatures::of(&b))
            .expect("donor");
        assert_eq!(donor.observations[0], (vec![1, 2, 3], 1.1));
        assert!(store_a
            .transfer_donor(&CircuitFeatures::of(&a))
            .map(|d| d.circuit_hash != a.content_hash())
            .unwrap_or(true));
        let _ = fs::remove_dir_all(&dir);
    }
}
