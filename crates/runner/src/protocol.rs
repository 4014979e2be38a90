//! The pure, side-effect-free core of the crash-recovery protocol.
//!
//! Everything the journal/lease/supervisor stack *decides* — how a
//! record is serialised, which prefix of a journal's bytes is trusted,
//! when a write must be fenced off, what the supervisor does after a
//! worker exit — lives here as plain functions over values. The runtime
//! modules ([`crate::journal`], [`crate::lease`],
//! [`crate::supervisor`]) do the I/O and call in; the `analyzer`
//! crate's explicit-state model checker explores the very same
//! functions over in-memory byte vectors. That sharing is what makes
//! the model checker a proof about *this* implementation rather than a
//! parallel re-implementation that can silently drift (the same
//! refactor shape `pra::schedule` uses for its static verifier).
//!
//! Layering rule: this module depends only on [`crate::point`] data
//! types. No `std::fs`, no `std::time`, no process state.

use std::collections::BTreeMap;

use crate::point::{ClassLatency, DigestSample, PointOutcome, PointRecord};
use crate::system::SystemRecord;

/// A journal byte stream that cannot be decoded.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Human-readable description of the problem (no file path — the
    /// caller that read the bytes knows where they came from).
    pub message: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn err<T>(message: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// Journal wire format
// ---------------------------------------------------------------------

/// Magic prefix of a checkpoint journal's header line. Bumped to v2
/// when the point line grew the reliability columns — a v1 journal's
/// rows cannot be resumed into a v2 artifact, and the magic (not a
/// parse failure 38 fields in) is what should say so.
pub const JOURNAL_MAGIC: &str = "noc-sweep-ckpt v2";

/// The journal's self-describing header: enough to refuse a resume
/// against the wrong spec before any simulation time is spent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`crate::spec::SweepSpec::spec_hash`] of the sweep that wrote it.
    pub spec_hash: u64,
    /// The sweep's base seed.
    pub base_seed: u64,
    /// Total points in the expanded grid.
    pub count: usize,
    /// The sweep's name (for error messages only).
    pub name: String,
}

/// Escapes the journal's separator characters in free-form strings.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn trail_field(trail: &[DigestSample]) -> String {
    if trail.is_empty() {
        return "-".to_string();
    }
    let pairs: Vec<String> = trail
        .iter()
        .map(|&(cycle, digest)| format!("{cycle}:{digest:016x}"))
        .collect();
    pairs.join(";")
}

fn parse_trail(field: &str) -> Option<Vec<DigestSample>> {
    if field == "-" {
        return Some(Vec::new());
    }
    let mut trail = Vec::new();
    for pair in field.split(';') {
        let (cycle, digest) = pair.split_once(':')?;
        trail.push((
            cycle.parse::<u64>().ok()?,
            u64::from_str_radix(digest, 16).ok()?,
        ));
    }
    Some(trail)
}

/// Serialises the journal's header line (newline included).
pub fn header_line(header: &JournalHeader) -> String {
    format!(
        "{JOURNAL_MAGIC}\tspec_hash={:016x}\tbase_seed={}\tcount={}\tname={}\n",
        header.spec_hash,
        header.base_seed,
        header.count,
        escape(&header.name),
    )
}

/// Parses a journal header line (without its newline).
pub fn parse_header(line: &str) -> Option<JournalHeader> {
    let rest = line.strip_prefix(JOURNAL_MAGIC)?;
    let mut spec_hash = None;
    let mut base_seed = None;
    let mut count = None;
    let mut name = None;
    for field in rest.split('\t').filter(|f| !f.is_empty()) {
        let (key, value) = field.split_once('=')?;
        match key {
            "spec_hash" => spec_hash = u64::from_str_radix(value, 16).ok(),
            "base_seed" => base_seed = value.parse::<u64>().ok(),
            "count" => count = value.parse::<usize>().ok(),
            "name" => name = Some(unescape(value)),
            _ => {}
        }
    }
    Some(JournalHeader {
        spec_hash: spec_hash?,
        base_seed: base_seed?,
        count: count?,
        name: name?,
    })
}

/// Serialises a `start` marker line (no newline): point `index` is
/// about to run in some worker process.
pub fn start_line(index: usize) -> String {
    format!("start\t{index}")
}

/// Parses a `start` marker line (without its newline).
pub fn parse_start_line(line: &str) -> Option<usize> {
    let index = line.strip_prefix("start\t")?;
    index.parse().ok()
}

/// Serialises one completed point as a journal line (no newline).
/// Floats go out as `to_bits` hex so the resumed CSV is byte-identical.
/// Shared with the result cache, whose entries embed the same record
/// serialisation under their own integrity digest.
pub fn point_line(outcome: &PointOutcome) -> String {
    let r = &outcome.record;
    let system = r.system.as_ref().map_or_else(String::new, |sys| {
        let counters: Vec<String> = sys.counters.iter().map(u64::to_string).collect();
        format!(
            "\t{}\t{}\t{:016x}\t{}",
            escape(&sys.workload),
            escape(&sys.system),
            sys.ipc.to_bits(),
            counters.join("\t")
        )
    });
    let classes: Vec<String> = r
        .classes
        .iter()
        .map(|c| format!("{}\t{}\t{}\t{}", c.p50, c.p95, c.p99, c.max))
        .collect();
    format!(
        "point\t{}\t{}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}{}",
        r.index,
        escape(&r.org),
        escape(&r.pattern),
        escape(&r.injection),
        r.rate.to_bits(),
        r.radix,
        r.vc_depth,
        r.hpc,
        escape(&r.fault),
        r.sample,
        r.seed,
        escape(&r.status),
        r.attempts,
        r.injected,
        r.delivered,
        r.undrained,
        r.avg_latency.to_bits(),
        r.p50,
        r.p95,
        r.p99,
        r.max_latency,
        r.avg_hops.to_bits(),
        r.throughput.to_bits(),
        classes.join("\t"),
        escape(&r.reliability),
        r.retransmits,
        r.duplicates_suppressed,
        r.escalations,
        escape(&r.digest),
        trail_field(&outcome.trail),
        system,
    )
}

/// Parses one completed-point journal line (without its newline).
pub fn parse_point_line(line: &str) -> Option<PointOutcome> {
    let fields: Vec<&str> = line.split('\t').collect();
    // A workload point's line carries 18 full-system fields after the
    // synthetic point's 42.
    if !matches!(fields.len(), 42 | 60) || fields[0] != "point" {
        return None;
    }
    let f64_at = |i: usize| -> Option<f64> {
        Some(f64::from_bits(u64::from_str_radix(fields[i], 16).ok()?))
    };
    let class_at = |i: usize| -> Option<ClassLatency> {
        Some(ClassLatency {
            p50: fields[i].parse().ok()?,
            p95: fields[i + 1].parse().ok()?,
            p99: fields[i + 2].parse().ok()?,
            max: fields[i + 3].parse().ok()?,
        })
    };
    let record = PointRecord {
        index: fields[1].parse().ok()?,
        org: unescape(fields[2]),
        pattern: unescape(fields[3]),
        injection: unescape(fields[4]),
        rate: f64_at(5)?,
        radix: fields[6].parse().ok()?,
        vc_depth: fields[7].parse().ok()?,
        hpc: fields[8].parse().ok()?,
        fault: unescape(fields[9]),
        sample: fields[10].parse().ok()?,
        seed: fields[11].parse().ok()?,
        status: unescape(fields[12]),
        attempts: fields[13].parse().ok()?,
        injected: fields[14].parse().ok()?,
        delivered: fields[15].parse().ok()?,
        undrained: fields[16].parse().ok()?,
        avg_latency: f64_at(17)?,
        p50: fields[18].parse().ok()?,
        p95: fields[19].parse().ok()?,
        p99: fields[20].parse().ok()?,
        max_latency: fields[21].parse().ok()?,
        avg_hops: f64_at(22)?,
        throughput: f64_at(23)?,
        classes: [class_at(24)?, class_at(28)?, class_at(32)?],
        reliability: unescape(fields[36]),
        retransmits: fields[37].parse().ok()?,
        duplicates_suppressed: fields[38].parse().ok()?,
        escalations: fields[39].parse().ok()?,
        digest: unescape(fields[40]),
        system: match fields.get(42..) {
            Some([workload, system, _, cells @ ..]) => {
                let mut counters = [0; 15];
                for (c, cell) in counters.iter_mut().zip(cells) {
                    *c = cell.parse().ok()?;
                }
                Some(Box::new(SystemRecord {
                    workload: unescape(workload),
                    system: unescape(system),
                    ipc: f64_at(44)?,
                    counters,
                }))
            }
            _ => None,
        },
    };
    let trail = parse_trail(fields[41])?;
    Some(PointOutcome { record, trail })
}

/// Which journal dialect a byte stream is decoded as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalDialect {
    /// The consolidated main journal: completed points only; an
    /// interior `start` marker is corruption.
    Main,
    /// A worker shard journal: `start` markers interleave with
    /// completed points, and a terminated marker with no completed
    /// record after it names the point the worker died running.
    WorkerShard,
}

/// The result of replaying a journal byte stream.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The journal's self-describing header.
    pub header: JournalHeader,
    /// Every fully-written point, keyed by grid index.
    pub done: BTreeMap<usize, PointOutcome>,
    /// Byte length of the trusted prefix: just past the newline of the
    /// last fully-synced line. Anything beyond it is a torn tail that
    /// must be truncated before the next append.
    pub valid_len: u64,
    /// [`JournalDialect::WorkerShard`] only: the point a `start`
    /// marker named without a completed record following it.
    pub dangling_start: Option<usize>,
}

/// Replays a journal from raw bytes: the header plus every
/// fully-written point. A torn final line is dropped silently (that is
/// the expected crash artifact) — the bytes are split at newlines and
/// decoded per line, so a tear inside a multi-byte character is still
/// just a torn tail. A torn line *followed by more lines* means the
/// stream is corrupt, not truncated, and is an error.
///
/// This is the single trusted-prefix computation: the runtime loaders
/// in [`crate::journal`] feed it file contents, and the protocol model
/// checker feeds it in-memory journals, so what the checker proves
/// about torn tails is exactly what a resume executes.
///
/// # Errors
///
/// Bad magic, malformed or unterminated header, or mid-stream
/// corruption.
pub fn replay_journal_bytes(
    data: &[u8],
    dialect: JournalDialect,
) -> Result<JournalReplay, ProtocolError> {
    // Line spans by byte offset; the final span may lack its newline.
    let mut spans: Vec<(usize, usize, bool)> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i, true));
            start = i + 1;
        }
    }
    if start < data.len() {
        spans.push((start, data.len(), false));
    }

    // The header must be complete (the writer syncs it, newline
    // included, before any point can land) — an unterminated or
    // undecodable first line means the journal never finished being
    // born.
    let header_bytes = spans.first().map_or(&[][..], |&(s, e, _)| &data[s..e]);
    let header_terminated = spans.first().is_some_and(|&(_, _, t)| t);
    let header = std::str::from_utf8(header_bytes)
        .ok()
        .filter(|_| header_terminated)
        .and_then(parse_header)
        .ok_or_else(|| ProtocolError {
            message: format!(
                "bad header line {:?}",
                String::from_utf8_lossy(header_bytes)
            ),
        })?;

    let allow_starts = dialect == JournalDialect::WorkerShard;
    let mut done = BTreeMap::new();
    let mut dangling_start: Option<usize> = None;
    let mut pending_torn: Option<usize> = None;
    let mut valid_len = (spans[0].1 + 1) as u64;
    for (i, &(s, e, terminated)) in spans.iter().enumerate().skip(1) {
        if s == e {
            continue;
        }
        if let Some(at) = pending_torn {
            return err(format!(
                "corrupt line {} followed by more data (not a torn tail)",
                at + 1
            ));
        }
        let text = std::str::from_utf8(&data[s..e]).ok();
        if allow_starts {
            if let Some(index) = text.and_then(parse_start_line) {
                if terminated {
                    valid_len = (e + 1) as u64;
                    dangling_start = Some(index);
                } else {
                    // The crash landed inside the marker itself: nothing
                    // was started, so there is no culprit to attribute.
                    pending_torn = Some(i);
                }
                continue;
            }
        }
        match text.and_then(parse_point_line) {
            Some(outcome) if terminated => {
                valid_len = (e + 1) as u64;
                // The point that was started has now finished — its
                // marker is no longer evidence of a crash.
                dangling_start = None;
                done.insert(outcome.record.index, outcome);
            }
            // Unparseable, or parseable but missing the newline that
            // the writer syncs with the record: either way the append
            // never completed, so treat the line as torn and let the
            // resume re-run that point instead of trusting it.
            _ => pending_torn = Some(i),
        }
    }
    Ok(JournalReplay {
        header,
        done,
        valid_len,
        dangling_start,
    })
}

// ---------------------------------------------------------------------
// Lease wire format and generation fencing
// ---------------------------------------------------------------------

/// Magic prefix of a shard lease file.
pub const LEASE_MAGIC: &str = "noc-sweep-lease v1";

/// The decoded contents of a lease file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lease {
    /// Which shard this lease covers.
    pub shard: usize,
    /// Fencing token: bumped by the supervisor on every takeover.
    pub generation: u64,
    /// OS pid of the worker holding the lease (used by the chaos
    /// harness to aim its SIGKILLs, and by humans reading the dir).
    pub pid: u32,
    /// Heartbeat counter; advances while the holder is alive.
    pub beat: u64,
}

/// Serialises a lease as its single file line (newline included).
pub fn lease_line(lease: &Lease) -> String {
    format!(
        "{LEASE_MAGIC}\tshard={}\tgen={}\tpid={}\tbeat={}\n",
        lease.shard, lease.generation, lease.pid, lease.beat,
    )
}

/// Parses the contents of a lease file.
pub fn parse_lease(text: &str) -> Option<Lease> {
    let rest = text.trim_end_matches('\n').strip_prefix(LEASE_MAGIC)?;
    let mut shard = None;
    let mut generation = None;
    let mut pid = None;
    let mut beat = None;
    for field in rest.split('\t').filter(|f| !f.is_empty()) {
        let (key, value) = field.split_once('=')?;
        match key {
            "shard" => shard = value.parse::<usize>().ok(),
            "gen" => generation = value.parse::<u64>().ok(),
            "pid" => pid = value.parse::<u32>().ok(),
            "beat" => beat = value.parse::<u64>().ok(),
            _ => {}
        }
    }
    Some(Lease {
        shard: shard?,
        generation: generation?,
        pid: pid?,
        beat: beat?,
    })
}

/// A write refused by the generation fence: the writer observed a lease
/// from a later generation, meaning a successor has taken over its
/// shard and anything it writes from now on is a zombie write.
///
/// The `Display` form is the canonical counterexample vocabulary shared
/// with the protocol model checker — a fenced worker's refusal message
/// and a checker trace step describe the same event with the same
/// words.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FenceError {
    /// The shard being written.
    pub shard: usize,
    /// The writer's own generation (its fencing token).
    pub writer_generation: u64,
    /// The later generation observed in the lease file.
    pub observed_generation: u64,
}

impl std::fmt::Display for FenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation fence: worker[shard {}, gen {}] observed lease gen {}; write refused",
            self.shard, self.writer_generation, self.observed_generation
        )
    }
}

impl std::error::Error for FenceError {}

/// Decides whether a gen-`writer_generation` writer may still touch
/// shard `shard` given the lease it just observed. A lease from a
/// *later* generation fences the writer off; its own lease (equal
/// generation), an older lease, or no lease at all are all fine — the
/// supervisor only ever moves generations forward.
///
/// # Errors
///
/// [`FenceError`] when the observed lease outranks the writer.
pub fn check_fence(
    shard: usize,
    writer_generation: u64,
    observed: Option<&Lease>,
) -> Result<(), FenceError> {
    match observed {
        Some(lease) if lease.generation > writer_generation => Err(FenceError {
            shard,
            writer_generation,
            observed_generation: lease.generation,
        }),
        _ => Ok(()),
    }
}

/// Decides whether a worker may *claim* shard `shard` at generation
/// `claim_generation`. Stricter than [`check_fence`]: an on-disk lease
/// at the **same** generation means another live process already holds
/// this exact fencing token (e.g. an orphan of a killed supervisor that
/// claimed between the new supervisor's directory scan and this spawn),
/// and two writers must never share a generation.
///
/// # Errors
///
/// [`FenceError`] when the observed lease's generation is at or above
/// the claim.
pub fn check_claim(
    shard: usize,
    claim_generation: u64,
    observed: Option<&Lease>,
) -> Result<(), FenceError> {
    match observed {
        Some(lease) if lease.generation >= claim_generation => Err(FenceError {
            shard,
            writer_generation: claim_generation,
            observed_generation: lease.generation,
        }),
        _ => Ok(()),
    }
}

/// The generation a resuming supervisor spawns at, given every
/// generation it could observe in leftover coordination files (shard
/// journal names and lease contents). One past the maximum fences off
/// any orphan worker of the killed supervisor that is still running:
/// the orphan's next lease read sees a later generation and it stops
/// cleanly instead of racing the successor.
pub fn resume_spawn_generation(observed: impl IntoIterator<Item = u64>) -> u64 {
    observed.into_iter().max().map_or(0, |g| g + 1)
}

// ---------------------------------------------------------------------
// Staleness detection (pure core)
// ---------------------------------------------------------------------

/// Supervisor-side staleness decision for one shard's lease, driven by
/// an abstract millisecond clock supplied by the caller. The runtime
/// wraps it with a monotonic clock ([`crate::lease::LeaseMonitor`]);
/// tests and the model checker drive it with explicit ticks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StalenessCore {
    timeout_ms: u64,
    seen: Option<(u64, u64)>,
    changed_at_ms: u64,
}

impl StalenessCore {
    /// A detector that declares a lease stale after `timeout_ms`
    /// without an observed `(generation, beat)` change.
    pub fn new(timeout_ms: u64) -> StalenessCore {
        StalenessCore {
            timeout_ms,
            seen: None,
            changed_at_ms: 0,
        }
    }

    /// Feeds one observation at time `now_ms`; returns `true` if the
    /// lease is now stale (unchanged for longer than the timeout).
    pub fn observe_at(&mut self, now_ms: u64, generation: u64, beat: u64) -> bool {
        let now = (generation, beat);
        if self.seen != Some(now) {
            self.seen = Some(now);
            self.changed_at_ms = now_ms;
            return false;
        }
        now_ms.saturating_sub(self.changed_at_ms) > self.timeout_ms
    }

    /// Forgets all history — used after a takeover so the successor
    /// generation starts with a fresh staleness window.
    pub fn reset_at(&mut self, now_ms: u64) {
        self.seen = None;
        self.changed_at_ms = now_ms;
    }
}

// ---------------------------------------------------------------------
// Supervisor exit policy
// ---------------------------------------------------------------------

/// Exit status a worker uses to report "I was fenced off": it found a
/// lease at its generation or later (claim refused) or watched its
/// lease move past it (boundary stop), and exited without touching
/// the shard further. The supervisor must treat this as the fencing
/// protocol *working* — respawn at the next generation without
/// charging the give-up backstop. (Found by the model checker: when
/// fenced exits were indistinguishable from buggy clean-with-pending
/// exits, an orphan claim race plus `crash_limit` worker kills made
/// the supervisor abandon a perfectly recoverable sweep.)
pub const FENCED_EXIT_CODE: i32 = 3;

/// What the supervisor observed about one worker exit, after harvesting
/// the worker's shard journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerExit {
    /// The process exited with status 0.
    pub clean: bool,
    /// The process exited with [`FENCED_EXIT_CODE`]: a successor (or a
    /// surviving orphan) holds the shard's lease and this worker backed
    /// off without writing.
    pub fenced: bool,
    /// The process exited with the fatal-configuration status (it
    /// refused to run at all; every respawn would refuse too).
    pub fatal_config: bool,
    /// The point named by a dangling `start` marker in the harvested
    /// shard journal — the point the worker died running.
    pub dangling_start: Option<usize>,
    /// The harvest salvaged at least one newly completed point.
    pub progressed: bool,
    /// After the harvest, the shard still has points without outcomes.
    pub shard_pending: bool,
}

/// A point quarantined by the exit policy: it killed `crashes` workers
/// in a row and becomes a deterministic `poisoned(...)` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantine {
    /// The quarantined grid index.
    pub point: usize,
    /// Consecutive worker deaths attributed to it.
    pub crashes: u32,
}

/// What the supervisor must do after reaping one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorStep {
    /// The shard is fully done; close its slot.
    ShardDone,
    /// The worker hit a deterministic configuration error; the sweep
    /// cannot proceed.
    FatalWorkerConfig,
    /// The shard's worker died `deaths` times without starting a
    /// point; give up rather than respawn forever.
    GiveUp {
        /// Consecutive unattributed deaths.
        deaths: u32,
    },
    /// Carry on: quarantine `quarantine` (if set), then respawn the
    /// shard at the next generation if it still has pending work.
    Continue {
        /// A point that just crossed the crash limit, if any.
        quarantine: Option<Quarantine>,
    },
}

/// The supervisor's crash bookkeeping: per-point consecutive-death
/// counts (the quarantine trigger) and per-shard unattributed-death
/// counts (the give-up backstop for exec/disk failure loops that never
/// name a culprit point).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashLedger {
    crash_counts: BTreeMap<usize, u32>,
    unattributed: Vec<u32>,
}

impl CrashLedger {
    /// A fresh ledger for `shards` worker slots.
    pub fn new(shards: usize) -> CrashLedger {
        CrashLedger {
            crash_counts: BTreeMap::new(),
            unattributed: vec![0; shards],
        }
    }

    /// Applies one worker exit to the ledger and decides the
    /// supervisor's next step. This is the exact decision procedure
    /// `run_supervised` executes; the model checker replays it over
    /// every reachable crash interleaving.
    pub fn on_worker_exit(
        &mut self,
        shard: usize,
        exit: &WorkerExit,
        crash_limit: u32,
    ) -> SupervisorStep {
        if (exit.clean || exit.fenced) && !exit.shard_pending {
            return SupervisorStep::ShardDone;
        }
        if exit.fatal_config {
            return SupervisorStep::FatalWorkerConfig;
        }
        if exit.fenced {
            // The fence did its job: someone at a later (or equal)
            // generation owns the shard. Respawning above the observed
            // lease re-fences whoever holds it; the exit is neither
            // progress nor a strike against the give-up backstop.
            return SupervisorStep::Continue { quarantine: None };
        }
        let mut quarantine = None;
        if exit.clean {
            // A clean exit that left work undone is a protocol
            // violation; retry, but under the same backstop as
            // exec-loop failures.
            self.unattributed[shard] += 1;
        } else if let Some(culprit) = exit.dangling_start {
            self.unattributed[shard] = 0;
            let count = self.crash_counts.entry(culprit).or_insert(0);
            *count += 1;
            if *count >= crash_limit {
                quarantine = Some(Quarantine {
                    point: culprit,
                    crashes: *count,
                });
            }
        } else if exit.progressed {
            self.unattributed[shard] = 0;
        } else {
            self.unattributed[shard] += 1;
        }
        if self.unattributed[shard] > crash_limit {
            return SupervisorStep::GiveUp {
                deaths: self.unattributed[shard],
            };
        }
        SupervisorStep::Continue { quarantine }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(generation: u64) -> Lease {
        Lease {
            shard: 0,
            generation,
            pid: 1,
            beat: 0,
        }
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["plain", "tab\tnl\nbs\\cr\r", "", "\\t"] {
            assert_eq!(unescape(&escape(s)), s, "escaping {s:?}");
            assert!(!escape(s).contains('\t'), "no raw tabs may leak");
            assert!(!escape(s).contains('\n'), "no raw newlines may leak");
        }
    }

    #[test]
    fn start_lines_round_trip() {
        assert_eq!(parse_start_line(&start_line(42)), Some(42));
        assert_eq!(parse_start_line("point\t42"), None);
    }

    #[test]
    fn fence_rejects_only_later_generations() {
        assert!(check_fence(0, 3, None).is_ok());
        assert!(check_fence(0, 3, Some(&lease(2))).is_ok());
        assert!(check_fence(0, 3, Some(&lease(3))).is_ok());
        let e = check_fence(0, 3, Some(&lease(4))).expect_err("later gen fences");
        assert_eq!(e.observed_generation, 4);
        assert!(
            e.to_string().contains("worker[shard 0, gen 3]"),
            "canonical counterexample vocabulary: {e}"
        );
    }

    #[test]
    fn claim_rejects_equal_generations_too() {
        assert!(check_claim(1, 3, None).is_ok());
        assert!(check_claim(1, 3, Some(&lease(2))).is_ok());
        assert!(check_claim(1, 3, Some(&lease(3))).is_err());
        assert!(check_claim(1, 3, Some(&lease(4))).is_err());
    }

    #[test]
    fn resume_generation_is_one_past_everything_observed() {
        assert_eq!(resume_spawn_generation([]), 0);
        assert_eq!(resume_spawn_generation([0]), 1);
        assert_eq!(resume_spawn_generation([2, 0, 1]), 3);
    }

    #[test]
    fn staleness_core_matches_the_monitor_contract() {
        let mut c = StalenessCore::new(30);
        assert!(!c.observe_at(0, 1, 0), "first sighting is never stale");
        assert!(c.observe_at(60, 1, 0), "frozen past the timeout is stale");
        assert!(!c.observe_at(61, 1, 1), "a heartbeat un-stales the lease");
        assert!(c.observe_at(120, 1, 1));
        assert!(
            !c.observe_at(121, 2, 0),
            "a new generation resets the clock"
        );
        c.reset_at(121);
        assert!(!c.observe_at(180, 2, 0), "reset forgets the frozen history");
    }

    #[test]
    fn ledger_quarantines_at_the_crash_limit() {
        let mut ledger = CrashLedger::new(2);
        let crash_on = |point| WorkerExit {
            clean: false,
            fenced: false,
            fatal_config: false,
            dangling_start: Some(point),
            progressed: false,
            shard_pending: true,
        };
        assert_eq!(
            ledger.on_worker_exit(0, &crash_on(7), 2),
            SupervisorStep::Continue { quarantine: None }
        );
        assert_eq!(
            ledger.on_worker_exit(0, &crash_on(7), 2),
            SupervisorStep::Continue {
                quarantine: Some(Quarantine {
                    point: 7,
                    crashes: 2
                })
            }
        );
    }

    #[test]
    fn ledger_gives_up_on_unattributed_death_loops() {
        let mut ledger = CrashLedger::new(1);
        let silent_crash = WorkerExit {
            clean: false,
            fenced: false,
            fatal_config: false,
            dangling_start: None,
            progressed: false,
            shard_pending: true,
        };
        for _ in 0..2 {
            assert_eq!(
                ledger.on_worker_exit(0, &silent_crash, 2),
                SupervisorStep::Continue { quarantine: None }
            );
        }
        assert_eq!(
            ledger.on_worker_exit(0, &silent_crash, 2),
            SupervisorStep::GiveUp { deaths: 3 }
        );
    }

    #[test]
    fn progress_and_attribution_reset_the_backstop() {
        let mut ledger = CrashLedger::new(1);
        let exit = |dangling, progressed| WorkerExit {
            clean: false,
            fenced: false,
            fatal_config: false,
            dangling_start: dangling,
            progressed,
            shard_pending: true,
        };
        let _ = ledger.on_worker_exit(0, &exit(None, false), 5);
        let _ = ledger.on_worker_exit(0, &exit(None, true), 5);
        assert_eq!(ledger.unattributed[0], 0, "progress resets the count");
        let _ = ledger.on_worker_exit(0, &exit(None, false), 5);
        let _ = ledger.on_worker_exit(0, &exit(Some(3), false), 5);
        assert_eq!(ledger.unattributed[0], 0, "attribution resets the count");
    }

    #[test]
    fn clean_exit_with_pending_work_counts_toward_give_up() {
        let mut ledger = CrashLedger::new(1);
        let lazy = WorkerExit {
            clean: true,
            fenced: false,
            fatal_config: false,
            dangling_start: None,
            progressed: false,
            shard_pending: true,
        };
        assert_eq!(
            ledger.on_worker_exit(0, &lazy, 0),
            SupervisorStep::GiveUp { deaths: 1 }
        );
    }

    #[test]
    fn fenced_exits_never_charge_the_give_up_backstop() {
        let mut ledger = CrashLedger::new(1);
        let fenced = WorkerExit {
            clean: false,
            fenced: true,
            fatal_config: false,
            dangling_start: None,
            progressed: false,
            shard_pending: true,
        };
        for _ in 0..10 {
            assert_eq!(
                ledger.on_worker_exit(0, &fenced, 0),
                SupervisorStep::Continue { quarantine: None },
                "a fenced exit is the protocol working, not a strike"
            );
        }
        let done = WorkerExit {
            shard_pending: false,
            ..fenced
        };
        assert_eq!(
            ledger.on_worker_exit(0, &done, 0),
            SupervisorStep::ShardDone
        );
    }
}
