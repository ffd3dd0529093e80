//! The three workloads. Each is prepared (inputs generated, service
//! constructed — the timed set-up) into a [`Round`], which runs the
//! timed phase once as a closed loop from a single client thread and
//! checks every output.

use crate::ledger::Ledger;
use crate::script::{self, Churn, ChurnShape, Kind, Op};
use crate::trace::Tracer;
use eq_core::durable::{CHECKPOINT_FILE, WAL_FILE};
use eq_core::{
    BatchReport, Coordinator, DurableCoordinator, EngineConfig, EngineMode, Event, Events,
    NoSolutionPolicy, OverflowPolicy, SubmitRequest,
};
use eq_db::Database;
use eq_workload::rng::{SliceRandom, StdRng};
use eq_workload::{giant_component, GiantBody, GiantComponentConfig, ScriptSubmission};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServiceChurn,
    GiantRing,
    DurableChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "service_churn" => Some(Workload::ServiceChurn),
            "giant_ring" => Some(Workload::GiantRing),
            "durable_churn" => Some(Workload::DurableChurn),
            _ => None,
        }
    }

    /// Builds one round's inputs and service from `seed`.
    pub fn prepare(self, seed: u64) -> Round {
        match self {
            Workload::ServiceChurn => service_churn(seed),
            Workload::GiantRing => giant_ring(seed),
            Workload::DurableChurn => durable_churn(seed),
        }
    }
}

/// `service_churn`: thousands of sessions, tens of locality groups, a
/// 4-shard service.
const SERVICE_SHAPE: ChurnShape = ChurnShape {
    users: 10_000,
    queries: 20_000,
    burst: 1_000,
    flush_every_bursts: 4,
    sessions: 4_000,
    locality_groups: 64,
    cross_permille: 20,
};
/// `durable_churn`: the same stream through a durable coordinator, long
/// enough for three checkpoints before the kill. The query count is a
/// multiple of `burst × flush_every_bursts`, so the last burst is
/// flushed before the kill.
const DURABLE_SHAPE: ChurnShape = ChurnShape {
    queries: 40_000,
    ..SERVICE_SHAPE
};
const SERVICE_SHARDS: usize = 4;
/// `service_churn` runs its engine sequentially on the client thread
/// (`flush_threads: 1`, the `EngineConfig` default). With
/// `flush_threads: 0` every ~2-query `submit_batch` spawns and joins one
/// thread per hardware thread (`pool::parallel_claim`). On a 2-vCPU
/// shared host those spawns took about two thirds of the round, and
/// their cost followed the host's scheduler, not the program: ten runs
/// of the same code spread by 27% in throughput and 77% in the submit
/// tail. Without them the round measures the router, admission probing,
/// shard locks and dispatch.
const SERVICE_FLUSH_THREADS: usize = 1;
/// `durable_churn` checkpoints after every this many flushes.
const CHECKPOINT_EVERY_FLUSHES: usize = 3;
/// `giant_ring`: ring size and admission burst.
const GIANT_QUERIES: usize = 20_000;
const GIANT_BURST: usize = 500;

/// One prepared round: runs the timed phase (tracing on or off).
pub type Round = Box<dyn FnOnce(bool) -> RoundOutcome>;

pub struct RoundOutcome {
    pub ledger: Ledger,
    /// Timed phase: first submission to the last terminal event.
    pub wall_s: f64,
    /// Duration of every submit call (the client's acknowledgement wait).
    pub ack_ms: Vec<f64>,
    /// Per-layer counters read from the program's public API.
    pub counters: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

fn engine_config(service_shards: usize, flush_threads: usize) -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        flush_threads,
        service_shards,
        ..Default::default()
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn request(sub: &ScriptSubmission) -> SubmitRequest {
    let mut request = SubmitRequest::new(sub.query.clone());
    if let Some(bound) = sub.staleness {
        request = request.staleness(bound);
    }
    if sub.keep_pending {
        request = request.on_no_solution(NoSolutionPolicy::KeepPending);
    }
    request
}

/// Queue bound for an inline-drained subscription: one terminal event
/// per query plus one report per flush, so the client never blocks on
/// its own queue.
fn event_bound(churn: &Churn) -> usize {
    churn.queries + churn.ops.len() + 8
}

fn database(tables: Vec<script::TableRows>) -> Database {
    let mut db = Database::new();
    for (name, columns, rows) in tables {
        db.create_table(name, &columns).expect("fresh table");
        db.insert_many(name, rows).expect("rows match the schema");
    }
    db
}

/// Sums flush reports into the engine / matching / intra / unify
/// counters.
fn fold_reports(counters: &mut BTreeMap<&'static str, f64>, reports: &[BatchReport]) {
    let sum = |f: &dyn Fn(&BatchReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&BatchReport) -> u64| reports.iter().map(f).max().unwrap_or(0) as f64;
    let components = sum(&|r| r.components as u64);
    let skipped = sum(&|r| r.skipped_clean as u64);
    counters.insert("engine.components", components);
    counters.insert("engine.skipped_clean", skipped);
    counters.insert(
        "engine.clean_skip_ratio",
        if components + skipped > 0.0 {
            skipped / (components + skipped)
        } else {
            0.0
        },
    );
    counters.insert("engine.answered", sum(&|r| r.answered as u64));
    counters.insert("engine.failed", sum(&|r| r.failed as u64));
    counters.insert("matching.dequeues", sum(&|r| r.stats.dequeues));
    counters.insert("matching.mgu_calls", sum(&|r| r.stats.mgu_calls));
    counters.insert("matching.cleanups", sum(&|r| r.stats.cleanups));
    counters.insert("intra.units", sum(&|r| r.intra_units as u64));
    counters.insert("intra.regions", sum(&|r| r.intra_regions as u64));
    counters.insert("intra.witness_peak", max(&|r| r.intra_witness_peak));
    counters.insert("unify.merges", sum(&|r| r.unify_merges));
    counters.insert("unify.rollbacks", sum(&|r| r.unify_rollbacks));
    counters.insert("unify.clones", sum(&|r| r.unify_clones));
    counters.insert("unify.undo_high_water", max(&|r| r.unify_undo_high_water));
}

/// Service-lock figures summed over the coordinators a round used.
#[derive(Default)]
struct LockTotals {
    hold_ns: u64,
    max_hold_ns: u64,
    acquisitions: u64,
    hottest_shard_ns: u64,
    queue_peak: u64,
}

impl LockTotals {
    fn add(&mut self, c: &Coordinator) {
        for s in c.shard_lock_stats() {
            self.hold_ns += s.hold_ns;
            self.max_hold_ns = self.max_hold_ns.max(s.max_hold_ns);
            self.acquisitions += s.acquisitions;
            self.hottest_shard_ns = self.hottest_shard_ns.max(s.hold_ns);
        }
        self.queue_peak = self.queue_peak.max(c.dispatch_queue_peak());
    }

    fn record(&self, counters: &mut BTreeMap<&'static str, f64>) {
        counters.insert("service.lock.hold_s", self.hold_ns as f64 / 1e9);
        counters.insert("service.lock.max_hold_ms", self.max_hold_ns as f64 / 1e6);
        counters.insert("service.lock.acquisitions", self.acquisitions as f64);
        counters.insert(
            "service.lock.hottest_shard_share",
            if self.hold_ns > 0 {
                self.hottest_shard_ns as f64 / self.hold_ns as f64
            } else {
                0.0
            },
        );
        counters.insert("dispatch.queue_peak", self.queue_peak as f64);
    }
}

/// An inline-drained subscription: the client thread empties it after every
/// script operation.
struct Inline {
    events: Events,
    received: u64,
    flush_lag_ms: f64,
}

impl Inline {
    fn new(events: Events) -> Self {
        Inline {
            events,
            received: 0,
            flush_lag_ms: 0.0,
        }
    }

    /// Drains everything queued; `flush_end_ns` is when the flush that
    /// preceded this drain returned, if one did.
    fn drain(
        &mut self,
        ledger: &mut Ledger,
        tracer: &mut Tracer,
        parent: Option<u32>,
        request: u64,
        epoch: Instant,
        flush_end_ns: Option<u64>,
    ) {
        let batch = tracer.time("events.drain", parent, request, || self.events.drain());
        let now = ns_since(epoch);
        self.received += batch.len() as u64;
        for event in &batch {
            if ledger.event(event, now) {
                if let Some(end) = flush_end_ns {
                    let lag = now.saturating_sub(end) as f64 / 1e6;
                    self.flush_lag_ms = self.flush_lag_ms.max(lag);
                }
            }
        }
    }

    fn record(&self, counters: &mut BTreeMap<&'static str, f64>) {
        counters.insert("events.received", self.received as f64);
        counters.insert("events.dropped", self.events.stats().dropped as f64);
        counters.insert("events.flush_lag_ms", self.flush_lag_ms);
    }
}

fn service_churn(seed: u64) -> Round {
    let graph = script::graph(SERVICE_SHAPE.users, seed);
    let churn = script::churn(&graph, &SERVICE_SHAPE, seed);
    let db = database(script::tables(&graph));
    drop(graph);
    let coordinator = Coordinator::new(db, engine_config(SERVICE_SHARDS, SERVICE_FLUSH_THREADS));
    let events = coordinator.subscribe_with(event_bound(&churn), OverflowPolicy::Block);
    let mut sessions: Vec<eq_core::Session> =
        (0..churn.sessions).map(|_| coordinator.session()).collect();
    Box::new(move |traced| {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(traced, epoch, 0);
        let mut ledger = Ledger::default();
        let mut inline = Inline::new(events);
        let mut ack_ms = Vec::new();
        let mut reports = Vec::new();
        let mut buckets: Vec<Vec<&(ScriptSubmission, Kind)>> = vec![Vec::new(); sessions.len()];
        let (mut bursts, mut flushes) = (0u64, 0u64);
        for op in &churn.ops {
            let mut flush_end = None;
            let (parent, request) = match op {
                Op::Burst(subs) => {
                    let parent = tracer.open("script.burst", bursts);
                    for entry in subs {
                        buckets[entry.0.session].push(entry);
                    }
                    for (s, bucket) in buckets.iter_mut().enumerate() {
                        if bucket.is_empty() {
                            continue;
                        }
                        let requests = bucket.iter().map(|(sub, _)| request(sub)).collect();
                        let start = ns_since(epoch);
                        let results = tracer.time("service.submit_batch", parent, bursts, || {
                            sessions[s].submit_batch(requests)
                        });
                        ack_ms.push((ns_since(epoch) - start) as f64 / 1e6);
                        for ((_, kind), result) in bucket.drain(..).zip(results) {
                            match result {
                                Ok(handle) => ledger.admit(handle.id, *kind, start),
                                Err(e) => ledger.refuse(e),
                            }
                        }
                    }
                    bursts += 1;
                    (parent, bursts - 1)
                }
                Op::Flush => {
                    let parent = tracer.open("script.flush", flushes);
                    reports.push(
                        tracer.time("service.flush", parent, flushes, || coordinator.flush()),
                    );
                    flush_end = Some(ns_since(epoch));
                    flushes += 1;
                    (parent, flushes - 1)
                }
                Op::Load(relation, rows) => {
                    let parent = tracer.open("script.load", 0);
                    if let Err(e) = tracer.time("service.load", parent, 0, || {
                        coordinator.load(relation, rows.clone())
                    }) {
                        ledger.error(format!("load refused: {e}"));
                    }
                    ledger.loaded = true;
                    (parent, 0)
                }
            };
            inline.drain(&mut ledger, &mut tracer, parent, request, epoch, flush_end);
            tracer.close(parent);
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        ledger.finish();
        let mut counters = BTreeMap::new();
        fold_reports(&mut counters, &reports);
        let mut locks = LockTotals::default();
        locks.add(&coordinator);
        locks.record(&mut counters);
        inline.record(&mut counters);
        counters.insert("script.dropped_queries", churn.dropped as f64);
        RoundOutcome {
            ledger,
            wall_s,
            ack_ms,
            counters,
            tracer,
        }
    })
}

fn giant_ring(seed: u64) -> Round {
    let (db, mut queries) = giant_component(&GiantComponentConfig {
        queries: GIANT_QUERIES,
        body: GiantBody::Chain,
        ..Default::default()
    });
    queries.shuffle(&mut StdRng::seed_from_u64(seed));
    let coordinator = Coordinator::new(db, engine_config(1, 0));
    let events = coordinator.subscribe();
    let mut session = coordinator.session();
    Box::new(move |traced| {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(traced, epoch, 0);
        let mut ledger = Ledger::default();
        let mut ack_ms = Vec::new();
        let (received, drain_tracer, report, flush_end) = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| drain_until_flushed(&events, epoch, traced));
            for (b, chunk) in queries.chunks(GIANT_BURST).enumerate() {
                let requests = chunk.iter().cloned().map(SubmitRequest::new).collect();
                let start = ns_since(epoch);
                let results = tracer.time("service.submit_batch", None, b as u64, || {
                    session.submit_batch(requests)
                });
                ack_ms.push((ns_since(epoch) - start) as f64 / 1e6);
                for result in results {
                    match result {
                        Ok(handle) => ledger.admit(handle.id, Kind::Prompt, start),
                        Err(e) => ledger.refuse(e),
                    }
                }
            }
            let report = tracer.time("service.flush", None, 0, || coordinator.flush());
            let flush_end = ns_since(epoch);
            let (received, drain_tracer) = drainer.join().expect("event drainer panicked");
            (received, drain_tracer, report, flush_end)
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let mut flush_lag_ms = 0.0;
        let mut flushed = false;
        for (event, at) in &received {
            if ledger.event(event, *at) {
                flushed = true;
                flush_lag_ms = at.saturating_sub(flush_end) as f64 / 1e6;
            }
        }
        if !flushed {
            ledger.error("the flush report never arrived".to_string());
        }
        ledger.finish();
        let dropped = events.stats().dropped;
        if dropped != 0 {
            ledger.error(format!("{dropped} events dropped"));
        }
        let mut counters = BTreeMap::new();
        fold_reports(&mut counters, &[report]);
        let mut locks = LockTotals::default();
        locks.add(&coordinator);
        locks.record(&mut counters);
        counters.insert("events.received", received.len() as f64);
        counters.insert("events.dropped", dropped as f64);
        counters.insert("events.flush_lag_ms", flush_lag_ms);
        tracer.absorb(drain_tracer);
        RoundOutcome {
            ledger,
            wall_s,
            ack_ms,
            counters,
            tracer,
        }
    })
}

/// The drainer thread of `giant_ring`: receives events until the flush
/// report arrives, stamping each with its arrival time.
fn drain_until_flushed(
    events: &Events,
    epoch: Instant,
    traced: bool,
) -> (Vec<(Arc<Event>, u64)>, Tracer) {
    let mut tracer = Tracer::new(traced, epoch, 1);
    let mut received = Vec::with_capacity(GIANT_QUERIES + 1);
    let give_up = Instant::now() + Duration::from_secs(120);
    while Instant::now() < give_up {
        let next = tracer.time("events.next_timeout", None, received.len() as u64, || {
            events.next_timeout(Duration::from_millis(200))
        });
        if let Some(event) = next {
            let last = !event.is_terminal();
            received.push((event, ns_since(epoch)));
            if last {
                break;
            }
        }
    }
    (received, tracer)
}

/// A fresh `eq_store` scratch directory, purged when dropped — also
/// when a check fails or the round panics.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        eq_store::purge_dir(&self.0);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn durable_churn(seed: u64) -> Round {
    let graph = script::graph(DURABLE_SHAPE.users, seed);
    let churn = script::churn(&graph, &DURABLE_SHAPE, seed);
    let tables = script::tables(&graph);
    drop(graph);
    let scratch = Scratch(eq_store::scratch_dir("perfbench-durable"));
    let config = engine_config(1, 0);
    let dc = DurableCoordinator::open(&scratch.0, config.clone()).expect("fresh durable directory");
    for (name, columns, rows) in tables {
        dc.create_table(name, &columns).expect("fresh table");
        dc.load(name, rows).expect("rows match the schema");
    }
    dc.checkpoint().expect("initial checkpoint");
    // The kill lands just before the final `Load`: everything but the
    // deferred pairs is terminal, and they must survive the restart.
    let kill_at = churn
        .ops
        .iter()
        .rposition(|op| matches!(op, Op::Load(..)))
        .expect("the script ends with a Load");
    Box::new(move |traced| {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(traced, epoch, 0);
        let mut ledger = Ledger::default();
        let mut ack_ms = Vec::new();
        let mut reports = Vec::new();
        let mut counters = BTreeMap::new();
        let mut locks = LockTotals::default();
        let mut wal_bytes = 0u64;
        let mut wal_at_reopen = 0u64;
        let bound = event_bound(&churn);
        let mut inline = Inline::new(
            dc.coordinator()
                .subscribe_with(bound, OverflowPolicy::Block),
        );
        let (mut bursts, mut flushes) = (0u64, 0u64);
        let mut dc = Some(dc);
        for (i, op) in churn.ops.iter().enumerate() {
            if i == kill_at {
                // Kill: drop the coordinator without a checkpoint; the
                // files are all that survives.
                let old = dc.take().expect("coordinator is live before the kill");
                wal_bytes += old.wal_len_bytes();
                let before = old.accounting();
                locks.add(old.coordinator());
                let (received, lag) = (inline.received, inline.flush_lag_ms);
                drop(inline);
                drop(old);
                let checkpoint_bytes = file_len(&scratch.0.join(CHECKPOINT_FILE));
                let disk = file_len(&scratch.0.join(WAL_FILE)) + checkpoint_bytes;
                counters.insert("store.checkpoint.bytes", checkpoint_bytes as f64);
                counters.insert(
                    "disk_bytes_per_query",
                    disk as f64 / ledger.admitted.max(1) as f64,
                );
                let start = Instant::now();
                let reopened = tracer.time("durable.open", None, 0, || {
                    DurableCoordinator::open(&scratch.0, config.clone())
                });
                counters.insert("recover_s", start.elapsed().as_secs_f64());
                let reopened = match reopened {
                    Ok(d) => d,
                    Err(e) => {
                        ledger.error(format!("recovery failed: {e}"));
                        return failed_round(ledger, ack_ms, tracer);
                    }
                };
                let after = reopened.accounting();
                if before.len() != after.len() {
                    ledger.error(format!(
                        "{} queries acknowledged before the kill, {} after",
                        before.len(),
                        after.len()
                    ));
                }
                for ((id_b, out_b), (id_a, out_a)) in before.iter().zip(&after) {
                    if id_b != id_a || out_b != out_a {
                        ledger.error(format!("recovered {id_a:?} differs from {id_b:?}"));
                    }
                }
                wal_at_reopen = reopened.wal_len_bytes();
                inline = Inline::new(
                    reopened
                        .coordinator()
                        .subscribe_with(bound, OverflowPolicy::Block),
                );
                inline.received = received;
                inline.flush_lag_ms = lag;
                dc = Some(reopened);
            }
            let live = dc.as_ref().expect("coordinator is live");
            let mut flush_end = None;
            let (parent, request) = match op {
                Op::Burst(subs) => {
                    let parent = tracer.open("script.burst", bursts);
                    let requests = subs.iter().map(|(sub, _)| request(sub)).collect();
                    let start = ns_since(epoch);
                    let results = tracer.time("durable.submit_batch", parent, bursts, || {
                        live.submit_batch(requests)
                    });
                    ack_ms.push((ns_since(epoch) - start) as f64 / 1e6);
                    for ((_, kind), result) in subs.iter().zip(results) {
                        match result {
                            Ok(handle) => ledger.admit(handle.id, *kind, start),
                            Err(e) => ledger.refuse(e),
                        }
                    }
                    bursts += 1;
                    (parent, bursts - 1)
                }
                Op::Flush => {
                    let parent = tracer.open("script.flush", flushes);
                    reports.push(tracer.time("service.flush", parent, flushes, || live.flush()));
                    flush_end = Some(ns_since(epoch));
                    flushes += 1;
                    if flushes.is_multiple_of(CHECKPOINT_EVERY_FLUSHES as u64) && i < kill_at {
                        wal_bytes += live.wal_len_bytes();
                        if let Err(e) =
                            tracer.time("durable.checkpoint", parent, flushes, || live.checkpoint())
                        {
                            ledger.error(format!("checkpoint failed: {e}"));
                        }
                    }
                    (parent, flushes - 1)
                }
                Op::Load(relation, rows) => {
                    let parent = tracer.open("script.load", 0);
                    if let Err(e) = tracer.time("service.load", parent, 0, || {
                        live.load(relation, rows.clone())
                    }) {
                        ledger.error(format!("load refused: {e}"));
                    }
                    ledger.loaded = true;
                    (parent, 0)
                }
            };
            inline.drain(&mut ledger, &mut tracer, parent, request, epoch, flush_end);
            tracer.close(parent);
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        let live = dc.take().expect("coordinator is live after the script");
        wal_bytes += live.wal_len_bytes().saturating_sub(wal_at_reopen);
        ledger.finish();
        fold_reports(&mut counters, &reports);
        locks.add(live.coordinator());
        locks.record(&mut counters);
        inline.record(&mut counters);
        counters.insert("script.dropped_queries", churn.dropped as f64);
        counters.insert("store.wal.bytes", wal_bytes as f64);
        counters.insert(
            "store.wal.bytes_per_query",
            wal_bytes as f64 / ledger.admitted.max(1) as f64,
        );
        drop(inline);
        drop(live);
        drop(scratch);
        RoundOutcome {
            ledger,
            wall_s,
            ack_ms,
            counters,
            tracer,
        }
    })
}

fn failed_round(ledger: Ledger, ack_ms: Vec<f64>, tracer: Tracer) -> RoundOutcome {
    RoundOutcome {
        ledger,
        wall_s: 0.0,
        ack_ms,
        counters: BTreeMap::new(),
        tracer,
    }
}
