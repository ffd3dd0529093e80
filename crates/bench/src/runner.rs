//! Figure runners: generate the workload, drive the engine, time it.

use eq_core::engine::NoSolutionPolicy;
use eq_core::graph::MatchGraph;
use eq_core::{
    matching, safety, CombinedQuery, CoordinationEngine, Coordinator, EngineConfig, EngineMode,
    FailReason, QueryStatus, SubmitRequest,
};
use eq_db::Database;
use eq_ir::{EntangledQuery, VarGen};
use eq_workload::{
    build_database, build_out_of_core_database, chains, churn_script, clique_groups, giant_cluster,
    giant_component, grid_pairs, no_unify, service_script, three_way_triangles, two_way_pairs,
    unsafe_arrivals, unsafe_residents, ChurnConfig, ChurnOp, GiantBody, GiantComponentConfig,
    PairStyle, ServiceConfig, ServiceOp, SocialGraph, SocialGraphConfig,
};
use std::time::Instant;

/// One data point of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Figure id, e.g. `"fig6"`.
    pub figure: &'static str,
    /// Series name as plotted in the paper.
    pub series: String,
    /// X coordinate (query-set size, postcondition count, ...).
    pub x: u64,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Optional second metric (e.g. answered queries).
    pub extra: Option<f64>,
    /// Named engine counters recorded with the point (per-flush
    /// [`eq_core::BatchReport`] aggregates: components evaluated, clean
    /// components skipped, MGU calls, ...). Serialized as a JSON object
    /// so bench runs record match-state reuse, not just wall-clock.
    pub counters: Vec<(&'static str, f64)>,
}

impl Row {
    /// A row with no extra metric and no counters.
    pub fn new(figure: &'static str, series: impl Into<String>, x: u64, millis: f64) -> Self {
        Row {
            figure,
            series: series.into(),
            x,
            millis,
            extra: None,
            counters: Vec::new(),
        }
    }
}

/// The experiment graph at a given scale (default: the paper's 82,168
/// users over 102 airports).
pub fn standard_graph(users: usize) -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users,
        ..Default::default()
    })
}

fn incremental_engine(db: Database) -> CoordinationEngine {
    CoordinationEngine::new(
        db,
        EngineConfig {
            mode: EngineMode::Incremental,
            // Figure 6/8 measure matching throughput; the admission
            // safety check is the subject of Figure 9 only.
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        },
    )
}

fn drive_incremental(db: &Database, queries: &[EntangledQuery]) -> (f64, usize) {
    let mut engine = incremental_engine(clone_db(db));
    let mut handles = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for q in queries {
        if let Ok(h) = engine.submit(q.clone()) {
            handles.push(h);
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let answered = handles
        .iter()
        .filter(|h| {
            matches!(
                h.outcome.try_recv(),
                Ok(eq_core::engine::QueryOutcome::Answered(_))
            )
        })
        .count();
    (millis, answered)
}

/// Deep-copies the workload database so runs stay independent
/// (delegates to [`Database::snapshot`]).
pub fn clone_db(db: &Database) -> Database {
    db.snapshot()
}

/// Configuration for the Figure 6 run.
pub struct Fig6Config {
    /// Query-set sizes (paper: 5 … 100,000).
    pub sizes: Vec<usize>,
    /// Social graph scale.
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 6 — scalability of two-way (random + best-case) and three-way
/// coordination, incremental mode.
pub fn run_fig6(cfg: &Fig6Config) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for (series, queries) in [
            (
                "two-way random",
                two_way_pairs(&graph, n, PairStyle::Random, cfg.seed),
            ),
            (
                "two-way best-case",
                two_way_pairs(&graph, n, PairStyle::BestCase, cfg.seed + 1),
            ),
            ("three-way", three_way_triangles(&graph, n, cfg.seed + 2)),
        ] {
            let (millis, answered) = drive_incremental(&db, &queries);
            rows.push(Row {
                figure: "fig6",
                series: series.to_owned(),
                x: n as u64,
                millis,
                extra: Some(answered as f64),
                counters: Vec::new(),
            });
        }
    }
    rows
}

/// Split timing of one set-at-a-time batch: matching phase versus
/// database evaluation phase (Figure 7's two components).
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitTiming {
    /// Graph construction + safety + matching, milliseconds.
    pub match_ms: f64,
    /// Combined-query evaluation, milliseconds.
    pub db_ms: f64,
    /// Queries answered.
    pub answered: usize,
    /// Number of components matched.
    pub components: usize,
}

/// Runs the batch pipeline with match/db phases timed separately.
pub fn instrumented_batch(queries: &[EntangledQuery], db: &Database) -> SplitTiming {
    let gen = VarGen::new();
    let mut timing = SplitTiming::default();

    let t0 = Instant::now();
    let renamed: Vec<EntangledQuery> = queries
        .iter()
        .map(|q| q.rename_apart(&gen).with_id(q.id))
        .collect();
    let graph = MatchGraph::build(renamed);
    let mut alive = vec![true; graph.len()];
    safety::enforce(&graph, &mut alive);
    let components = graph.components_live(&alive);
    let mut matched = Vec::new();
    for c in &components {
        let m = matching::match_component(&graph, c);
        if !m.survivors.is_empty() {
            if let Some(global) = m.global {
                matched.push(CombinedQuery::build(&graph, &m.survivors, global));
            }
        }
    }
    timing.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    timing.components = components.len();

    let t1 = Instant::now();
    for cq in &matched {
        if let Ok(solutions) = cq.evaluate(db, 1) {
            if let Some(answers) = solutions.first() {
                timing.answered += answers.len();
            }
        }
    }
    timing.db_ms = t1.elapsed().as_secs_f64() * 1e3;
    timing
}

/// Figure 7 — 10,000 queries per point; postconditions per query 1…5;
/// reports the matching and DB components separately.
pub fn run_fig7(users: usize, n: usize, seed: u64) -> Vec<Row> {
    let graph = standard_graph(users);
    let db = build_database(&graph);
    let mut rows = Vec::new();
    for pc in 1..=5usize {
        let queries = clique_groups(&graph, n, pc, seed + pc as u64);
        let t = instrumented_batch(&queries, &db);
        rows.push(Row {
            figure: "fig7",
            series: "matching time".to_owned(),
            x: pc as u64,
            millis: t.match_ms,
            extra: Some(queries.len() as f64),
            counters: Vec::new(),
        });
        rows.push(Row {
            figure: "fig7",
            series: "database evaluation time".to_owned(),
            x: pc as u64,
            millis: t.db_ms,
            extra: Some(t.answered as f64),
            counters: Vec::new(),
        });
    }
    rows
}

/// Configuration for the Figure 8 stress run.
pub struct Fig8Config {
    /// Sizes for the near-linear series (no-unification, chains).
    pub sizes: Vec<usize>,
    /// Sizes for the giant-cluster series (quadratic in incremental
    /// mode — keep smaller).
    pub giant_sizes: Vec<usize>,
    /// Chain segment length ("usual partitions" bound).
    pub segment_len: usize,
    /// Social graph scale (giant-cluster bodies reference User rows).
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 8 — stress-testing query matching: workloads with little or no
/// coordination.
pub fn run_fig8(cfg: &Fig8Config) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();

    for &n in &cfg.sizes {
        // (a) No coordination, no unification.
        let queries = no_unify(n, 102, cfg.seed);
        let (millis, _) = drive_incremental(&db, &queries);
        rows.push(Row {
            figure: "fig8",
            series: "no coordination, no unification".to_owned(),
            x: n as u64,
            millis,
            extra: None,
            counters: Vec::new(),
        });

        // (b) Usual partitions: unification without coordination,
        // partition sizes bounded by the segment length.
        let queries = chains(n, cfg.segment_len, cfg.seed + 1);
        let (millis, _) = drive_incremental(&db, &queries);
        rows.push(Row {
            figure: "fig8",
            series: "usual partitions".to_owned(),
            x: n as u64,
            millis,
            extra: None,
            counters: Vec::new(),
        });
    }

    for &n in &cfg.giant_sizes {
        let queries = giant_cluster(&graph, n, cfg.seed + 2);

        // (c) Giant cluster, incremental: the whole partition is
        // re-matched on every arrival (partition limit lifted).
        let mut engine = CoordinationEngine::new(
            clone_db(&db),
            EngineConfig {
                mode: EngineMode::Incremental,
                admission_safety_check: false,
                incremental_partition_limit: usize::MAX,
                ..Default::default()
            },
        );
        let start = Instant::now();
        for q in &queries {
            let _ = engine.submit(q.clone());
        }
        rows.push(Row {
            figure: "fig8",
            series: "giant cluster (incremental)".to_owned(),
            x: n as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: None,
            counters: Vec::new(),
        });

        // (d) Giant cluster, set-at-a-time: one matching pass at flush.
        let mut engine = CoordinationEngine::new(
            clone_db(&db),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                admission_safety_check: false,
                ..Default::default()
            },
        );
        let start = Instant::now();
        for q in &queries {
            let _ = engine.submit(q.clone());
        }
        engine.flush();
        rows.push(Row {
            figure: "fig8",
            series: "giant cluster (set-at-a-time)".to_owned(),
            x: n as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: None,
            counters: Vec::new(),
        });
    }
    rows
}

/// Configuration for the Figure 9 safety-check run.
pub struct Fig9Config {
    /// Resident (non-coordinating) queries loaded first (paper: 20,000).
    pub residents: usize,
    /// Sizes of the unsafe arrival sets (paper: 5 … 100,000).
    pub sizes: Vec<usize>,
    /// Number of hub destinations the residents cluster on.
    pub hubs: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 9 — the admission safety check under load: every arrival
/// fails the check against the resident set; we time the checks.
pub fn run_fig9(cfg: &Fig9Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &m in &cfg.sizes {
        let mut engine = CoordinationEngine::new(
            Database::new(),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                admission_safety_check: true,
                ..Default::default()
            },
        );
        for q in unsafe_residents(cfg.residents, cfg.hubs, cfg.seed) {
            engine.submit(q).expect("residents are safe");
        }
        let arrivals = unsafe_arrivals(m, cfg.hubs, cfg.seed + 1);
        let start = Instant::now();
        let mut rejected = 0usize;
        for q in arrivals {
            if engine.submit(q).is_err() {
                rejected += 1;
            }
        }
        rows.push(Row {
            figure: "fig9",
            series: "safety check".to_owned(),
            x: m as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: Some(rejected as f64),
            counters: Vec::new(),
        });
    }
    rows
}

/// Aggregated engine counters over one churn drive (sums of the
/// per-flush [`eq_core::BatchReport`]s).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnCounters {
    /// Components evaluated across all flushes.
    pub components: f64,
    /// Clean components skipped across all flushes (resident reuse).
    pub skipped_clean: f64,
    /// MGU merge operations performed by matching.
    pub mgu_calls: f64,
    /// Flushes executed.
    pub flushes: f64,
    /// Queries answered.
    pub answered: f64,
}

impl ChurnCounters {
    /// The counters as named JSON-able pairs for [`Row::counters`].
    pub fn as_row_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("components", self.components),
            ("skipped_clean", self.skipped_clean),
            ("mgu_calls", self.mgu_calls),
            ("flushes", self.flushes),
            ("answered", self.answered),
        ]
    }
}

/// Drives a churn script through a resident-graph engine (set-at-a-time
/// mode, flushing at every `Flush` op) and returns wall-clock
/// milliseconds plus the aggregated per-flush counters.
pub fn drive_churn_resident(
    db: Database,
    ops: &[ChurnOp],
    flush_threads: usize,
) -> (f64, ChurnCounters) {
    let mut engine = CoordinationEngine::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads,
            ..Default::default()
        },
    );
    let mut ids = Vec::new();
    let mut handles = Vec::new();
    let mut counters = ChurnCounters::default();
    let start = Instant::now();
    for op in ops {
        match op {
            ChurnOp::Submit(q) => {
                let h = engine.submit(q.clone()).expect("valid churn query");
                ids.push(h.id);
                handles.push(h);
            }
            ChurnOp::Cancel(idx) => {
                engine.cancel(ids[*idx]);
            }
            ChurnOp::Flush => {
                let report = engine.flush();
                counters.components += report.components as f64;
                counters.skipped_clean += report.skipped_clean as f64;
                counters.mgu_calls += report.stats.mgu_calls as f64;
                counters.flushes += 1.0;
            }
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    counters.answered = handles
        .iter()
        .filter(|h| {
            matches!(
                h.outcome.try_recv(),
                Ok(eq_core::engine::QueryOutcome::Answered(_))
            )
        })
        .count() as f64;
    (millis, counters)
}

/// Rebuild-per-flush baseline: the pre-resident engine's flush
/// strategy, reconstructed over the `Coordinator` service. Every
/// `Flush` op re-admits the entire live pool through a fresh
/// [`eq_core::Session`] (rebuilding all match state from scratch,
/// exactly like the old `MatchGraph::build`-per-flush engine), flushes
/// once, and withdraws the survivors again (session close). Answered
/// and terminally rejected queries leave the pool, still-pending ones
/// stay for the next rebuild.
pub fn drive_churn_rebuild(db: &Database, ops: &[ChurnOp]) -> (f64, f64) {
    let coordinator = Coordinator::new(
        db.snapshot(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads: 1,
            ..Default::default()
        },
    );
    let mut pending: Vec<Option<EntangledQuery>> = Vec::new();
    let mut answered = 0usize;
    let start = Instant::now();
    for op in ops {
        match op {
            ChurnOp::Submit(q) => {
                pending.push(Some(q.clone()));
            }
            ChurnOp::Cancel(idx) => {
                pending[*idx] = None;
            }
            ChurnOp::Flush => {
                let live: Vec<usize> = (0..pending.len())
                    .filter(|&i| pending[i].is_some())
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let mut session = coordinator.session();
                let handles = session.submit_batch(
                    live.iter()
                        .map(|&i| SubmitRequest::new(pending[i].clone().expect("live")))
                        .collect(),
                );
                coordinator.flush();
                for (&i, handle) in live.iter().zip(&handles) {
                    let Ok(handle) = handle else {
                        pending[i] = None;
                        continue;
                    };
                    match coordinator.status(handle.id) {
                        Some(QueryStatus::Answered) => {
                            answered += 1;
                            pending[i] = None;
                        }
                        Some(QueryStatus::Failed(FailReason::Rejected(_))) => {
                            pending[i] = None;
                        }
                        // Still pending (or withdrawn below): stays in
                        // the pool and is re-admitted next flush.
                        _ => {}
                    }
                }
                session.close();
            }
        }
    }
    (start.elapsed().as_secs_f64() * 1e3, answered as f64)
}

/// Configuration for the resident-vs-rebuild churn sweep.
pub struct FigResidentConfig {
    /// Total queries per point.
    pub sizes: Vec<usize>,
    /// Flush cadence (submissions between flushes).
    pub flush_every: usize,
    /// Social graph scale.
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Resident-graph throughput sweep: the same churn script (interleaved
/// submit/flush/cancel) driven through the resident engine
/// (sequential + parallel flush) and through the rebuild-per-flush
/// baseline. The resident rows carry the aggregated per-flush counters
/// (components evaluated, clean skips, MGU calls) so runs record how
/// much match state was reused.
pub fn run_fig_resident(cfg: &FigResidentConfig) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        let ops = churn_script(
            &graph,
            &ChurnConfig {
                queries: n,
                flush_every: cfg.flush_every,
                solo_permille: 300,
                seed: cfg.seed,
            },
        );

        let (millis, counters) = drive_churn_resident(clone_db(&db), &ops, 1);
        rows.push(Row {
            extra: Some(counters.answered),
            counters: counters.as_row_counters(),
            ..Row::new("fig_resident", "resident (dirty flush)", n as u64, millis)
        });

        let (millis, counters) = drive_churn_resident(clone_db(&db), &ops, 0);
        rows.push(Row {
            extra: Some(counters.answered),
            counters: counters.as_row_counters(),
            ..Row::new(
                "fig_resident",
                "resident (parallel dirty flush)",
                n as u64,
                millis,
            )
        });

        let (millis, answered) = drive_churn_rebuild(&db, &ops);
        rows.push(Row {
            extra: Some(answered),
            ..Row::new("fig_resident", "rebuild per flush", n as u64, millis)
        });
    }
    rows
}

/// Configuration for the `fig_service` service-API sweep.
pub struct FigServiceConfig {
    /// Batch sizes to sweep (total queries per point).
    pub sizes: Vec<usize>,
    /// Social graph scale (the harness series references its edges).
    pub users: usize,
    /// Queries per burst in the long-running harness series.
    pub harness_burst: usize,
    /// Total queries of the staleness + `KeepPending` scale series
    /// (the ROADMAP target is 100,000; smoke runs scale it down).
    pub scale_queries: usize,
    /// Total queries of the **sharded** scale series, driven once per
    /// shard count in the same run (the ROADMAP target is 1,000,000;
    /// smoke runs scale it down).
    pub sharded_queries: usize,
    /// Client sessions the sharded series spreads its traffic across
    /// (thousands at full scale).
    pub scale_sessions: usize,
    /// `(relation, arity)` locality groups of the sharded series — keep
    /// it even and above the shard count.
    pub locality_groups: usize,
    /// Out of 1000 sharded-series submissions, how many are members of
    /// cross-group (cross-shard rendezvous) pairs.
    pub cross_permille: u32,
    /// Workload seed.
    pub seed: u64,
}

/// Counters from one service-harness drive.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounters {
    /// Queries answered.
    pub answered: f64,
    /// Queries expired (staleness bounds / deadlines).
    pub expired: f64,
    /// Events received by the subscriber (terminals + flush reports).
    pub events: f64,
    /// Flushes executed.
    pub flushes: f64,
    /// Nanoseconds the service shard locks were held across this
    /// drive's flushes (sum of the per-flush [`eq_core::BatchReport`]
    /// figures, summed over shards when the service is sharded).
    pub lock_hold_ns: f64,
    /// Service shard-lock acquisitions over the coordinator's lifetime
    /// (cumulative snapshot from the last flush report, summed over
    /// shards).
    pub lock_acquisitions: f64,
    /// Longest single shard-lock hold observed, in nanoseconds (max
    /// over shards).
    pub lock_max_hold_ns: f64,
    /// High-water mark of the out-of-lock dispatch queue — the most
    /// events ever staged awaiting a drain.
    pub dispatch_queue_peak: f64,
}

impl ServiceCounters {
    /// The counters as named JSON-able pairs for [`Row::counters`].
    pub fn as_row_counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("answered", self.answered),
            ("expired", self.expired),
            ("events", self.events),
            ("flushes", self.flushes),
            ("lock_hold_ns", self.lock_hold_ns),
            ("lock_acquisitions", self.lock_acquisitions),
            ("lock_max_hold_ns", self.lock_max_hold_ns),
            ("dispatch_queue_peak", self.dispatch_queue_peak),
        ]
    }

    /// Folds one flush report's lock figures into the running totals:
    /// per-flush hold time accumulates, the acquisition count and max
    /// hold are lifetime snapshots (the last report carries the total).
    fn record_flush(&mut self, report: &eq_core::BatchReport) {
        self.flushes += 1.0;
        self.lock_hold_ns += report.lock_hold_ns as f64;
        self.lock_acquisitions = report.lock_acquisitions as f64;
        self.lock_max_hold_ns = self.lock_max_hold_ns.max(report.lock_max_hold_ns as f64);
        self.dispatch_queue_peak = self
            .dispatch_queue_peak
            .max(report.dispatch_queue_peak as f64);
    }
}

/// Fixed counter names for per-shard lock figures ([`Row::counters`]
/// keys are `&'static str`); shards past the eighth are dropped from
/// the row, which the sweeps never reach.
fn shard_counter_names(shard: usize) -> Option<(&'static str, &'static str, &'static str)> {
    Some(match shard {
        0 => (
            "shard0_lock_hold_ns",
            "shard0_lock_max_hold_ns",
            "shard0_lock_acquisitions",
        ),
        1 => (
            "shard1_lock_hold_ns",
            "shard1_lock_max_hold_ns",
            "shard1_lock_acquisitions",
        ),
        2 => (
            "shard2_lock_hold_ns",
            "shard2_lock_max_hold_ns",
            "shard2_lock_acquisitions",
        ),
        3 => (
            "shard3_lock_hold_ns",
            "shard3_lock_max_hold_ns",
            "shard3_lock_acquisitions",
        ),
        4 => (
            "shard4_lock_hold_ns",
            "shard4_lock_max_hold_ns",
            "shard4_lock_acquisitions",
        ),
        5 => (
            "shard5_lock_hold_ns",
            "shard5_lock_max_hold_ns",
            "shard5_lock_acquisitions",
        ),
        6 => (
            "shard6_lock_hold_ns",
            "shard6_lock_max_hold_ns",
            "shard6_lock_acquisitions",
        ),
        7 => (
            "shard7_lock_hold_ns",
            "shard7_lock_max_hold_ns",
            "shard7_lock_acquisitions",
        ),
        _ => return None,
    })
}

fn service_coordinator(
    db: Database,
    flush_threads: usize,
    safety: bool,
    service_shards: usize,
) -> Coordinator {
    Coordinator::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: safety,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads,
            service_shards,
            ..Default::default()
        },
    )
}

/// Drives a [`service_script`] through a `Coordinator` with a live
/// event subscription: bursts are submitted via
/// [`eq_core::Session::submit_batch`] when `batched` (individual
/// submits otherwise), cancels go through the session, flushes through
/// the coordinator, and the subscriber drains the stream as it goes.
/// Returns wall-clock milliseconds and the drive's counters.
///
/// The drive is single-threaded (drains only between ops), so the
/// bounded `Block` subscription is sized to the script's worst case —
/// one terminal per query plus one report per flush — instead of the
/// default capacity, which a large flush would overfill with nobody
/// draining (the drive thread itself becomes the out-of-lock
/// dispatcher and would wedge on its own full queue — no shard lock
/// held, but still a self-deadlock). The concurrent-drainer pattern
/// for default-capacity subscriptions is [`run_fig_giant_sweep`].
pub fn drive_service_harness(
    db: Database,
    ops: &[ServiceOp],
    batched: bool,
    flush_threads: usize,
) -> (f64, ServiceCounters) {
    let coordinator = service_coordinator(db, flush_threads, false, 1);
    let event_bound: usize = ops
        .iter()
        .map(|op| match op {
            ServiceOp::SubmitBatch(queries) => queries.len(),
            ServiceOp::SubmitBatchWith(subs) => subs.len(),
            ServiceOp::Cancel(_) | ServiceOp::Flush => 1,
            ServiceOp::Load { .. } => 0,
        })
        .sum::<usize>()
        + 8;
    let events = coordinator.subscribe_with(event_bound, eq_core::OverflowPolicy::Block);
    let mut session = coordinator.session();
    let mut ids = Vec::new();
    let mut counters = ServiceCounters::default();
    let start = Instant::now();
    for op in ops {
        match op {
            ServiceOp::SubmitBatch(queries) => {
                if batched {
                    let results = session.submit_batch(
                        queries
                            .iter()
                            .map(|q| SubmitRequest::new(q.clone()))
                            .collect(),
                    );
                    for r in results {
                        ids.push(r.expect("valid service query").id);
                    }
                } else {
                    for q in queries {
                        let handle = session
                            .submit(SubmitRequest::new(q.clone()))
                            .expect("valid service query");
                        ids.push(handle.id);
                    }
                }
            }
            ServiceOp::SubmitBatchWith(subs) => {
                let requests: Vec<SubmitRequest> = subs.iter().map(scale_request).collect();
                if batched {
                    for r in session.submit_batch(requests) {
                        ids.push(r.expect("valid service query").id);
                    }
                } else {
                    for request in requests {
                        ids.push(session.submit(request).expect("valid service query").id);
                    }
                }
            }
            ServiceOp::Cancel(idx) => {
                session.cancel(ids[*idx]).expect("pending solo query");
            }
            ServiceOp::Load { relation, rows } => {
                coordinator
                    .load(relation, rows.clone())
                    .expect("known relation");
            }
            ServiceOp::Flush => {
                let report = coordinator.flush();
                counters.record_flush(&report);
            }
        }
        for event in events.drain() {
            counters.events += 1.0;
            match *event {
                eq_core::Event::Answered { .. } => counters.answered += 1.0,
                eq_core::Event::Expired { .. } => counters.expired += 1.0,
                _ => {}
            }
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    (millis, counters)
}

/// Turns one scale-script submission into a `SubmitRequest` with its
/// per-query options.
fn scale_request(sub: &eq_workload::ScriptSubmission) -> SubmitRequest {
    let mut request = SubmitRequest::new(sub.query.clone());
    if let Some(bound) = sub.staleness {
        request = request.staleness(bound);
    }
    if sub.keep_pending {
        request = request.on_no_solution(NoSolutionPolicy::KeepPending);
    }
    request
}

/// Drives a [`eq_workload::scale_service_script`] — the ROADMAP 100k
/// scale target:
/// zero-staleness churn, `KeepPending` pairs blocked on a row that only
/// arrives via the script's final `Load`, batched admission throughout
/// — and **asserts** the script's exact outcome accounting: every
/// expiring query ends `Expired`, every deferred query ends `Answered`
/// (all on the final flush, after riding every earlier flush as a
/// clean resident skip).
///
/// Traffic is spread across the script's client sessions (each
/// submission carries its session index) and the coordinator runs with
/// `service_shards` engine shards, so a multi-group script mostly takes
/// the shard-local admission fast path. Besides the wall clock and
/// counters, returns the per-shard lock statistics for the run.
pub fn drive_scale_harness(
    db: Database,
    script: &eq_workload::ScaleScript,
    flush_threads: usize,
    service_shards: usize,
) -> (f64, ServiceCounters, Vec<eq_core::LockStats>) {
    let coordinator = service_coordinator(db, flush_threads, false, service_shards);
    let event_bound: usize = script
        .ops
        .iter()
        .map(|op| match op {
            ServiceOp::SubmitBatchWith(subs) => subs.len(),
            ServiceOp::SubmitBatch(queries) => queries.len(),
            ServiceOp::Cancel(_) | ServiceOp::Flush => 1,
            ServiceOp::Load { .. } => 0,
        })
        .sum::<usize>()
        + 8;
    let events = coordinator.subscribe_with(event_bound, eq_core::OverflowPolicy::Block);
    let mut sessions: Vec<eq_core::Session> = (0..script.sessions.max(1))
        .map(|_| coordinator.session())
        .collect();
    // Reused per burst: one bucket of submissions per client session.
    let mut buckets: Vec<Vec<&eq_workload::ScriptSubmission>> = vec![Vec::new(); sessions.len()];
    let mut counters = ServiceCounters::default();
    // (submission id, was a deferred KeepPending member)
    let mut submitted: Vec<(eq_ir::QueryId, bool)> = Vec::new();
    let start = Instant::now();
    for op in &script.ops {
        match op {
            ServiceOp::SubmitBatchWith(subs) => {
                for sub in subs {
                    buckets[sub.session].push(sub);
                }
                for (session_idx, bucket) in buckets.iter_mut().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let requests: Vec<SubmitRequest> =
                        bucket.iter().map(|sub| scale_request(sub)).collect();
                    let results = sessions[session_idx].submit_batch(requests);
                    for (sub, r) in bucket.drain(..).zip(results) {
                        let handle = r.expect("valid scale query");
                        submitted.push((handle.id, sub.keep_pending));
                    }
                }
            }
            ServiceOp::Load { relation, rows } => {
                coordinator
                    .load(relation, rows.clone())
                    .expect("known relation");
            }
            ServiceOp::Flush => {
                let report = coordinator.flush();
                counters.record_flush(&report);
            }
            ServiceOp::SubmitBatch(_) | ServiceOp::Cancel(_) => {
                unreachable!("scale scripts only use SubmitBatchWith/Load/Flush")
            }
        }
        for event in events.drain() {
            counters.events += 1.0;
            match *event {
                eq_core::Event::Answered { .. } => counters.answered += 1.0,
                eq_core::Event::Expired { .. } => counters.expired += 1.0,
                _ => {}
            }
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        counters.expired as usize, script.expiring,
        "every zero-staleness query must expire"
    );
    let deferred_answered = submitted
        .iter()
        .filter(|&&(id, deferred)| {
            deferred && matches!(coordinator.status(id), Some(QueryStatus::Answered))
        })
        .count();
    assert_eq!(
        deferred_answered, script.deferred,
        "every deferred KeepPending pair must coordinate after the Load"
    );
    let shard_stats = coordinator.shard_lock_stats();
    (millis, counters, shard_stats)
}

/// The `fig_service` sweep: batched parallel admission versus
/// sequential submission over the service API, plus event-stream
/// throughput.
///
/// Per batch size `n` (the collision-heavy [`grid_pairs`] workload,
/// admission safety check **on** — the Figure 9 service posture):
///
/// * `sequential submit` — one [`eq_core::Session::submit`] per query;
///   every admission scans the hot posting lists twice (safety check,
///   then edge discovery);
/// * `submit_batch (1 thread)` — batched admission with a sequential
///   probe phase: safety decisions ride the edge-discovery probes, so
///   the index is scanned once per query even without parallelism;
/// * `submit_batch (parallel)` — the same with one probe worker per
///   hardware thread: the headline series, expected to beat sequential
///   submission at ≥10k-query batches (on a single-core host it falls
///   back to the 1-thread path, which already wins on probe reuse);
/// * `event stream (batch+flush+drain)` — batched admission, one
///   flush, and a subscriber draining every event, with the event
///   count in `extra`.
///
/// A final pair of rows drives the long-running [`service_script`]
/// harness (bursts, cancels, periodic flushes) end to end, sequential
/// versus batched.
pub fn run_fig_service(cfg: &FigServiceConfig) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();

    for &n in &cfg.sizes {
        let queries = grid_pairs(n, cfg.seed);

        // (a) Sequential submission.
        let coordinator = service_coordinator(clone_db(&db), 1, true, 1);
        let mut session = coordinator.session();
        let start = Instant::now();
        let mut admitted = 0usize;
        for q in &queries {
            if session.submit(SubmitRequest::new(q.clone())).is_ok() {
                admitted += 1;
            }
        }
        rows.push(Row {
            extra: Some(admitted as f64),
            ..Row::new(
                "fig_service",
                "sequential submit",
                n as u64,
                start.elapsed().as_secs_f64() * 1e3,
            )
        });

        // (b) Batched admission: probe-once sequential, then parallel.
        for (series, threads) in [
            ("submit_batch (1 thread)", 1),
            ("submit_batch (parallel)", 0),
        ] {
            let coordinator = service_coordinator(clone_db(&db), threads, true, 1);
            let mut session = coordinator.session();
            let requests: Vec<SubmitRequest> = queries
                .iter()
                .map(|q| SubmitRequest::new(q.clone()))
                .collect();
            let start = Instant::now();
            let results = session.submit_batch(requests);
            let millis = start.elapsed().as_secs_f64() * 1e3;
            let admitted = results.iter().filter(|r| r.is_ok()).count();
            rows.push(Row {
                extra: Some(admitted as f64),
                ..Row::new("fig_service", series, n as u64, millis)
            });
        }

        // (c) Event-stream throughput: batch + flush + drain. The
        // drain happens after the flush on this same thread, so the
        // bounded Block queue must hold the whole round (n terminals +
        // the report) — the default capacity would deadlock the
        // publisher at n > 1024 with no concurrent drainer.
        let coordinator = service_coordinator(clone_db(&db), 0, true, 1);
        let events = coordinator.subscribe_with(n + 8, eq_core::OverflowPolicy::Block);
        let mut session = coordinator.session();
        let requests: Vec<SubmitRequest> = queries
            .iter()
            .map(|q| SubmitRequest::new(q.clone()))
            .collect();
        let start = Instant::now();
        session.submit_batch(requests);
        let report = coordinator.flush();
        let received = events.drain().len();
        let millis = start.elapsed().as_secs_f64() * 1e3;
        rows.push(Row {
            extra: Some(received as f64),
            counters: vec![
                ("answered", report.answered as f64),
                ("events", received as f64),
                ("lock_hold_ns", report.lock_hold_ns as f64),
                ("lock_acquisitions", report.lock_acquisitions as f64),
                ("lock_max_hold_ns", report.lock_max_hold_ns as f64),
            ],
            ..Row::new(
                "fig_service",
                "event stream (batch+flush+drain)",
                n as u64,
                millis,
            )
        });
    }

    // Long-running harness: the service_script churn, sequential vs
    // batched, at the largest sweep size.
    if let Some(&n) = cfg.sizes.last() {
        let script = service_script(
            &graph,
            &ServiceConfig {
                queries: n,
                burst: cfg.harness_burst,
                flush_every_bursts: 4,
                solo_permille: 300,
                seed: cfg.seed + 1,
            },
        );
        for (series, batched, threads) in [
            ("harness (sequential)", false, 1),
            ("harness (batched, parallel)", true, 0),
        ] {
            let (millis, counters) =
                drive_service_harness(clone_db(&db), &script, batched, threads);
            rows.push(Row {
                extra: Some(counters.answered),
                counters: counters.as_row_counters(),
                ..Row::new("fig_service", series, n as u64, millis)
            });
        }
    }

    // The ROADMAP scale target: staleness + KeepPending churn through
    // one long-running service (100k queries at full scale). The drive
    // asserts its outcome accounting — every zero-staleness query
    // expires, every deferred pair coordinates on the post-Load flush.
    let scale = eq_workload::scale_service_script(
        &graph,
        &eq_workload::ScaleServiceConfig {
            queries: cfg.scale_queries,
            burst: cfg.harness_burst.max(1),
            seed: cfg.seed + 2,
            ..Default::default()
        },
    );
    let (millis, counters, _) = drive_scale_harness(clone_db(&db), &scale, 0, 1);
    rows.push(Row {
        extra: Some(counters.answered),
        counters: counters.as_row_counters(),
        ..Row::new(
            "fig_service",
            "staleness + keep-pending churn",
            cfg.scale_queries as u64,
            millis,
        )
    });

    // The sharded-service series: the same staleness + KeepPending
    // churn spread across thousands of client sessions and
    // `locality_groups` answer-relation groups (a configurable permille
    // of pairs bridge neighbor groups — cross-shard rendezvous). The
    // script is driven twice in the same run, single-shard versus
    // 4-shard, so the per-shard lock-hold figures are directly
    // comparable: the claim is that the hottest shard's cumulative and
    // worst-case lock holds drop well below the single-mutex baseline,
    // not a wall-clock win (single-core hosts serialize the shards
    // anyway).
    let sharded_script = eq_workload::scale_service_script(
        &graph,
        &eq_workload::ScaleServiceConfig {
            queries: cfg.sharded_queries,
            burst: cfg.harness_burst.max(1),
            sessions: cfg.scale_sessions.max(1),
            locality_groups: cfg.locality_groups.max(1),
            cross_permille: cfg.cross_permille,
            seed: cfg.seed + 3,
            ..Default::default()
        },
    );
    for (series, shards) in [
        ("sharded churn (1 shard)", 1usize),
        ("sharded churn (4 shards)", 4usize),
    ] {
        let (millis, counters, shard_stats) =
            drive_scale_harness(clone_db(&db), &sharded_script, 0, shards);
        let mut row_counters = counters.as_row_counters();
        row_counters.push(("service_shards", shards as f64));
        for (shard, stats) in shard_stats.iter().enumerate() {
            if let Some((hold, max_hold, acquisitions)) = shard_counter_names(shard) {
                row_counters.push((hold, stats.hold_ns as f64));
                row_counters.push((max_hold, stats.max_hold_ns as f64));
                row_counters.push((acquisitions, stats.acquisitions as f64));
            }
        }
        rows.push(Row {
            extra: Some(counters.answered),
            counters: row_counters,
            ..Row::new("fig_service", series, cfg.sharded_queries as u64, millis)
        });
    }
    rows
}

/// Configuration for the `fig_giant` intra-component parallelism sweep.
pub struct FigGiantConfig {
    /// Ring sizes (queries per single giant component).
    pub sizes: Vec<usize>,
    /// Forward ring edges per user (`k`): per-unit triangle cost knob.
    pub friends_per_user: usize,
    /// Worker counts for the intra-partitioned series (paper-style
    /// 1/2/4/8 scaling).
    pub threads: Vec<usize>,
    /// Skip the sequential (one combined join) series above this ring
    /// size — its atom-selection scan is quadratic in the body size, so
    /// big rings take minutes per sample.
    pub seq_size_cap: usize,
}

/// Submits a pre-built giant-ring workload through a [`Coordinator`]
/// and times the flush that evaluates its single component. Returns
/// wall-clock milliseconds of the flush and the flush report (answered
/// counts, intra counters, service-lock hold figures).
///
/// Runs inline on the caller's thread. It used to need a dedicated
/// 512 MiB-stack thread — the sequential series joined the whole
/// 2n-atom combined body through a *recursive* backtracking search
/// whose depth was the atom count — but `eq_db`'s evaluator is now an
/// iterative explicit-frame search with heap-bounded depth, so even the
/// 100k-atom sweep bodies evaluate on a default stack.
///
/// `intra_split_crossover` is the shared-variable biconnected-region
/// split gate inside the partitioned path: `usize::MAX` disables
/// splitting (the whole-unit baseline for the `SharedChain` series),
/// `0` forces every decomposing unit to split, and
/// `EngineConfig::default().intra_split_crossover` is the production
/// heuristic.
pub fn drive_giant(
    db: Database,
    queries: &[EntangledQuery],
    intra_component_threshold: usize,
    flush_threads: usize,
    intra_split_crossover: usize,
) -> (f64, eq_core::BatchReport) {
    let coordinator = Coordinator::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads,
            intra_component_threshold,
            intra_split_crossover,
            ..Default::default()
        },
    );
    let mut session = coordinator.session();
    for r in session.submit_batch(queries.iter().cloned().map(SubmitRequest::new).collect()) {
        r.expect("valid giant-ring query");
    }
    let start = Instant::now();
    let report = coordinator.flush();
    (start.elapsed().as_secs_f64() * 1e3, report)
}

fn giant_counters(report: &eq_core::BatchReport) -> Vec<(&'static str, f64)> {
    vec![
        ("answered", report.answered as f64),
        ("components", report.components as f64),
        ("intra_components", report.intra_components as f64),
        ("intra_units", report.intra_units as f64),
        ("intra_split_units", report.intra_split_units as f64),
        ("intra_regions", report.intra_regions as f64),
        ("intra_region_streamed", report.intra_region_streamed as f64),
        ("intra_witness_peak", report.intra_witness_peak as f64),
        ("lock_hold_ns", report.lock_hold_ns as f64),
        ("lock_acquisitions", report.lock_acquisitions as f64),
        ("lock_max_hold_ns", report.lock_max_hold_ns as f64),
        ("unify_merges", report.unify_merges as f64),
        ("unify_rollbacks", report.unify_rollbacks as f64),
        ("unify_clones", report.unify_clones as f64),
        ("unify_undo_high_water", report.unify_undo_high_water as f64),
        (
            "index_postings_scanned",
            report.index_postings_scanned as f64,
        ),
    ]
}

/// The `fig_giant` sweep: one giant entangled ring per point, evaluated
///
/// * sequentially (one combined join, the pre-intra engine's only
///   option) on the backtrack-free [`GiantBody::Chain`] flavor;
/// * intra-partitioned at each worker count, on the same chain input
///   (identical answers, property-tested) — the headline comparison;
/// * intra-partitioned on the [`GiantBody::Triangle`] flavor, whose
///   Θ(k²)-per-unit cost shows thread scaling (the sequential join
///   cannot run this flavor at all: interleaved backtracking thrash);
/// * on the [`GiantBody::SharedChain`] flavor — one variable-connected
///   work unit — whole (variable-disjoint partitioning finds nothing to
///   split; quadratic atom-selection scan, so capped like the
///   sequential series) versus **biconnected-region split** at each
///   worker count, the series the shared-variable splitter exists for;
///   a `default gate` series leaves the crossover heuristic in place
///   (small rings evaluate whole — the regime where per-region plumbing
///   costs more than the quadratic scan saves);
/// * on the [`GiantBody::SharedWide`] flavor, whose Θ(k²)-per-region
///   local solutions stress the streaming articulation projection (a
///   materializing evaluator's memory scales with `n·k²`; the witness
///   maps stay `O(k)` — `intra_witness_peak` in the counters).
pub fn run_fig_giant(cfg: &FigGiantConfig) -> Vec<Row> {
    let default_crossover = EngineConfig::default().intra_split_crossover;
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        let mk = |body: GiantBody| {
            giant_component(&GiantComponentConfig {
                queries: n,
                friends_per_user: cfg.friends_per_user,
                body,
            })
        };
        let (chain_db, chain_queries) = mk(GiantBody::Chain);

        if n <= cfg.seq_size_cap {
            let (millis, report) = drive_giant(
                clone_db(&chain_db),
                &chain_queries,
                usize::MAX,
                1,
                usize::MAX,
            );
            assert_eq!(report.answered, n, "sequential ring must coordinate");
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    "sequential (one combined join)",
                    n as u64,
                    millis,
                )
            });
        }

        for &t in &cfg.threads {
            let (millis, report) =
                drive_giant(clone_db(&chain_db), &chain_queries, 1, t, usize::MAX);
            assert_eq!(report.answered, n, "partitioned ring must coordinate");
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    format!("intra chain ({t} threads)"),
                    n as u64,
                    millis,
                )
            });
        }

        let (tri_db, tri_queries) = mk(GiantBody::Triangle);
        for &t in &cfg.threads {
            let (millis, report) = drive_giant(clone_db(&tri_db), &tri_queries, 1, t, usize::MAX);
            assert_eq!(report.answered, n, "triangle ring must coordinate");
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    format!("intra triangle ({t} threads)"),
                    n as u64,
                    millis,
                )
            });
        }

        let (shared_db, shared_queries) = mk(GiantBody::SharedChain);
        if n <= cfg.seq_size_cap {
            // Splitting disabled: the shared-variable body is one work
            // unit and evaluates whole (same asymptotics as the
            // sequential combined join — hence the same cap).
            let (millis, report) =
                drive_giant(clone_db(&shared_db), &shared_queries, 1, 1, usize::MAX);
            assert_eq!(report.answered, n, "shared ring must coordinate");
            assert_eq!(report.intra_regions, 0, "split disabled");
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    "shared chain (one work unit)",
                    n as u64,
                    millis,
                )
            });

            // Split *requested* but the crossover gate left in place:
            // small rings (atoms² < crossover·regions) evaluate whole —
            // this series is the regression guard for the regime where
            // per-region plumbing used to cost more than the quadratic
            // atom-selection scan it saves.
            let (millis, report) = drive_giant(
                clone_db(&shared_db),
                &shared_queries,
                1,
                1,
                default_crossover,
            );
            assert_eq!(report.answered, n, "gated shared ring must coordinate");
            let gate_splits = (2 * n) * (2 * n) >= default_crossover.saturating_mul(n);
            assert_eq!(
                report.intra_regions,
                if gate_splits { n } else { 0 },
                "crossover gate decision must match the atoms²/regions heuristic"
            );
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    "shared chain, split requested (default gate)",
                    n as u64,
                    millis,
                )
            });
        }
        for &t in &cfg.threads {
            // Crossover 0 forces the split at every size — the series
            // that isolates region-evaluation cost from the gate.
            let (millis, report) = drive_giant(clone_db(&shared_db), &shared_queries, 1, t, 0);
            assert_eq!(report.answered, n, "split shared ring must coordinate");
            assert_eq!(report.intra_regions, n, "one region per chain edge");
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    format!("shared chain, region split ({t} threads)"),
                    n as u64,
                    millis,
                )
            });
        }

        // SharedWide: Θ(k²) local solutions per region against an
        // articulation domain of width k — the streaming projection's
        // stress flavor. The witness peak in the counters must stay ≤ k
        // no matter how large the ring grows.
        let (wide_db, wide_queries) = mk(GiantBody::SharedWide);
        for &t in &cfg.threads {
            let (millis, report) = drive_giant(clone_db(&wide_db), &wide_queries, 1, t, 0);
            assert_eq!(report.answered, n, "wide shared ring must coordinate");
            assert_eq!(
                report.intra_regions,
                2 * n,
                "one chain region plus one pendant region per query"
            );
            assert!(
                report.intra_witness_peak <= cfg.friends_per_user as u64,
                "witness peak {} exceeds articulation domain {}",
                report.intra_witness_peak,
                cfg.friends_per_user
            );
            rows.push(Row {
                extra: Some(report.answered as f64),
                counters: giant_counters(&report),
                ..Row::new(
                    "fig_giant",
                    format!("shared wide, region split ({t} threads)"),
                    n as u64,
                    millis,
                )
            });
        }
    }
    rows
}

/// Configuration for the `fig_giant --sweep` mode: a Figure-6/8-style
/// scale run (default 100k queries in one component) through the full
/// service stack with a **bounded** event subscription.
pub struct FigGiantSweepConfig {
    /// Ring size (paper sweeps top out at 100,000 queries).
    pub queries: usize,
    /// Forward ring edges per user.
    pub friends_per_user: usize,
    /// Flush worker count (0 = one per hardware thread).
    pub flush_threads: usize,
    /// Bounded subscriber capacity ([`eq_core::OverflowPolicy::Block`]).
    pub event_capacity: usize,
    /// Ring-body flavor: [`GiantBody::Chain`] (the classic sweep),
    /// [`GiantBody::Triangle`] (Θ(k²) work per unit — `--triangle`),
    /// [`GiantBody::SharedChain`] (one shared-variable unit, split by
    /// biconnected regions — `--shared`), or [`GiantBody::SharedWide`]
    /// (Θ(k²) local solutions per region, streamed — `--wide`).
    pub body: GiantBody,
}

/// Drives the sweep: batched admission of the whole ring, one flush
/// evaluating the single giant component through the partitioned path,
/// and a concurrent subscriber draining a bounded `Block` queue.
/// Asserts the backpressure guarantee the bounded channels exist for:
/// **every** terminal event arrives (none dropped, none lost) even
/// though the queue is a fraction of the event volume.
pub fn run_fig_giant_sweep(cfg: &FigGiantSweepConfig) -> Vec<Row> {
    let n = cfg.queries;
    let (db, queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: cfg.friends_per_user,
        body: cfg.body,
    });
    let coordinator = Coordinator::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads: cfg.flush_threads,
            ..Default::default()
        },
    );
    let events = coordinator.subscribe_with(cfg.event_capacity, eq_core::OverflowPolicy::Block);
    let drainer = std::thread::spawn(move || {
        let mut terminals = 0u64;
        let mut total = 0u64;
        while let Some(e) = events.next_timeout(std::time::Duration::from_secs(600)) {
            total += 1;
            if e.is_terminal() {
                terminals += 1;
            }
            if matches!(*e, eq_core::Event::Flushed(_)) {
                break;
            }
        }
        (terminals, total, events.stats())
    });

    let mut session = coordinator.session();
    let start = Instant::now();
    let results = session.submit_batch(queries.into_iter().map(SubmitRequest::new).collect());
    let admit_ms = start.elapsed().as_secs_f64() * 1e3;
    let admitted = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(admitted, n, "whole ring admits");

    let t_flush = Instant::now();
    let report = coordinator.flush();
    let flush_ms = t_flush.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.answered, n, "whole ring coordinates");

    let (terminals, total_events, stats) = drainer.join().expect("drainer panicked");
    assert_eq!(
        terminals, n as u64,
        "bounded Block subscriber must receive every terminal event"
    );
    assert_eq!(stats.dropped, 0, "Block policy never drops");
    assert!(!stats.disconnected);

    let flavor = match cfg.body {
        GiantBody::Chain => "chain",
        GiantBody::Triangle => "triangle",
        GiantBody::SharedChain => "shared chain",
        GiantBody::SharedWide => "shared wide",
    };
    vec![
        Row {
            extra: Some(admitted as f64),
            ..Row::new(
                "fig_giant",
                format!("sweep ({flavor}): batched admission"),
                n as u64,
                admit_ms,
            )
        },
        Row {
            extra: Some(report.answered as f64),
            counters: giant_counters(&report),
            ..Row::new(
                "fig_giant",
                format!("sweep ({flavor}): giant-component flush"),
                n as u64,
                flush_ms,
            )
        },
        Row {
            extra: Some(terminals as f64),
            counters: vec![
                ("events", total_events as f64),
                ("dropped", stats.dropped as f64),
                ("capacity", cfg.event_capacity as f64),
            ],
            ..Row::new(
                "fig_giant",
                format!("sweep ({flavor}): bounded event stream"),
                n as u64,
                admit_ms + flush_ms,
            )
        },
    ]
}

/// Ablation baseline for the atom index (§4.1.4): edge discovery by
/// exhaustive pairwise unification. Returns the number of edges found
/// (must equal the indexed graph's edge count).
/// Configuration for the `fig_store` out-of-core + durability series.
pub struct FigStoreConfig {
    /// Social graph scale (drives the `Friends` relation size).
    pub users: usize,
    /// Two-way entangled pairs per evaluation round.
    pub pairs: usize,
    /// Page size of the spilled `Friends` table.
    pub page_bytes: usize,
    /// Hot-relation-to-cache-budget ratio (10 = the ISSUE's "hot
    /// relation at least 10× the budget" regime).
    pub spill_ratio: usize,
    /// Queries acknowledged before the simulated kill in the
    /// kill-and-recover series.
    pub durable_queries: usize,
    /// Workload seed.
    pub seed: u64,
}

/// The `fig_store` series: the paper's two-way workload evaluated with
/// the hot `Friends` relation (a) memory-resident and (b) spilled
/// through `eq_store`'s paged backend under a cache budget
/// `1/spill_ratio` of the relation — the paged rows carry the
/// [`eq_core::BatchReport::io`] counters (`page_reads`, `cache_hits`,
/// `evictions`, `resident_bytes_peak`) plus the budget, so the JSON
/// output proves the run was genuinely out-of-core. A final
/// kill-and-recover row drives a [`eq_core::DurableCoordinator`]
/// through acknowledge → kill (drop, no checkpoint) → reopen and
/// **asserts** exactly-once outcome accounting across the restart; its
/// `millis` is the recovery (reopen) time.
pub fn run_fig_store(cfg: &FigStoreConfig) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let queries = two_way_pairs(&graph, cfg.pairs, PairStyle::Random, cfg.seed);
    let mut rows = Vec::new();

    // (a) In-memory baseline: same workload, io counters all zero.
    {
        let coordinator = service_coordinator(build_database(&graph), 1, false, 1);
        let mut session = coordinator.session();
        let requests: Vec<SubmitRequest> = queries
            .iter()
            .map(|q| SubmitRequest::new(q.clone()))
            .collect();
        session.submit_batch(requests);
        let start = Instant::now();
        let report = coordinator.flush();
        let millis = start.elapsed().as_secs_f64() * 1e3;
        rows.push(Row {
            extra: Some(report.answered as f64),
            counters: vec![
                ("answered", report.answered as f64),
                ("page_reads", report.io.page_reads as f64),
                ("resident_bytes_peak", report.io.resident_bytes_peak as f64),
            ],
            ..Row::new("fig_store", "in-memory baseline", cfg.pairs as u64, millis)
        });
    }

    // (b) Out-of-core: `Friends` spilled, budget 1/spill_ratio of it.
    {
        let setup = build_out_of_core_database(&graph, cfg.page_bytes, cfg.spill_ratio);
        assert!(
            setup.hot_data_bytes >= cfg.spill_ratio * setup.budget_bytes,
            "hot relation must dwarf the cache budget"
        );
        let coordinator = service_coordinator(setup.db, 1, false, 1);
        let mut session = coordinator.session();
        let requests: Vec<SubmitRequest> = queries
            .iter()
            .map(|q| SubmitRequest::new(q.clone()))
            .collect();
        session.submit_batch(requests);
        let start = Instant::now();
        let report = coordinator.flush();
        let millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            report.io.resident_bytes_peak as usize <= setup.budget_bytes,
            "page cache must respect its byte budget"
        );
        rows.push(Row {
            extra: Some(report.answered as f64),
            counters: vec![
                ("answered", report.answered as f64),
                ("page_reads", report.io.page_reads as f64),
                ("page_writes", report.io.page_writes as f64),
                ("cache_hits", report.io.cache_hits as f64),
                ("evictions", report.io.evictions as f64),
                ("resident_bytes_peak", report.io.resident_bytes_peak as f64),
                ("budget_bytes", setup.budget_bytes as f64),
                ("hot_data_bytes", setup.hot_data_bytes as f64),
            ],
            ..Row::new("fig_store", "paged (out-of-core)", cfg.pairs as u64, millis)
        });
        eq_store::purge_dir(&setup.dir);
    }

    // (c) Kill-and-recover: acknowledge a mixed history, kill without
    // checkpointing, reopen, and require the accounting to line up
    // exactly — then once more from a checkpoint + log tail.
    rows.push(drive_kill_recover(cfg.durable_queries, cfg.seed, false));
    rows.push(drive_kill_recover(
        cfg.durable_queries,
        cfg.seed ^ 0x9e37,
        true,
    ));
    rows
}

/// One kill-and-recover drive: submit `n` grid-pair queries through a
/// [`eq_core::DurableCoordinator`] — the first half one `submit` at a
/// time, then a flush (so the history holds both terminal outcomes and
/// still-pending queries), then the second half as one `submit_batch` —
/// optionally checkpoint mid-stream, snapshot the acknowledged
/// accounting, drop the coordinator without ceremony (the simulated
/// kill — page files and the WAL's un-checkpointed tail are all that
/// survives), reopen, and assert the recovered accounting is
/// **identical**: every acknowledged query exactly once, answered ones
/// with their exact answers. Returns the row (recovery wall-clock in
/// `millis`), with the WAL's write and record counts next to the
/// acknowledgment points that should have produced them: each submit,
/// the batch, and the flush if it staged any outcome.
pub fn drive_kill_recover(n: usize, seed: u64, checkpoint: bool) -> Row {
    let dir = eq_store::scratch_dir("fig-store-recover");
    let config = EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..Default::default()
    };
    let queries = grid_pairs(n, seed);
    let (before, ack_points, wal_writes, wal_records) = {
        let dc = eq_core::DurableCoordinator::open(&dir, config.clone())
            .expect("fresh durable coordinator");
        let half = queries.len() / 2;
        for q in &queries[..half] {
            dc.submit(SubmitRequest::new(q.clone())).expect("admitted");
        }
        let report = dc.flush();
        if checkpoint {
            dc.checkpoint().expect("checkpoint");
        }
        let requests = queries[half..]
            .iter()
            .map(|q| SubmitRequest::new(q.clone()))
            .collect();
        for result in dc.submit_batch(requests) {
            result.expect("admitted");
        }
        let flush_outcomes = report.answered + report.failed;
        let ack_points = half + usize::from(flush_outcomes > 0) + 1;
        (
            dc.accounting(),
            ack_points,
            dc.wal_writes(),
            dc.wal_records(),
        )
    }; // kill: dropped with pending queries and an unflushed WAL tail

    let start = Instant::now();
    let dc = eq_core::DurableCoordinator::open(&dir, config).expect("recovery");
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let after = dc.accounting();
    assert_eq!(
        before.len(),
        after.len(),
        "no acknowledged query lost or duplicated"
    );
    for ((id_b, out_b), (id_a, out_a)) in before.iter().zip(&after) {
        assert_eq!(id_b, id_a, "id accounting must match");
        assert_eq!(out_b, out_a, "terminal outcomes must match exactly");
    }
    let terminal = after.iter().filter(|(_, o)| o.is_some()).count();
    let pending = after.len() - terminal;
    // The recovered pool still coordinates: pair up the pending half.
    let report = dc.flush();
    eq_store::purge_dir(&dir);
    Row {
        extra: Some(after.len() as f64),
        counters: vec![
            ("acknowledged", after.len() as f64),
            ("recovered_terminal", terminal as f64),
            ("recovered_pending", pending as f64),
            ("post_recovery_answered", report.answered as f64),
            ("ack_points", ack_points as f64),
            ("wal_writes", wal_writes as f64),
            ("wal_records", wal_records as f64),
        ],
        ..Row::new(
            "fig_store",
            if checkpoint {
                "kill+recover (checkpoint+tail)"
            } else {
                "kill+recover (wal only)"
            },
            n as u64,
            millis,
        )
    }
}

pub fn pairwise_edge_count(queries: &[EntangledQuery]) -> usize {
    let mut edges = 0usize;
    for (i, qi) in queries.iter().enumerate() {
        for h in &qi.head {
            for (j, qj) in queries.iter().enumerate() {
                if i == j {
                    continue;
                }
                for p in &qj.postconditions {
                    if eq_unify::mgu_atoms(h, p).is_some() {
                        edges += 1;
                    }
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> SocialGraph {
        standard_graph(400)
    }

    #[test]
    fn fig6_runner_produces_all_series() {
        let rows = run_fig6(&Fig6Config {
            sizes: vec![10, 20],
            users: 400,
            seed: 1,
        });
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.millis >= 0.0));
        let series: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn fig7_runner_reports_both_phases() {
        let rows = run_fig7(400, 30, 2);
        assert_eq!(rows.len(), 10); // 5 pc counts × 2 series
        assert!(rows.iter().any(|r| r.series == "matching time"));
        assert!(rows.iter().any(|r| r.series == "database evaluation time"));
    }

    #[test]
    fn fig8_runner_covers_four_series() {
        let rows = run_fig8(&Fig8Config {
            sizes: vec![50],
            giant_sizes: vec![30],
            segment_len: 8,
            users: 400,
            seed: 3,
        });
        let series: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn fig9_runner_rejects_every_arrival() {
        let rows = run_fig9(&Fig9Config {
            residents: 200,
            sizes: vec![10, 20],
            hubs: 4,
            seed: 4,
        });
        for r in &rows {
            assert_eq!(r.extra, Some(r.x as f64), "all arrivals must be rejected");
        }
    }

    #[test]
    fn churn_resident_and_rebuild_agree_and_resident_reuses_state() {
        let graph = tiny_graph();
        let db = build_database(&graph);
        let ops = churn_script(
            &graph,
            &ChurnConfig {
                queries: 300,
                flush_every: 40,
                solo_permille: 300,
                seed: 13,
            },
        );
        let (_, seq) = drive_churn_resident(clone_db(&db), &ops, 1);
        let (_, par) = drive_churn_resident(clone_db(&db), &ops, 4);
        let (_, rebuild_answered) = drive_churn_rebuild(&db, &ops);
        // Sequential and parallel resident flushes are observationally
        // identical, and both agree with the rebuild-per-flush baseline
        // on which queries coordinated.
        assert_eq!(seq.answered, par.answered);
        assert_eq!(seq.components, par.components);
        assert_eq!(seq.answered, rebuild_answered);
        // The dirty set actually skips work: across the run, clean
        // components outnumber zero.
        assert!(seq.skipped_clean > 0.0, "no match-state reuse recorded");
        assert!(seq.answered > 0.0, "churn script should coordinate pairs");
    }

    #[test]
    fn fig_resident_rows_carry_counters() {
        let rows = run_fig_resident(&FigResidentConfig {
            sizes: vec![120],
            flush_every: 30,
            users: 400,
            seed: 5,
        });
        assert_eq!(rows.len(), 3);
        let resident = &rows[0];
        assert!(resident
            .counters
            .iter()
            .any(|(name, _)| *name == "skipped_clean"));
        let json = crate::rows_to_json(&rows);
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"skipped_clean\""));
    }

    #[test]
    fn scale_harness_accounting_holds_at_small_scale() {
        let graph = tiny_graph();
        let db = build_database(&graph);
        let script = eq_workload::scale_service_script(
            &graph,
            &eq_workload::ScaleServiceConfig {
                queries: 300,
                burst: 40,
                seed: 9,
                ..Default::default()
            },
        );
        // The drive itself asserts the outcome accounting (all
        // zero-staleness queries expired, all deferred pairs answered
        // after the Load).
        let (_, counters, shard_stats) = drive_scale_harness(clone_db(&db), &script, 2, 1);
        assert_eq!(counters.expired as usize, script.expiring);
        assert!(counters.answered as usize >= script.deferred);
        assert!(counters.flushes > 0.0);
        assert_eq!(shard_stats.len(), 1);
    }

    #[test]
    fn sharded_scale_harness_matches_single_shard_accounting() {
        let graph = tiny_graph();
        let db = build_database(&graph);
        let script = eq_workload::scale_service_script(
            &graph,
            &eq_workload::ScaleServiceConfig {
                queries: 400,
                burst: 50,
                sessions: 32,
                locality_groups: 8,
                cross_permille: 60,
                seed: 9,
                ..Default::default()
            },
        );
        // The drive asserts the outcome accounting internally; both
        // shard counts must agree on the aggregate counters.
        let (_, single, single_stats) = drive_scale_harness(clone_db(&db), &script, 1, 1);
        let (_, sharded, sharded_stats) = drive_scale_harness(clone_db(&db), &script, 1, 4);
        assert_eq!(single_stats.len(), 1);
        assert_eq!(sharded_stats.len(), 4);
        assert_eq!(single.answered, sharded.answered);
        assert_eq!(single.expired, sharded.expired);
        assert_eq!(single.events, sharded.events);
        // Locality groups spread load: more than one shard lock sees
        // acquisitions.
        let active = sharded_stats.iter().filter(|s| s.acquisitions > 0).count();
        assert!(active > 1, "only {active} shard locks ever acquired");
    }

    #[test]
    fn pairwise_discovery_agrees_with_index() {
        let graph = tiny_graph();
        let queries = two_way_pairs(&graph, 40, PairStyle::BestCase, 5);
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> = queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let indexed = MatchGraph::build(renamed.clone());
        assert_eq!(pairwise_edge_count(&renamed), indexed.edges().len());
    }

    #[test]
    fn instrumented_batch_answers_colocated_pairs() {
        let graph = tiny_graph();
        let db = build_database(&graph);
        let queries = two_way_pairs(&graph, 60, PairStyle::BestCase, 6);
        let t = instrumented_batch(&queries, &db);
        assert!(t.components > 0);
        assert_eq!(t.answered % 2, 0);
    }
}
