//! Retirement leaves the resident atom indexes in one batched pass per
//! operation. These tests pin the two properties the batching rests on:
//!
//! * the work is linear — `BatchReport::index_postings_scanned` per
//!   retired atom is the same constant for a 1k and a 4k Chain ring, a
//!   count rather than a timing (per-atom removal rescanned the hub
//!   posting list once per atom: quadratic);
//! * every operation that retires drains before it returns —
//!   `check_invariants` (which rejects undrained retirements and any
//!   index/slot drift) holds after a flush, a staleness sweep, a
//!   cancellation and a shard-merge migration.

use eq_core::engine::{FailReason, NoSolutionPolicy, QueryOutcome, SubmitOptions};
use eq_core::{
    BatchReport, CoordinationEngine, Coordinator, EngineConfig, EngineMode, SubmitRequest,
};
use eq_db::Database;
use eq_ir::{EntangledQuery, Value};
use eq_sql::parse_ir_query;
use eq_workload::{giant_component, GiantBody, GiantComponentConfig};
use std::time::Instant;

fn ring_config() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        admission_safety_check: false,
        on_no_solution: NoSolutionPolicy::Reject,
        flush_threads: 1,
        ..Default::default()
    }
}

fn ring(n: usize) -> (Database, Vec<EntangledQuery>) {
    giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: 4,
        body: GiantBody::Chain,
    })
}

/// Flushes a whole Chain ring of `n` queries through one engine.
fn flush_ring_engine(n: usize) -> BatchReport {
    let (db, queries) = ring(n);
    let mut engine = CoordinationEngine::new(db, ring_config());
    for r in engine.submit_batch(
        queries
            .into_iter()
            .map(|q| (q, SubmitOptions::default()))
            .collect(),
    ) {
        r.expect("ring query admits");
    }
    let report = engine.flush();
    engine.check_invariants().unwrap();
    assert_eq!(engine.pending_count(), 0);
    report
}

/// Chain queries are `{R(G_{i+1}, HUB)} R(G_i, HUB)`: one head and one
/// postcondition of arity 2. Retiring the whole ring in one drain
/// visits, per index, `n` singleton `(R,0,G_i)` lists, the `n`-entry
/// `(R,1,HUB)` list and the `n`-entry `R` relation list: arity + 1 = 3
/// entries per retired atom, at every ring size.
const SCANNED_PER_ATOM: usize = 3;

#[test]
fn retirement_work_per_atom_is_constant_in_ring_size() {
    for n in [1_000, 4_000] {
        let report = flush_ring_engine(n);
        assert_eq!(report.answered, n, "whole {n}-ring coordinates");
        let retired_atoms = 2 * n;
        assert_eq!(
            report.index_postings_scanned as usize,
            SCANNED_PER_ATOM * retired_atoms,
            "{n}-ring: scanned postings are not {SCANNED_PER_ATOM} per retired atom"
        );
    }
}

#[test]
fn sharded_service_sums_scanned_postings() {
    // The service merges per-shard reports; the ring lives on one
    // shard, so the sum is that shard's exact count.
    let n = 1_000;
    let (db, queries) = ring(n);
    let coordinator = Coordinator::new(
        db,
        EngineConfig {
            service_shards: 4,
            ..ring_config()
        },
    );
    let mut session = coordinator.session();
    for r in session.submit_batch(queries.into_iter().map(SubmitRequest::new).collect()) {
        r.expect("ring query admits");
    }
    let report = coordinator.flush();
    assert_eq!(report.answered, n);
    assert_eq!(
        report.index_postings_scanned as usize,
        SCANNED_PER_ATOM * 2 * n
    );
    coordinator.check_invariants().unwrap();
}

fn q(text: &str) -> EntangledQuery {
    parse_ir_query(text).unwrap()
}

fn flight_db() -> Database {
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    for (fno, dest) in [(122, "Paris"), (123, "Paris"), (136, "Rome")] {
        db.insert("F", vec![Value::int(fno), Value::str(dest)])
            .unwrap();
    }
    db
}

#[test]
fn every_retiring_operation_leaves_the_engine_consistent() {
    let mut engine = CoordinationEngine::new(
        flight_db(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        },
    );
    // Flush: an answered pair next to a query that stays pending.
    let lonely = engine
        .submit(q("{R(Nobody, z)} R(Newman, z) <- F(z, Rome)"))
        .unwrap();
    engine
        .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
        .unwrap();
    engine
        .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
        .unwrap();
    let report = engine.flush();
    assert_eq!(report.answered, 2);
    assert!(report.index_postings_scanned > 0);
    engine.check_invariants().unwrap();

    // Staleness sweep: a query whose deadline has already passed.
    let stale = engine
        .submit_with(
            q("{R(Elaine, u)} R(George, u) <- F(u, Paris)"),
            SubmitOptions {
                deadline: Some(Instant::now()),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(engine.expire_stale(), 1);
    assert_eq!(
        stale.outcome.try_recv().unwrap(),
        QueryOutcome::Failed(FailReason::Stale)
    );
    engine.check_invariants().unwrap();

    // Cancellation.
    assert!(engine.cancel(lonely.id));
    engine.check_invariants().unwrap();
    assert_eq!(engine.pending_count(), 0);

    // A freed slot is reused by the next arrival, which must see no
    // trace of the retired atoms.
    let reused = engine
        .submit(q("{R(Kramer, w)} R(Jerry, w) <- F(w, Paris)"))
        .unwrap();
    engine.check_invariants().unwrap();
    assert!(reused.outcome.try_recv().is_err(), "no partner survives");
}

#[test]
fn shard_merge_migration_leaves_both_shards_consistent() {
    let coordinator = Coordinator::new(
        flight_db(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            service_shards: 2,
            ..Default::default()
        },
    );
    let mut session = coordinator.session();
    session
        .submit(q("{R(Beta, x)} R(Alpha, x) <- F(x, Paris)"))
        .unwrap();
    session
        .submit(q("{S(Delta, u)} S(Gamma, u) <- F(u, Paris)"))
        .unwrap();
    // The bridging query merges the R and S groups: the losing shard's
    // pending query is extracted (a batched retirement without an
    // outcome) and re-admitted on the winner.
    session
        .submit(q("{R(Alpha, y)} S(Delta, y) <- F(y, Paris)"))
        .unwrap();
    coordinator.check_invariants().unwrap();
    session
        .submit(q("{S(Gamma, z)} R(Beta, z) <- F(z, Paris)"))
        .unwrap();
    let report = coordinator.flush();
    assert_eq!(report.answered, 4, "the merged four-cycle coordinates");
    coordinator.check_invariants().unwrap();
    assert_eq!(coordinator.pending_count(), 0);
}
