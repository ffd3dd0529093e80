//! The sharded parallel flush is indistinguishable from the sequential
//! one: 1 worker, 4 workers, and one per hardware thread deliver equal
//! `BatchReport`s and equal per-query outcomes.
//!
//! `BatchReport` carries deltas of the process-global `eq_unify::ops`
//! counters, which any other test running in the same process would
//! perturb, so this test is the only one in its binary.

use eq_core::engine::QueryOutcome;
use eq_core::{CoordinationEngine, EngineConfig, EngineMode};
use eq_db::Database;
use eq_ir::{EntangledQuery, Value};
use eq_sql::parse_ir_query;

fn q(text: &str) -> EntangledQuery {
    parse_ir_query(text).unwrap()
}

fn flight_db() -> Database {
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    db.create_table("A", &["fno", "airline"]).unwrap();
    for (fno, dest) in [(122, "Paris"), (123, "Paris"), (136, "Rome")] {
        db.insert("F", vec![Value::int(fno), Value::str(dest)])
            .unwrap();
    }
    for (fno, al) in [(122, "United"), (123, "United"), (136, "Alitalia")] {
        db.insert("A", vec![Value::int(fno), Value::str(al)])
            .unwrap();
    }
    db
}

#[test]
fn sharded_flush_is_indistinguishable_from_sequential() {
    // 30 independent two-way components; flush with 1 worker, 4
    // workers, and one-per-hardware-thread must deliver identical
    // reports and identical per-query outcomes.
    let run = |threads: usize| {
        let mut engine = CoordinationEngine::new(
            flight_db(),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                flush_threads: threads,
                ..Default::default()
            },
        );
        let mut handles = Vec::new();
        for i in 0..30 {
            let (a, b) = (format!("P{i}a"), format!("P{i}b"));
            handles.push(
                engine
                    .submit(q(&format!(
                        "{{R({b}, x{i})}} R({a}, x{i}) <- F(x{i}, Paris)"
                    )))
                    .unwrap(),
            );
            handles.push(
                engine
                    .submit(q(&format!(
                        "{{R({a}, y{i})}} R({b}, y{i}) <- F(y{i}, Paris)"
                    )))
                    .unwrap(),
            );
        }
        let report = engine.flush();
        let outcomes: Vec<Option<QueryOutcome>> = handles
            .into_iter()
            .map(|h| h.outcome.try_recv().ok())
            .collect();
        (report, outcomes)
    };
    let (seq_report, seq_outcomes) = run(1);
    assert_eq!(seq_report.answered, 60);
    for threads in [4, 0] {
        let (par_report, par_outcomes) = run(threads);
        assert_eq!(seq_report, par_report, "threads={threads}");
        assert_eq!(seq_outcomes, par_outcomes, "threads={threads}");
    }
}
