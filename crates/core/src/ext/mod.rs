//! Extensions from the paper's future-work section (§6):
//!
//! * **Multi-answer semantics** (`CHOOSE k`): a component can return up
//!   to `k` coordinated solutions instead of one —
//!   [`coordinate_choose_k`];
//! * **Preferences / ranking**: instead of taking the first coordinated
//!   solution non-deterministically, sample up to `sample_limit`
//!   solutions and return the one maximizing a user-supplied ranking
//!   function — [`coordinate_with_preference`]. This also covers "soft"
//!   preferences: encode the soft constraint in the score rather than
//!   the WHERE clause, and coordination still succeeds when the
//!   preferred option is unavailable.

use crate::combine::{CombinedQuery, QueryAnswer};
use crate::coordinate::{CoordinateError, RejectReason};
use crate::graph::MatchGraph;
use crate::matching;
use crate::safety::{self};
use crate::ucs;
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, VarGen};

/// Outcome of a multi-answer coordination round: each answered query
/// carries up to `k` alternative coordinated answers (solution `i` of
/// one query goes with solution `i` of its partners).
#[derive(Debug, Default)]
pub struct MultiOutcome {
    /// Per query: the alternative answers, outermost index = solution.
    pub answers: FastMap<QueryId, Vec<QueryAnswer>>,
    /// Rejections, as in the core pipeline.
    pub rejected: Vec<(QueryId, RejectReason)>,
}

/// Like [`crate::coordinate()`], but each matched component returns up to
/// `k` coordinated solutions (the §6 multi-answer extension). All
/// answers within one solution index are mutually consistent.
pub fn coordinate_choose_k(
    queries: &[EntangledQuery],
    db: &Database,
    k: usize,
) -> Result<MultiOutcome, CoordinateError> {
    let mut outcome = MultiOutcome::default();
    run_components(
        queries,
        |survivor_ids, combined, outcome| {
            let solutions = combined.evaluate(db, k)?;
            if solutions.is_empty() {
                for id in survivor_ids {
                    outcome.rejected.push((*id, RejectReason::NoSolution));
                }
            } else {
                for answers in solutions {
                    for a in answers {
                        outcome.answers.entry(a.query).or_default().push(a);
                    }
                }
            }
            Ok(())
        },
        &mut outcome,
    )?;
    Ok(outcome)
}

/// A ranking function over one coordinated solution (the answers of all
/// queries in a component). Higher is better.
pub type Ranker<'a> = dyn Fn(&[QueryAnswer]) -> f64 + 'a;

/// Like [`crate::coordinate()`], but instead of the first coordinated
/// solution, each component samples up to `sample_limit` solutions and
/// keeps the one with the highest `ranker` score (the §6
/// preference-ranking extension).
pub fn coordinate_with_preference(
    queries: &[EntangledQuery],
    db: &Database,
    sample_limit: usize,
    ranker: &Ranker<'_>,
) -> Result<MultiOutcome, CoordinateError> {
    let mut outcome = MultiOutcome::default();
    run_components(
        queries,
        |survivor_ids, combined, outcome| {
            let solutions = combined.evaluate(db, sample_limit)?;
            match solutions
                .into_iter()
                .max_by(|a, b| ranker(a).total_cmp(&ranker(b)))
            {
                Some(best) => {
                    for a in best {
                        outcome.answers.entry(a.query).or_default().push(a);
                    }
                }
                None => {
                    for id in survivor_ids {
                        outcome.rejected.push((*id, RejectReason::NoSolution));
                    }
                }
            }
            Ok(())
        },
        &mut outcome,
    )?;
    Ok(outcome)
}

/// Shared scaffolding: validate, rename, build graph, enforce safety,
/// match each component, then hand the combined query to `eval`.
fn run_components<F>(
    queries: &[EntangledQuery],
    mut eval: F,
    outcome: &mut MultiOutcome,
) -> Result<(), CoordinateError>
where
    F: FnMut(&[QueryId], &CombinedQuery, &mut MultiOutcome) -> Result<(), CoordinateError>,
{
    let gen = VarGen::new();
    let mut admitted = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let id = QueryId(i as u64);
        match q.validate() {
            Ok(()) => admitted.push(q.rename_apart(&gen).with_id(id)),
            Err(e) => outcome.rejected.push((id, RejectReason::Invalid(e))),
        }
    }
    let graph = MatchGraph::build(admitted);
    let mut alive = vec![true; graph.len()];
    for slot in safety::enforce(&graph, &mut alive) {
        outcome
            .rejected
            .push((graph.queries()[slot as usize].id, RejectReason::Unsafe));
    }
    for component in graph.components() {
        let members: Vec<u32> = component
            .iter()
            .copied()
            .filter(|&m| alive[m as usize])
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut mask = vec![false; graph.len()];
        for &m in &members {
            mask[m as usize] = true;
        }
        if !ucs::violations(&graph, &mask).is_empty() {
            for &m in &members {
                outcome
                    .rejected
                    .push((graph.queries()[m as usize].id, RejectReason::NonUcs));
            }
            continue;
        }
        let m = matching::match_component(&graph, &members);
        for &slot in &m.removed {
            outcome
                .rejected
                .push((graph.queries()[slot as usize].id, RejectReason::Unmatched));
        }
        if m.survivors.is_empty() {
            continue;
        }
        let Some(global) = m.global else {
            for &slot in &m.survivors {
                outcome
                    .rejected
                    .push((graph.queries()[slot as usize].id, RejectReason::Unmatched));
            }
            continue;
        };
        let survivor_ids: Vec<QueryId> = m
            .survivors
            .iter()
            .map(|&s| graph.queries()[s as usize].id)
            .collect();
        let combined = CombinedQuery::build(&graph, &m.survivors, global);
        eval(&survivor_ids, &combined, outcome)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::Value;
    use eq_sql::parse_ir_query;

    fn q(text: &str) -> EntangledQuery {
        parse_ir_query(text).unwrap()
    }

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.create_table("A", &["fno", "airline"]).unwrap();
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            db.insert("F", vec![Value::int(fno), Value::str(dest)])
                .unwrap();
        }
        for (fno, al) in [
            (122, "United"),
            (123, "United"),
            (134, "Lufthansa"),
            (136, "Alitalia"),
        ] {
            db.insert("A", vec![Value::int(fno), Value::str(al)])
                .unwrap();
        }
        db
    }

    #[test]
    fn choose_k_returns_alternatives() {
        let db = flight_db();
        let outcome = coordinate_choose_k(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
            ],
            &db,
            2,
        )
        .unwrap();
        let kramer = &outcome.answers[&QueryId(0)];
        let jerry = &outcome.answers[&QueryId(1)];
        assert_eq!(kramer.len(), 2);
        assert_eq!(jerry.len(), 2);
        // Solution i is mutually consistent.
        for i in 0..2 {
            assert_eq!(kramer[i].tuples[0][1], jerry[i].tuples[0][1]);
        }
        // And the two solutions differ.
        assert_ne!(kramer[0].tuples[0][1], kramer[1].tuples[0][1]);
    }

    #[test]
    fn choose_k_caps_at_available_solutions() {
        let db = flight_db();
        let outcome = coordinate_choose_k(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Rome)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Rome)"),
            ],
            &db,
            10,
        )
        .unwrap();
        assert_eq!(outcome.answers[&QueryId(0)].len(), 1); // only flight 136
    }

    #[test]
    fn preference_picks_highest_scoring_solution() {
        let db = flight_db();
        // Prefer the highest flight number.
        let ranker = |answers: &[QueryAnswer]| -> f64 {
            answers[0].tuples[0][1].as_int().unwrap_or(0) as f64
        };
        let outcome = coordinate_with_preference(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
            ],
            &db,
            10,
            &ranker,
        )
        .unwrap();
        // Flights to Paris: 122, 123, 134 → prefer 134.
        assert_eq!(
            outcome.answers[&QueryId(0)][0].tuples[0][1],
            Value::int(134)
        );
        assert_eq!(
            outcome.answers[&QueryId(1)][0].tuples[0][1],
            Value::int(134)
        );
    }

    #[test]
    fn soft_preference_degrades_gracefully() {
        let db = flight_db();
        // Soft constraint: prefer Athens (unavailable); any Paris flight
        // still coordinates because the preference is only a score.
        let ranker = |_: &[QueryAnswer]| -> f64 { 0.0 };
        let outcome = coordinate_with_preference(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
            ],
            &db,
            5,
            &ranker,
        )
        .unwrap();
        assert_eq!(outcome.answers.len(), 2);
    }

    #[test]
    fn no_solution_still_rejected() {
        let db = flight_db();
        let outcome = coordinate_choose_k(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"),
            ],
            &db,
            3,
        )
        .unwrap();
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.rejected.len(), 2);
    }
}

pub mod threshold;

pub use threshold::{ThresholdOutcome, ThresholdQuery};
