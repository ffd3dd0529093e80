//! Input generation for the churn workloads: the social graph, its two
//! database tables, and a `scale_service_script` stream filtered to the
//! pairs that must coordinate, so every submission has one expected
//! terminal outcome.

use eq_ir::{Term, Value};
use eq_workload::{
    scale_service_script, ScaleServiceConfig, ScriptSubmission, ServiceOp, SocialGraph,
    SocialGraphConfig,
};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// What the script expects of a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An ordinary or cross-group pair member (or a giant-ring member):
    /// answered at the next flush after its partner arrives. Only these
    /// are in the latency sample.
    Prompt,
    /// A `KeepPending` pair member blocked on the final `Load`:
    /// answered only after it.
    Deferred,
    /// A zero-staleness solo: expires at the service's next operation.
    Expiring,
}

pub enum Op {
    Burst(Vec<(ScriptSubmission, Kind)>),
    Load(&'static str, Vec<Vec<Value>>),
    Flush,
}

pub struct Churn {
    pub ops: Vec<Op>,
    pub sessions: usize,
    pub queries: usize,
    /// Queries the filter removed from the generated stream.
    pub dropped: usize,
}

/// Shape shared by `service_churn` and `durable_churn`.
pub struct ChurnShape {
    pub users: usize,
    pub queries: usize,
    pub burst: usize,
    pub flush_every_bursts: usize,
    pub sessions: usize,
    pub locality_groups: usize,
    pub cross_permille: u32,
}

/// A table to create and load: name, columns, rows.
pub type TableRows = (&'static str, [&'static str; 2], Vec<Vec<Value>>);

pub fn graph(users: usize, seed: u64) -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users,
        seed: seed ^ 0x2011_0612,
        ..Default::default()
    })
}

/// The `User` and `Friends` rows of `graph` (the contents
/// `eq_workload::build_database` loads).
pub fn tables(graph: &SocialGraph) -> Vec<TableRows> {
    let mut users = Vec::with_capacity(graph.num_users());
    let mut friends = Vec::new();
    for u in 0..graph.num_users() {
        users.push(vec![graph.user_value(u), graph.hometown_value(u)]);
        for &v in graph.friends(u) {
            friends.push(vec![graph.user_value(u), graph.user_value(v as usize)]);
        }
    }
    vec![
        ("User", ["name", "home"], users),
        ("Friends", ["name1", "name2"], friends),
    ]
}

fn kind(sub: &ScriptSubmission) -> Kind {
    if sub.staleness == Some(Duration::ZERO) {
        Kind::Expiring
    } else if sub.keep_pending {
        Kind::Deferred
    } else {
        Kind::Prompt
    }
}

fn head_key(sub: &ScriptSubmission) -> (eq_ir::Symbol, Term, Term) {
    let head = &sub.query.head[0];
    (head.relation, head.terms[0], head.terms[1])
}

enum Skeleton {
    Burst(std::ops::Range<usize>),
    Load(&'static str, Vec<Vec<Value>>),
    Flush,
}

/// Generates the script and drops the pairs whose outcome is not
/// "answered": partners with different hometowns (their shared body
/// `User(m, c), User(p, c)` has no solution) and pairs whose head
/// collides with another pending pair's head between the same two
/// flushes (an unsafe set, §3.1.1). The first pair to claim a head
/// keeps it. Bursts, flush cadence and the final `Load` are kept.
pub fn churn(graph: &SocialGraph, shape: &ChurnShape, seed: u64) -> Churn {
    let script = scale_service_script(
        graph,
        &ScaleServiceConfig {
            queries: shape.queries,
            burst: shape.burst,
            flush_every_bursts: shape.flush_every_bursts,
            sessions: shape.sessions,
            locality_groups: shape.locality_groups,
            cross_permille: shape.cross_permille,
            seed,
            ..Default::default()
        },
    );
    let mut flat: Vec<(usize, ScriptSubmission)> = Vec::with_capacity(shape.queries);
    let mut skeleton = Vec::with_capacity(script.ops.len());
    let mut window = 0usize;
    for op in script.ops {
        match op {
            ServiceOp::SubmitBatchWith(chunk) => {
                let start = flat.len();
                flat.extend(chunk.into_iter().map(|s| (window, s)));
                skeleton.push(Skeleton::Burst(start..flat.len()));
            }
            ServiceOp::Flush => {
                window += 1;
                skeleton.push(Skeleton::Flush);
            }
            ServiceOp::Load { relation, rows } => skeleton.push(Skeleton::Load(relation, rows)),
            ServiceOp::SubmitBatch(_) | ServiceOp::Cancel(_) => {
                unreachable!("scale scripts only submit with options")
            }
        }
    }

    let home: HashMap<Value, usize> = (0..graph.num_users())
        .map(|u| (graph.user_value(u), graph.hometown(u)))
        .collect();
    let home_of = |t: Term| match t {
        Term::Const(v) => home.get(&v).copied(),
        Term::Var(_) => None,
    };
    let mut keep = vec![true; flat.len()];
    let mut claimed: HashSet<((eq_ir::Symbol, Term, Term), usize)> = HashSet::new();
    let mut i = 0;
    while i < flat.len() {
        if kind(&flat[i].1) != Kind::Prompt {
            i += 1;
            continue;
        }
        let ((wa, a), (wb, b)) = (&flat[i], &flat[i + 1]);
        let (ka, kb) = (head_key(a), head_key(b));
        let post = &a.query.postconditions[0];
        assert!(
            kind(b) == Kind::Prompt && (post.relation, post.terms[0], post.terms[1]) == kb,
            "pair members are adjacent in the script"
        );
        let homes_match = home_of(ka.1).is_some() && home_of(ka.1) == home_of(kb.1);
        let collides =
            (*wa..=*wb).any(|w| claimed.contains(&(ka, w)) || claimed.contains(&(kb, w)));
        if homes_match && !collides {
            for w in *wa..=*wb {
                claimed.insert((ka, w));
                claimed.insert((kb, w));
            }
        } else {
            keep[i] = false;
            keep[i + 1] = false;
        }
        i += 2;
    }

    let mut flat: Vec<Option<ScriptSubmission>> = flat.into_iter().map(|(_, s)| Some(s)).collect();
    let mut queries = 0;
    let ops = skeleton
        .into_iter()
        .map(|s| match s {
            Skeleton::Burst(range) => Op::Burst(
                range
                    .filter(|&j| keep[j])
                    .map(|j| {
                        let sub = flat[j].take().expect("each submission is taken once");
                        queries += 1;
                        let k = kind(&sub);
                        (sub, k)
                    })
                    .collect(),
            ),
            Skeleton::Load(relation, rows) => Op::Load(relation, rows),
            Skeleton::Flush => Op::Flush,
        })
        .collect();
    Churn {
        ops,
        sessions: script.sessions,
        dropped: shape.queries - queries,
        queries,
    }
}
