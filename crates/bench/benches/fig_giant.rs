//! Intra-component evaluation under one giant entangled ring: the
//! sequential combined join versus the partitioned work-unit path at
//! several worker counts. The non-timing sweep (with JSON output and
//! the 100k bounded-event mode) lives in the `fig_giant` bin; this
//! bench target gives CI a smoke run and developers a stable A/B
//! timer.

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_bench::{clone_db, drive_giant};
use eq_workload::{giant_component, GiantBody, GiantComponentConfig};

fn main() {
    let (n, k, threads): (usize, usize, &[usize]) = if smoke_mode() {
        (500, 6, &[1, 2, 4])
    } else {
        (10_000, 12, &[1, 2, 4, 8])
    };
    let (chain_db, chain_queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: k,
        body: GiantBody::Chain,
    });
    let (tri_db, tri_queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: k,
        body: GiantBody::Triangle,
    });
    let (shared_db, shared_queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: k,
        body: GiantBody::SharedChain,
    });
    let (wide_db, wide_queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: k,
        body: GiantBody::SharedWide,
    });

    let mut group = BenchGroup::new("fig_giant");
    group.sample_size(if smoke_mode() { 3 } else { 5 });

    // The pre-intra engine's only option: one combined join over the
    // whole ring (chain bodies — backtrack-free, so it terminates).
    // Quadratic atom-selection scan: one sample is plenty at scale.
    {
        let mut seq = BenchGroup::new("fig_giant (sequential baseline)");
        seq.sample_size(1);
        seq.bench_with_setup(
            "sequential (one combined join)",
            n as u64,
            || clone_db(&chain_db),
            |db| drive_giant(db, &chain_queries, usize::MAX, 1, usize::MAX),
        );
        // The shared-variable ring as a single work unit: same
        // quadratic atom-selection asymptotics, one sample.
        seq.bench_with_setup(
            "shared chain (one work unit)",
            n as u64,
            || clone_db(&shared_db),
            |db| drive_giant(db, &shared_queries, 1, 1, usize::MAX),
        );
    }

    for &t in threads {
        group.bench_with_setup(
            &format!("intra chain ({t} threads)"),
            n as u64,
            || clone_db(&chain_db),
            |db| drive_giant(db, &chain_queries, 1, t, usize::MAX),
        );
    }
    for &t in threads {
        group.bench_with_setup(
            &format!("intra triangle ({t} threads)"),
            n as u64,
            || clone_db(&tri_db),
            |db| drive_giant(db, &tri_queries, 1, t, usize::MAX),
        );
    }
    for &t in threads {
        group.bench_with_setup(
            &format!("shared chain, region split ({t} threads)"),
            n as u64,
            || clone_db(&shared_db),
            |db| drive_giant(db, &shared_queries, 1, t, 0),
        );
    }
    // The streaming stress flavor: Θ(k²) local solutions per pendant
    // region, witness maps bounded by the articulation domain k.
    for &t in threads {
        group.bench_with_setup(
            &format!("shared wide, region split ({t} threads)"),
            n as u64,
            || clone_db(&wide_db),
            |db| drive_giant(db, &wide_queries, 1, t, 0),
        );
    }
}
