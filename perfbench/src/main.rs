//! The repository benchmark. Runs one workload for a fixed time as a
//! warm-up round and then a series of rounds (set-up, then a timed
//! closed-loop phase), checks every output, and prints the metrics by
//! name with their units. The last line of standard output is one JSON
//! object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <service_churn|giant_ring|durable_churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a third of the time runs untraced and the rest traced,
//! and the metrics are the per-layer ones, plus the tracing overhead.
//! The span dump and per-layer summary of the last traced round go to
//! `<out-dir>/trace-<workload>-<seed>.json`.

mod alloc;
mod ledger;
mod script;
mod stats;
mod trace;
mod workloads;

use stats::{dist, mean, median, tail_level};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{RoundOutcome, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every run measures at least this many rounds of each kind it needs.
const MIN_ROUNDS: usize = 3;
/// Rounds stop starting after this many seconds whatever `--seconds` says.
const HARD_STOP_S: f64 = 120.0;

/// The per-layer metrics, with units, every workload reports (0 where a
/// layer is not on the workload's path).
const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_batch.calls", "count"),
    ("service.submit_batch.busy_s", "s"),
    ("service.submit_batch.queries_per_call", "count"),
    ("service.flush.calls", "count"),
    ("service.flush.busy_s", "s"),
    ("service.flush.max_ms", "ms"),
    ("service.lock.hold_s", "s"),
    ("service.lock.max_hold_ms", "ms"),
    ("service.lock.acquisitions", "count"),
    ("service.lock.hottest_shard_share", "ratio"),
    ("engine.components", "count"),
    ("engine.skipped_clean", "count"),
    ("engine.clean_skip_ratio", "ratio"),
    ("engine.answered", "count"),
    ("engine.failed", "count"),
    ("matching.dequeues", "count"),
    ("matching.mgu_calls", "count"),
    ("matching.cleanups", "count"),
    ("intra.units", "count"),
    ("intra.regions", "count"),
    ("intra.witness_peak", "count"),
    ("unify.merges", "count"),
    ("unify.rollbacks", "count"),
    ("unify.clones", "count"),
    ("unify.undo_high_water", "count"),
    ("dispatch.queue_peak", "count"),
    ("events.received", "count"),
    ("events.dropped", "count"),
    ("events.drain_busy_s", "s"),
    ("events.flush_lag_ms", "ms"),
    ("durable.submit_batch.busy_s", "s"),
    ("store.wal.bytes", "bytes"),
    ("store.wal.bytes_per_query", "bytes"),
    ("store.checkpoint.calls", "count"),
    ("store.checkpoint.busy_s", "s"),
    ("store.checkpoint.max_ms", "ms"),
    ("store.checkpoint.bytes", "bytes"),
    ("recover_s", "s"),
    ("disk_bytes_per_query", "bytes"),
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("process.allocs", "count"),
    ("round.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("missing --workload")?.to_string();
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out_dir = PathBuf::from(get("--out-dir").unwrap_or(".bench_build/perfbench-out"));
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// What a round is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Checked, not reported.
    Warmup,
    /// The end-to-end metrics.
    Untraced,
    /// The per-layer metrics.
    Traced,
}

/// One measured round and what was read around it.
struct Measured {
    outcome: RoundOutcome,
    phase: Phase,
    setup_s: f64,
    heap_peak_mb: f64,
    user_s: f64,
    sys_s: f64,
    allocs: f64,
}

fn measure(workload: Workload, seed: u64, phase: Phase) -> Measured {
    let start = Instant::now();
    let round = workload.prepare(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let base = alloc::reset_peak();
    let allocs = alloc::allocations();
    let (user0, sys0) = stats::cpu_times();
    let outcome = round(phase == Phase::Traced);
    let (user1, sys1) = stats::cpu_times();
    Measured {
        heap_peak_mb: alloc::peak_bytes().saturating_sub(base) as f64 / (1024.0 * 1024.0),
        allocs: (alloc::allocations() - allocs) as f64,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
        setup_s,
        phase,
        outcome,
    }
}

/// Per-layer metrics of one traced round.
fn layer_metrics(m: &Measured) -> BTreeMap<&'static str, f64> {
    let spans = m.outcome.tracer.summary();
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    out.extend(m.outcome.counters.iter().map(|(&k, &v)| (k, v)));
    let submit = span("service.submit_batch");
    out.insert("service.submit_batch.calls", submit.calls as f64);
    out.insert("service.submit_batch.busy_s", submit.busy_s);
    if submit.calls > 0 {
        out.insert(
            "service.submit_batch.queries_per_call",
            m.outcome.ledger.admitted as f64 / submit.calls as f64,
        );
    }
    let flush = span("service.flush");
    out.insert("service.flush.calls", flush.calls as f64);
    out.insert("service.flush.busy_s", flush.busy_s);
    out.insert("service.flush.max_ms", flush.max_s * 1e3);
    out.insert(
        "events.drain_busy_s",
        span("events.drain").busy_s + span("events.next_timeout").busy_s,
    );
    out.insert(
        "durable.submit_batch.busy_s",
        span("durable.submit_batch").busy_s,
    );
    let checkpoint = span("durable.checkpoint");
    out.insert("store.checkpoint.calls", checkpoint.calls as f64);
    out.insert("store.checkpoint.busy_s", checkpoint.busy_s);
    out.insert("store.checkpoint.max_ms", checkpoint.max_s * 1e3);
    out.insert("process.user_s", m.user_s);
    out.insert("process.sys_s", m.sys_s);
    out.insert("process.allocs", m.allocs);
    out.insert("round.wall_s", m.outcome.wall_s);
    out
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Durable scratch directories (`eq_store::scratch_dir`) live under
    // the output directory, not the system temp dir. Set before any
    // thread starts.
    let tmp = args.out_dir.join("tmp");
    match std::fs::create_dir_all(&tmp).and_then(|()| tmp.canonicalize()) {
        Ok(tmp) => std::env::set_var("TMPDIR", tmp),
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", tmp.display());
            return ExitCode::from(2);
        }
    }

    // One warm-up round first: its outputs are checked, its figures are
    // not reported. Trace runs then spend a third of the time untraced,
    // for the overhead line.
    let untraced_until = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut rounds: Vec<Measured> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let untraced = rounds.iter().filter(|m| m.phase == Phase::Untraced).count();
        let traced = rounds.iter().filter(|m| m.phase == Phase::Traced).count();
        let phase = if rounds.is_empty() {
            Phase::Warmup
        } else if args.trace && untraced >= MIN_ROUNDS && elapsed >= untraced_until {
            Phase::Traced
        } else {
            Phase::Untraced
        };
        let done = if args.trace {
            traced >= MIN_ROUNDS && elapsed >= args.seconds
        } else {
            untraced >= MIN_ROUNDS && elapsed >= args.seconds
        };
        if done || (elapsed >= HARD_STOP_S && rounds.len() > 1) {
            break;
        }
        let m = measure(args.workload, args.seed, phase);
        let failed = m.outcome.ledger.errors > 0;
        rounds.push(m);
        if failed {
            break;
        }
    }
    report(&args, &rounds)
}

fn report(args: &Args, rounds: &[Measured]) -> ExitCode {
    let attempted: usize = rounds
        .iter()
        .map(|m| m.outcome.ledger.admitted + m.outcome.ledger.refused)
        .sum();
    let failed: usize = rounds.iter().map(|m| m.outcome.ledger.errors).sum();
    let correct = failed == 0;
    for m in rounds {
        for note in &m.outcome.ledger.notes {
            println!("check failed: {note}");
        }
    }
    for (i, m) in rounds.iter().enumerate() {
        let tails = |samples: &Vec<f64>| {
            if samples.is_empty() {
                return String::new();
            }
            let d = dist(samples.clone(), tail_level(samples.len()));
            format!("{:.4}/{:.4} ms (p50/p{})", d.p50, d.tail, d.tail_level)
        };
        println!(
            "round {i}{}: setup {:.4} s, timed {:.4} s, {} queries, user {:.2} s, sys {:.2} s, latency {}, ack {}",
            match m.phase {
                Phase::Warmup => " (warm-up)",
                Phase::Untraced => "",
                Phase::Traced => " (traced)",
            },
            m.setup_s,
            m.outcome.wall_s,
            m.outcome.ledger.admitted,
            m.user_s,
            m.sys_s,
            tails(&m.outcome.ledger.latency_ms),
            tails(&m.outcome.ack_ms),
        );
    }
    if let Some(dropped) = rounds
        .first()
        .and_then(|m| m.outcome.counters.get("script.dropped_queries"))
    {
        println!("script filter dropped {dropped} of the generated queries per round");
    }
    let of = |phase| {
        rounds
            .iter()
            .filter(|m| m.phase == phase)
            .collect::<Vec<_>>()
    };
    let (untraced, traced) = (of(Phase::Untraced), of(Phase::Traced));
    println!(
        "workload {} seed {} rounds 1 warm-up + {} untraced + {} traced, {} queries attempted, {} errors",
        args.name,
        args.seed,
        untraced.len(),
        traced.len(),
        attempted,
        failed
    );
    println!(
        "error_rate {} ratio",
        fmt_num(failed as f64 / attempted.max(1) as f64)
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let e2e = end_to_end(&untraced);
    for (name, value, unit, note) in &e2e {
        println!("{name} {} {unit}{note}", fmt_num(*value));
    }
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        let per_query = |ms: &[&Measured]| {
            median(
                &ms.iter()
                    .map(|m| m.outcome.wall_s / m.outcome.ledger.admitted.max(1) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        per_query(&traced) / per_query(&untraced) - 1.0
    };
    if args.trace {
        println!(
            "trace overhead {:+.2}% wall per query, traced vs untraced rounds",
            overhead * 100.0
        );
        let layers: Vec<BTreeMap<&'static str, f64>> =
            traced.iter().map(|m| layer_metrics(m)).collect();
        for &(name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else if layers.is_empty() {
                0.0
            } else {
                median(&layers.iter().map(|l| l[name]).collect::<Vec<_>>())
            };
            println!("{name} {} {unit}", fmt_num(value));
            metrics.push((name, value, unit));
        }
        if let Some(last) = traced.last() {
            write_trace(args, last, overhead);
        }
    } else {
        metrics.extend(e2e.iter().map(|(n, v, u, _)| (*n, *v, *u)));
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_num(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end metrics over the untraced rounds.
///
/// Every round repeats the same inputs, so the rounds differ only in how
/// fast the host ran them. On the 2-vCPU shared host this was tuned on,
/// that speed swings by up to a third for tens of seconds at a time, and
/// the swings are broad, not a few outliers. Averages over the whole run
/// held steadier across runs than medians over rounds, so throughput is
/// the run's terminal queries over its timed seconds, and each p50 and
/// tail is the mean over rounds of the round's own figure. Each round's
/// tail is taken at the level the first round's sample count allows, so
/// the level is the same in every round and every run. Set-up time and
/// heap peak are medians over rounds.
fn end_to_end(rounds: &[&Measured]) -> Vec<(&'static str, f64, &'static str, String)> {
    if rounds.is_empty() {
        return Vec::new();
    }
    let per_round =
        |f: &dyn Fn(&Measured) -> f64| median(&rounds.iter().map(|m| f(m)).collect::<Vec<_>>());
    let summarize = |samples: &dyn Fn(&Measured) -> &Vec<f64>| -> (f64, f64, String) {
        let level = tail_level(samples(rounds[0]).len());
        let dists: Vec<_> = rounds
            .iter()
            .filter(|m| !samples(m).is_empty())
            .map(|m| dist(samples(m).clone(), level))
            .collect();
        if dists.is_empty() {
            return (0.0, 0.0, String::new());
        }
        let note = format!(
            " (p{level} of ~{} samples per round, mean of {} rounds)",
            samples(rounds[0]).len(),
            dists.len()
        );
        let p50 = mean(&dists.iter().map(|d| d.p50).collect::<Vec<_>>());
        let tail = mean(&dists.iter().map(|d| d.tail).collect::<Vec<_>>());
        (p50, tail, note)
    };
    let (lat_p50, lat_tail, lat_note) = summarize(&|m| &m.outcome.ledger.latency_ms);
    let (ack_p50, ack_tail, ack_note) = summarize(&|m| &m.outcome.ack_ms);
    let terminal: usize = rounds.iter().map(|m| m.outcome.ledger.terminal).sum();
    let timed: f64 = rounds.iter().map(|m| m.outcome.wall_s).sum();
    vec![
        (
            "throughput_qps",
            terminal as f64 / timed.max(1e-9),
            "1/s",
            String::new(),
        ),
        ("latency_p50_ms", lat_p50, "ms", String::new()),
        ("latency_tail_ms", lat_tail, "ms", lat_note),
        ("ack_p50_ms", ack_p50, "ms", String::new()),
        ("ack_tail_ms", ack_tail, "ms", ack_note),
        ("setup_s", per_round(&|m| m.setup_s), "s", String::new()),
        (
            "heap_peak_mb",
            per_round(&|m| m.heap_peak_mb),
            "MB",
            String::new(),
        ),
    ]
}

/// Writes the last traced round's spans and per-layer summary.
fn write_trace(args: &Args, m: &Measured, overhead: f64) {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"overhead_ratio\": {}, \"layers\": {{",
        args.name,
        args.seed,
        fmt_num(overhead)
    );
    let summary = m.outcome.tracer.summary();
    for (i, (name, s)) in summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"calls\": {}, \"busy_s\": {}, \"self_s\": {}, \"max_ms\": {}}}",
            s.calls,
            fmt_num(s.busy_s),
            fmt_num(s.self_s),
            fmt_num(s.max_s * 1e3)
        );
        println!(
            "span {name}: {} calls, busy {:.4} s, self {:.4} s",
            s.calls, s.busy_s, s.self_s
        );
    }
    let _ = write!(out, "}},\n\"spans\": {}}}\n", m.outcome.tracer.spans_json());
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.name, args.seed));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
