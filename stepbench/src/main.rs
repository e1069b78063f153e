//! `dcnn-stepbench` — the training-step benchmark.
//!
//! ```text
//! dcnn-stepbench --workload conv-1rank --seed 1 --seconds 25 --trace 0
//! dcnn-stepbench --workload fc-tcp --seed 1 --seconds 25 --trace 1
//! dcnn-stepbench --workload data-shuffle --seed 1 --seconds 25 --repeat 5
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, `--repeat K` the spread of K runs on seeds `seed .. seed+K`. The
//! last line of a run is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Each training job runs in fresh
//! child processes of this binary (`--child`), which print result rows for
//! the parent to check and reduce.

mod rank;
mod row;
mod run;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use dcnn_collectives::runtime::ProcessRun;
use dcnn_collectives::{try_run_tcp_rank_with, ClusterBuilder, Comm, RuntimeConfig, TransportKind};

use crate::row::Row;
use crate::workload::{Fabric, Spec};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    child: Option<String>,
    rank: usize,
    rendezvous: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "dcnn-stepbench: {msg}\n\
         usage: dcnn-stepbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat K]\nworkloads: {}",
        workload::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
        child: None,
        rank: 0,
        rendezvous: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let num = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: {v:?} is not a number")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--seed" => a.seed = num(val()),
            "--seconds" => a.seconds = num(val()),
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            "--repeat" => a.repeat = Some(num(val()).max(2) as usize),
            "--child" => a.child = Some(val()),
            "--rank" => a.rank = num(val()) as usize,
            "--rendezvous" => a.rendezvous = val(),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    a
}

/// What one rank of a child process returns: its result row and the
/// unix time / CPU ticks at its first training step.
type RankOut = (Row, Option<(u64, u64)>);

fn run_rank(comm: &Comm, spec: &Spec, seed: u64, kind: &str, origin: Instant) -> RankOut {
    let (row, sink) = match kind {
        "untraced" => rank::untraced(comm, spec, seed, origin),
        _ => rank::traced(comm, spec, seed, origin),
    };
    (row, sink.first_step())
}

/// A child process: run this process's ranks of one job and print their
/// rows plus one `proc` row (peak RSS, CPU ticks since the first step).
fn child_main(args: &Args, spec: &Spec, kind: &str) -> ExitCode {
    let origin = Instant::now();
    let seed = args.seed;
    let outs: Vec<RankOut> = match spec.fabric {
        Fabric::Threads => {
            let rt = RuntimeConfig::default().with_transport(TransportKind::Threads);
            let job = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ClusterBuilder::new(spec.nodes)
                    .configure(rt)
                    .run(|comm| run_rank(comm, spec, seed, kind, origin))
                    .results
            }));
            match job {
                Ok(outs) => outs,
                Err(_) => return ExitCode::FAILURE,
            }
        }
        Fabric::Tcp => {
            let rt = RuntimeConfig::default()
                .with_transport(TransportKind::Tcp)
                .with_rank_world(args.rank, spec.nodes)
                .with_rendezvous(args.rendezvous.clone());
            match try_run_tcp_rank_with(&rt, |comm| run_rank(comm, spec, seed, kind, origin)) {
                Ok(ProcessRun { result, .. }) => vec![result],
                Err(e) => {
                    eprintln!("dcnn-stepbench: rank {}: aborted: {e}", args.rank);
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let end_ticks = rank::cpu_ticks();
    let start_ticks = outs.first().and_then(|o| o.1).map_or(end_ticks, |f| f.1);
    for (row, _) in &outs {
        println!("{row}");
    }
    let mut p = Row::new("proc");
    p.put_u64("rss_kib", rank::peak_rss_kib())
        .put_u64("cpu_ticks", end_ticks - start_ticks);
    println!("{p}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    let spec = workload::spec(&args.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", args.workload)));
    if let Some(kind) = args.child.clone() {
        return child_main(&args, &spec, &kind);
    }
    match args.repeat {
        Some(k) => run::steadiness(&spec, args.seed, args.seconds, args.trace, k),
        None => run::bench(&spec, args.seed, args.seconds, args.trace),
    }
}
