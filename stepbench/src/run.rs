//! The parent side of a run: launch training jobs as child processes until
//! the time is up, check every job's outputs, and reduce the rows to the
//! benchmark's metrics.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::rank::{unix_ns, TICKS_PER_S};
use crate::row::Row;
use crate::stats;
use crate::workload::{Fabric, Spec};

/// Jobs a run always completes, whatever `--seconds` says: enough for a
/// median set-up time and for 100 timed steps on every workload.
const MIN_JOBS: usize = 5;
/// A run stops starting jobs after this long, so it ends well within the
/// three minutes a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);
/// A job whose processes have not all exited by then is killed and fails.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("images_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. `step_ms_p90` comes from
/// the untraced jobs of the traced run: it is an end-to-end measure whose
/// run-to-run spread is too wide for a regression bound (see README.md).
pub const PER_LAYER: [(&str, &str); 22] = [
    ("step_ms_p90", "ms"),
    ("dimd.next_batch_ms", "ms"),
    ("dimd.decode_mib_per_s", "MiB/s"),
    ("dimd.begin_epoch_ms", "ms"),
    ("dimd.shuffle_ms", "ms"),
    ("dimd.shuffle_bytes", "bytes"),
    ("dimd.load_partition_s", "s"),
    ("dpt.step_ms", "ms"),
    ("dpt.self_ms", "ms"),
    ("tensor.forward_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.sgd_ms", "ms"),
    ("trainer.grad_sync_ms", "ms"),
    ("collectives.busbw_gib_per_s", "GiB/s"),
    ("collectives.bytes_per_step", "bytes"),
    ("collectives.msgs_per_step", "count"),
    ("collectives.recv_wait_ms", "ms"),
    ("collectives.link_imbalance", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.step_ms_p50", "ms"),
    ("proc.cpu_ms_per_image", "ms"),
];

/// One finished job's rows, grouped.
struct JobRows {
    launch_unix_ns: u64,
    ranks: Vec<Row>,
    procs: Vec<Row>,
}

fn free_local_port() -> Result<String, String> {
    // Bind an ephemeral port and release it; rank 0 rebinds it moments
    // later (the same scheme the repository's launcher uses).
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe port: {e}"))?;
    l.local_addr()
        .map(|a| a.to_string())
        .map_err(|e| format!("probe port: {e}"))
}

/// Launch one job (`kind` = `untraced` or `traced`) and collect its rows.
fn run_job(spec: &Spec, seed: u64, kind: &str) -> Result<JobRows, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let rendezvous = match spec.fabric {
        Fabric::Tcp => free_local_port()?,
        Fabric::Threads => String::new(),
    };
    let launch_unix_ns = unix_ns();
    let mut children: Vec<(usize, Child)> = Vec::new();
    let mut readers = Vec::new();
    for r in 0..spec.processes() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", kind, "--workload", spec.name])
            .args(["--seed", &seed.to_string(), "--rank", &r.to_string()])
            .args(["--rendezvous", &rendezvous])
            .stdout(Stdio::piped())
            .stdin(Stdio::null());
        // The program receives only the generated inputs: no runtime
        // override leaks in from the caller's environment.
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("DCNN_") {
                cmd.env_remove(k);
            }
        }
        match cmd.spawn() {
            Ok(mut c) => {
                let mut out = c.stdout.take().expect("piped stdout");
                readers.push(std::thread::spawn(move || {
                    let mut s = String::new();
                    let _ = out.read_to_string(&mut s);
                    s
                }));
                children.push((r, c));
            }
            Err(e) => {
                stop_all(&mut children);
                return Err(format!("spawn rank process {r}: {e}"));
            }
        }
    }
    let deadline = Instant::now() + JOB_TIMEOUT;
    let mut failure = None;
    let mut pending: Vec<usize> = (0..children.len()).collect();
    while !pending.is_empty() {
        let mut still = Vec::new();
        for i in pending {
            match children[i].1.try_wait() {
                Ok(Some(status)) if !status.success() => {
                    failure
                        .get_or_insert(format!("process {} exited with {status}", children[i].0));
                }
                Ok(Some(_)) => {}
                Ok(None) => still.push(i),
                Err(e) => {
                    failure.get_or_insert(format!("wait process {}: {e}", children[i].0));
                }
            }
        }
        pending = still;
        if failure.is_some() || Instant::now() > deadline {
            failure.get_or_insert_with(|| format!("job exceeded {JOB_TIMEOUT:?}"));
            stop_all(&mut children);
            break;
        }
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let outputs: Vec<String> = readers
        .into_iter()
        .map(|h| h.join().unwrap_or_default())
        .collect();
    if let Some(f) = failure {
        return Err(f);
    }
    let mut job = JobRows {
        launch_unix_ns,
        ranks: Vec::new(),
        procs: Vec::new(),
    };
    for line in outputs.iter().flat_map(|o| o.lines()) {
        match Row::parse(line) {
            Some(Ok(row)) if row.kind == "proc" => job.procs.push(row),
            Some(Ok(row)) => job.ranks.push(row),
            Some(Err(e)) => return Err(e),
            None => {}
        }
    }
    job.ranks.sort_by_key(|r| r.u64("rank").unwrap_or(u64::MAX));
    if job.ranks.len() != spec.nodes || job.procs.len() != spec.processes() {
        return Err(format!(
            "expected {} rank rows and {} process rows, got {} and {}",
            spec.nodes,
            spec.processes(),
            job.ranks.len(),
            job.procs.len()
        ));
    }
    Ok(job)
}

fn stop_all(children: &mut [(usize, Child)]) {
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
    }
    for (_, c) in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Check a job's losses: identical on every rank, finite, and lower at the
/// end than after the first epoch. Returns the final loss.
fn check_losses(spec: &Spec, job: &JobRows) -> Result<f64, String> {
    let per_rank: Vec<Vec<f64>> = job
        .ranks
        .iter()
        .map(|r| r.f64s("losses"))
        .collect::<Result<_, _>>()?;
    let l0 = &per_rank[0];
    if l0.len() != spec.epochs {
        return Err(format!(
            "{} epoch losses, expected {}",
            l0.len(),
            spec.epochs
        ));
    }
    for (r, l) in per_rank.iter().enumerate().skip(1) {
        let same = l.len() == l0.len() && l.iter().zip(l0).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "rank {r} losses {l:?} differ from rank 0 losses {l0:?}"
            ));
        }
    }
    let (first, last) = (l0[0], l0[l0.len() - 1]);
    if !last.is_finite() || last >= first {
        return Err(format!(
            "final loss {last} must be finite and below the first-epoch loss {first}"
        ));
    }
    Ok(last)
}

/// Rank 0's per-step series with the warm-up epoch removed.
fn timed(spec: &Spec, row: &Row, key: &str) -> Result<Vec<u64>, String> {
    let v = row.u64s(key)?;
    if v.len() != spec.steps_per_job() {
        return Err(format!(
            "{key}: {} steps, expected {}",
            v.len(),
            spec.steps_per_job()
        ));
    }
    Ok(v[spec.steps_per_epoch()..].to_vec())
}

/// Everything one run measured, before reduction to medians.
#[derive(Default)]
struct Samples {
    step_ms: Vec<f64>,
    timed_images: usize,
    timed_ns: u64,
    setup_s: Vec<f64>,
    rss_mib: Vec<f64>,
    cpu_ms_per_image: Vec<f64>,
    link_imbalance: Vec<f64>,
    layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn add_untraced(&mut self, spec: &Spec, job: &JobRows) -> Result<(), String> {
        let r0 = &job.ranks[0];
        let steps = timed(spec, r0, "step_ns")?;
        self.step_ms.extend(steps.iter().map(|&ns| ns as f64 / 1e6));
        self.timed_images += steps.len() * spec.global_batch();
        self.timed_ns += steps.iter().sum::<u64>();
        let first = r0.u64("first_unix_ns")?;
        self.setup_s
            .push(first.saturating_sub(job.launch_unix_ns) as f64 / 1e9);
        let rss = job
            .procs
            .iter()
            .map(|p| p.u64("rss_kib"))
            .collect::<Result<Vec<_>, _>>()?;
        self.rss_mib
            .push(rss.into_iter().max().unwrap_or(0) as f64 / 1024.0);
        let ticks = job
            .procs
            .iter()
            .map(|p| p.u64("cpu_ticks"))
            .sum::<Result<u64, _>>()?;
        let images = (spec.steps_per_job() * spec.global_batch()) as f64;
        self.cpu_ms_per_image
            .push(ticks as f64 / TICKS_PER_S * 1e3 / images);
        let li = r0.f64s("link_imbalance")?;
        self.link_imbalance.extend(li.iter().skip(1));
        Ok(())
    }

    fn layer(&mut self, name: &'static str, vs: impl IntoIterator<Item = f64>) {
        self.layer.entry(name).or_default().extend(vs);
    }

    fn add_traced(&mut self, spec: &Spec, job: &JobRows) -> Result<(), String> {
        let r0 = &job.ranks[0];
        let ms = |v: Vec<u64>| v.into_iter().map(|ns| ns as f64 / 1e6);
        let count = |v: Vec<u64>| v.into_iter().map(|c| c as f64);
        let next = timed(spec, r0, "next_batch_ns")?;
        let bytes = timed(spec, r0, "batch_bytes")?;
        let mib_s = next
            .iter()
            .zip(&bytes)
            .map(|(&ns, &b)| b as f64 / (1u64 << 20) as f64 / (ns.max(1) as f64 / 1e9));
        self.layer("dimd.decode_mib_per_s", mib_s.collect::<Vec<_>>());
        self.layer("dimd.next_batch_ms", ms(next));
        let per_epoch = |key: &str| -> Result<Vec<u64>, String> {
            let v = r0.u64s(key)?;
            Ok(v.into_iter().skip(1).collect())
        };
        self.layer("dimd.begin_epoch_ms", ms(per_epoch("begin_epoch_ns")?));
        self.layer("dimd.shuffle_ms", ms(per_epoch("shuffle_ns")?));
        self.layer("dimd.shuffle_bytes", count(per_epoch("shuffle_bytes")?));
        self.layer(
            "dimd.load_partition_s",
            [r0.u64("load_partition_ns")? as f64 / 1e9],
        );
        self.layer("dpt.step_ms", ms(timed(spec, r0, "dpt_ns")?));
        self.layer("dpt.self_ms", ms(timed(spec, r0, "dpt_self_ns")?));
        self.layer("tensor.forward_ms", ms(timed(spec, r0, "fwd_ns")?));
        self.layer("tensor.backward_ms", ms(timed(spec, r0, "bwd_ns")?));
        self.layer("tensor.sgd_ms", ms(timed(spec, r0, "sgd_ns")?));
        let sync = timed(spec, r0, "sync_ns")?;
        let world = r0.u64("world")? as f64;
        let bus_bytes = r0.u64("grad_bytes")? as f64 * 2.0 * (world - 1.0) / world;
        let busbw = sync
            .iter()
            .map(|&ns| bus_bytes / (1u64 << 30) as f64 / (ns.max(1) as f64 / 1e9));
        self.layer("collectives.busbw_gib_per_s", busbw.collect::<Vec<_>>());
        self.layer("trainer.grad_sync_ms", ms(sync));
        self.layer(
            "collectives.bytes_per_step",
            count(timed(spec, r0, "sync_bytes")?),
        );
        self.layer(
            "collectives.msgs_per_step",
            count(timed(spec, r0, "sync_msgs")?),
        );
        self.layer(
            "collectives.recv_wait_ms",
            ms(timed(spec, r0, "sync_wait_ns")?),
        );
        self.layer("trace.step_ms_p50", ms(timed(spec, r0, "step_ns")?));
        self.layer(
            "trace.unaccounted_ms",
            ms(timed(spec, r0, "unaccounted_ns")?),
        );
        Ok(())
    }

    /// Reduce to the reported metrics.
    fn metrics(&self, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let med =
            |name: &str, xs: &[f64]| stats::median(xs).ok_or_else(|| format!("{name}: no samples"));
        let step_p50 = med("step_ms_p50", &self.step_ms)?;
        if !trace {
            let v = [
                self.timed_images as f64 / (self.timed_ns.max(1) as f64 / 1e9),
                step_p50,
                med("setup_s", &self.setup_s)?,
                med("peak_rss_mib", &self.rss_mib)?,
            ];
            return Ok(END_TO_END
                .iter()
                .zip(v)
                .map(|(&(n, u), v)| (n, u, v))
                .collect());
        }
        let mut out = Vec::new();
        for &(name, unit) in &PER_LAYER {
            let v = match name {
                "step_ms_p90" => stats::percentile(&self.step_ms, 90.0).ok_or_else(|| {
                    format!(
                        "step_ms_p90: {} timed steps, p90 needs 100",
                        self.step_ms.len()
                    )
                })?,
                "collectives.link_imbalance" => med(name, &self.link_imbalance)?,
                "proc.cpu_ms_per_image" => med(name, &self.cpu_ms_per_image)?,
                "trace.overhead_pct" => {
                    let traced = med(name, self.layer.get("trace.step_ms_p50").map_or(&[], |v| v))?;
                    (traced / step_p50 - 1.0) * 100.0
                }
                _ => med(name, self.layer.get(name).map_or(&[], |v| v))?,
            };
            out.push((name, unit, v));
        }
        Ok(out)
    }
}

/// The outcome of one run.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    steps_timed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Run jobs for `seconds` (at least [`MIN_JOBS`]), alternating untraced
/// and traced jobs when `trace` is set.
fn measure(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let per_job = spec.steps_per_job() as u64;
    let mut samples = Samples::default();
    let (mut attempted, mut failed, mut jobs) = (0u64, 0u64, 0usize);
    let mut reference: Option<f64> = None;
    let mut error: Option<String> = None;
    let mut longest = Duration::ZERO;
    loop {
        let elapsed = start.elapsed();
        let enough = jobs >= MIN_JOBS && elapsed + longest > budget;
        if enough || elapsed > HARD_STOP {
            break;
        }
        let t = Instant::now();
        for kind in if trace {
            &["untraced", "traced"][..]
        } else {
            &["untraced"][..]
        } {
            attempted += per_job;
            let res = run_job(spec, seed, kind).and_then(|job| {
                let last = check_losses(spec, &job)?;
                // Same seed, same program: every job of the run, traced or
                // not, must end on the same loss bit for bit.
                match reference {
                    Some(r) if r.to_bits() != last.to_bits() => {
                        return Err(format!(
                            "{kind} job final loss {last:e} != first untraced job's {r:e}"
                        ))
                    }
                    _ => reference = Some(last),
                }
                match *kind {
                    "untraced" => samples.add_untraced(spec, &job),
                    _ => samples.add_traced(spec, &job),
                }
            });
            if let Err(e) = res {
                failed += per_job;
                error = Some(format!("{kind} job {jobs}: {e}"));
                break;
            }
        }
        if error.is_some() {
            break;
        }
        jobs += 1;
        longest = longest.max(t.elapsed());
    }
    let mut metrics = Vec::new();
    if error.is_none() {
        match samples.metrics(trace) {
            Ok(m) => metrics = m,
            Err(e) => error = Some(e),
        }
    }
    if let Some(e) = &error {
        eprintln!("dcnn-stepbench: {}: check failed: {e}", spec.name);
    }
    Outcome {
        correct: error.is_none(),
        attempted: attempted.max(1),
        failed,
        steps_timed: samples.step_ms.len(),
        metrics,
    }
}

/// A short digest of the source the benchmark built: the checkout the
/// benchmark runs in need not be a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "src", "stepbench/src"] {
        walk(std::path::Path::new(d), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "stepbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut crc = 0u32;
    for f in &files {
        let body = std::fs::read(f).unwrap_or_default();
        crc = dcnn_collectives::transport::crc32_update(crc, f.to_string_lossy().as_bytes());
        crc = dcnn_collectives::transport::crc32_update(crc, &body);
    }
    format!("{crc:08x}/{}files", files.len())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

fn provenance(spec: &Spec, seed: u64, seconds: u64, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance workload={} seed={seed} seconds={seconds} trace={} nproc={nproc} \
         git_rev={} src_digest={}",
        spec.name,
        u8::from(trace),
        git_rev(),
        source_digest()
    );
    println!("config {spec:?}");
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One benchmark run: print provenance, every metric by name and unit, and
/// the result object as the last line.
pub fn bench(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    provenance(spec, seed, seconds, trace);
    let o = measure(spec, seed, seconds, trace);
    let tail = stats::highest_allowed(&[90.0, 99.0, 99.9], o.steps_timed)
        .map_or_else(|| "none".to_string(), |p| format!("p{p}"));
    println!(
        "steps_timed={} highest_reportable_percentile={tail} global_batch={}",
        o.steps_timed,
        spec.global_batch()
    );
    for (n, u, v) in &o.metrics {
        println!("metric {n} = {v} {u}");
    }
    println!("{}", result_json(&o));
    ExitCode::SUCCESS
}

/// `--repeat K`: K runs on seeds `seed .. seed+K`, then the median,
/// quartiles, spread and max/min ratio of every metric. A metric whose
/// max/min exceeds 1.1 does not repeat within a tenth and is flagged.
pub fn steadiness(spec: &Spec, seed: u64, seconds: u64, trace: bool, k: usize) -> ExitCode {
    provenance(spec, seed, seconds, trace);
    let mut per_metric: BTreeMap<&'static str, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for i in 0..k as u64 {
        let o = measure(spec, seed + i, seconds, trace);
        ok &= o.correct && o.failed == 0;
        println!("run seed={} {}", seed + i, result_json(&o));
        for (n, u, v) in o.metrics {
            per_metric.entry(n).or_insert((u, Vec::new())).1.push(v);
        }
    }
    println!(
        "{:<30} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "unit", "q1", "median", "q3", "iqr/med", "max/min"
    );
    for (n, (u, vs)) in &per_metric {
        let med = stats::median(vs).unwrap_or(0.0);
        let [q1, _, q3] = stats::quartiles(vs).unwrap_or([med; 3]);
        let lo = vs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ratio = if lo > 0.0 { hi / lo } else { f64::NAN };
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let flag = if ratio > 1.1 {
            "  does not repeat within a tenth"
        } else {
            ""
        };
        println!(
            "{n:<30} {u:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {ratio:>8.4}{flag}"
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
