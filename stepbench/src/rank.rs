//! What one rank runs: the untraced training job through
//! `dcnn_trainer::train_on_comm`, or the traced replay of the same fused
//! Algorithm 1 step through the layers' public functions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dcnn_collectives::primitives::allgather_bytes;
use dcnn_collectives::reduce;
use dcnn_collectives::runtime::{Comm, CommStats};
use dcnn_dimd::{BatchSource, Dimd, LocalSource, SynthImageNet};
use dcnn_dpt::DptExecutor;
use dcnn_tensor::layers::{set_grads, Module, Param};
use dcnn_tensor::optim::Sgd;
use dcnn_tensor::Tensor;
use dcnn_trainer::{train_on_comm, GradSync};

use crate::row::Row;
use crate::spans::{self_time_ns, Recorder, Span};
use crate::workload::Spec;

/// Wall-clock nanoseconds since the Unix epoch (comparable across the
/// benchmark's processes on one machine).
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// User plus system CPU time of this process, in clock ticks
/// (`/proc/self/stat` fields 14 and 15; 100 ticks per second on Linux).
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|w| w.parse().unwrap_or(0))
        .collect();
    f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)
}

/// Clock ticks per second of [`cpu_ticks`].
pub const TICKS_PER_S: f64 = 100.0;

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Where the model wrapper reports: step stamps (untraced) or
/// forward/backward passes (traced), against one time origin.
pub struct ProbeSink {
    origin: Instant,
    stamp_steps: bool,
    time_passes: bool,
    stamps: Mutex<Vec<u64>>,
    first: OnceLock<(u64, u64)>,
    passes: Mutex<Vec<Span>>,
}

impl ProbeSink {
    /// A sink for one rank. `stamp_steps`: record the start of every
    /// training forward of replica 0. `time_passes`: record every
    /// replica's forward and backward as spans.
    pub fn new(origin: Instant, stamp_steps: bool, time_passes: bool) -> Arc<Self> {
        Arc::new(ProbeSink {
            origin,
            stamp_steps,
            time_passes,
            stamps: Mutex::new(Vec::new()),
            first: OnceLock::new(),
            passes: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The unix time and process CPU ticks at replica 0's first training
    /// forward: the end of set-up.
    pub fn first_step(&self) -> Option<(u64, u64)> {
        self.first.get().copied()
    }

    fn take_stamps(&self) -> Vec<u64> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp sink poisoned"))
    }

    fn take_passes(&self) -> Vec<Span> {
        std::mem::take(&mut *self.passes.lock().expect("pass sink poisoned"))
    }

    /// A model factory wrapping `build()` in a [`Probe`]; replicas are
    /// numbered in the order the executor creates them.
    pub fn factory(
        self: &Arc<Self>,
        build: impl Fn() -> Box<dyn Module> + Sync,
    ) -> impl Fn() -> Box<dyn Module> + Sync {
        let sink = Arc::clone(self);
        let next = AtomicUsize::new(0);
        move || {
            Box::new(Probe {
                inner: build(),
                replica: next.fetch_add(1, Ordering::Relaxed),
                sink: Arc::clone(&sink),
            }) as Box<dyn Module>
        }
    }
}

/// A thin [`Module`] wrapper that observes the model from outside: it
/// forwards every call unchanged, so the arithmetic is the inner model's.
struct Probe {
    inner: Box<dyn Module>,
    replica: usize,
    sink: Arc<ProbeSink>,
}

impl Probe {
    fn pass(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.sink.now();
        let span = Span {
            name,
            step: 0,
            start_ns,
            end_ns,
            parent: None,
        };
        self.sink
            .passes
            .lock()
            .expect("pass sink poisoned")
            .push(span);
    }
}

impl Module for Probe {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let t = self.sink.now();
        if train && self.replica == 0 {
            self.sink.first.get_or_init(|| (unix_ns(), cpu_ticks()));
            if self.sink.stamp_steps {
                self.sink
                    .stamps
                    .lock()
                    .expect("stamp sink poisoned")
                    .push(t);
            }
        }
        let y = self.inner.forward(x, train);
        if self.sink.time_passes {
            self.pass("tensor.forward", t);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let t = self.sink.now();
        let dx = self.inner.backward(grad);
        if self.sink.time_passes {
            self.pass("tensor.backward", t);
        }
        dx
    }

    fn backward_hooked(
        &mut self,
        grad: &Tensor,
        base: usize,
        hook: &mut dyn FnMut(usize, &[f32]),
    ) -> Tensor {
        let t = self.sink.now();
        let dx = self.inner.backward_hooked(grad, base, hook);
        if self.sink.time_passes {
            self.pass("tensor.backward", t);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f)
    }

    fn visit_params_named(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        self.inner.visit_params_named(prefix, f)
    }
}

/// Run one untraced job on this rank through the real trainer and
/// describe it as a result row.
pub fn untraced(comm: &Comm, spec: &Spec, seed: u64, origin: Instant) -> (Row, Arc<ProbeSink>) {
    let me = comm.rank();
    let sink = ProbeSink::new(origin, me == 0, false);
    let ds = SynthImageNet::new(spec.synth(seed));
    let cfg = spec.train_config(seed);
    let model_seed = spec.model_seed(seed);
    let factory = sink.factory(|| spec.model.build(model_seed));
    let stats = train_on_comm(comm, &cfg, &ds, &factory);
    let end_ns = sink.now();

    let mut row = Row::new("untraced");
    row.put_u64("rank", me as u64);
    row.put_f64s(
        "losses",
        &stats.iter().map(|s| s.train_loss).collect::<Vec<_>>(),
    );
    row.put_f64s(
        "link_imbalance",
        &stats.iter().map(|s| s.link_imbalance).collect::<Vec<_>>(),
    );
    if me == 0 {
        let stamps = sink.take_stamps();
        // Step k lasts from its forward to the next step's forward; the
        // last step ends when the trainer returns.
        let step_ns: Vec<u64> = stamps
            .iter()
            .zip(stamps.iter().skip(1).chain(std::iter::once(&end_ns)))
            .map(|(a, b)| b - a)
            .collect();
        row.put_u64s("step_ns", &step_ns);
        row.put_u64("first_unix_ns", sink.first_step().map_or(0, |f| f.0));
    }
    (row, sink)
}

/// Counter deltas of this rank's communicator over one region.
struct CommDelta {
    bytes: u64,
    msgs: u64,
    wait_ns: u64,
}

fn delta(before: &CommStats, after: &CommStats) -> CommDelta {
    CommDelta {
        bytes: after.bytes_sent - before.bytes_sent,
        msgs: after.msgs_sent - before.msgs_sent,
        wait_ns: after.recv_wait_ns - before.recv_wait_ns,
    }
}

/// Per-step and per-epoch series of the traced run (rank-local).
#[derive(Default)]
struct Series {
    next_batch_ns: Vec<u64>,
    batch_bytes: Vec<u64>,
    dpt_ns: Vec<u64>,
    dpt_self_ns: Vec<u64>,
    fwd_ns: Vec<u64>,
    bwd_ns: Vec<u64>,
    sync_ns: Vec<u64>,
    sync_bytes: Vec<u64>,
    sync_msgs: Vec<u64>,
    sync_wait_ns: Vec<u64>,
    sgd_ns: Vec<u64>,
    step_ns: Vec<u64>,
    unaccounted_ns: Vec<u64>,
    begin_epoch_ns: Vec<u64>,
    shuffle_ns: Vec<u64>,
    shuffle_bytes: Vec<u64>,
}

/// Close the current step's root span (if any) and open the next one.
fn next_root(rec: &mut Recorder, root: &mut Option<usize>, step: usize) -> usize {
    if let Some(r) = root.take() {
        rec.close(r);
    }
    let r = rec.open("step", step, None);
    *root = Some(r);
    r
}

/// Replay the trainer's fused Algorithm 1 step (bucket_bytes = 0,
/// replicated optimizer, no accumulation, no validation) from the layers'
/// public functions, with a span around every call. Every arithmetic
/// operation that reaches the loss is the one `train_on_comm` performs, in
/// the same order, so the final loss must match the untraced job's
/// bitwise.
pub fn traced(comm: &Comm, spec: &Spec, seed: u64, origin: Instant) -> (Row, Arc<ProbeSink>) {
    let me = comm.rank();
    let n = comm.size();
    let sink = ProbeSink::new(origin, false, true);
    let cfg = spec.train_config(seed);
    assert!(
        cfg.bucket_bytes == 0 && cfg.accum_steps == 1 && !cfg.shard_optim && !cfg.validate,
        "the traced replay covers the fused replicated step only"
    );
    let ds = SynthImageNet::new(spec.synth(seed));
    let model_seed = spec.model_seed(seed);
    let mut rec = Recorder::new(origin);
    let batch_node = cfg.batch_per_gpu * cfg.gpus_per_node;
    let iterations = (ds.train_len() / (batch_node * n)).max(1);
    let sgd = Sgd::new(cfg.sgd.clone());

    let (load, dimd) = rec.time("dimd.load_partition", 0, None, || {
        Dimd::load_partition(&ds, me, n, cfg.quality, cfg.seed ^ ((me as u64) << 20))
    });
    let load_ns = rec.spans()[load].dur_ns();
    let factory = sink.factory(|| spec.model.build(model_seed));
    let mut exec = DptExecutor::new(cfg.gpus_per_node, &factory);
    let param_total: usize = exec.segments().iter().map(|s| s.len).sum();
    let gsync = GradSync::with_policy(
        cfg.algo.clone(),
        exec.segments(),
        cfg.bucket_bytes,
        cfg.fp16_grads,
    );
    let mut grad = vec![0.0f32; param_total];
    let mut source = LocalSource::new(
        comm,
        dimd,
        iterations,
        batch_node,
        cfg.crop,
        cfg.prefetch_depth,
        cfg.decode_workers,
        cfg.shuffle_segment_bytes,
    );

    let mut s = Series::default();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut root = None;
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let r = next_root(&mut rec, &mut root, step);
        let (b, ()) = rec.time("dimd.begin_epoch", step, Some(r), || {
            source.begin_epoch(epoch)
        });
        s.begin_epoch_ns.push(rec.spans()[b].dur_ns());
        let mut loss_sum = 0.0f64;
        for it in 0..iterations {
            let r = if it == 0 {
                r
            } else {
                next_root(&mut rec, &mut root, step)
            };
            let frac_epoch = epoch as f32 + it as f32 / iterations as f32;
            let lr = cfg.lr.lr_at(frac_epoch);

            let (nb, (x, labels)) =
                rec.time("dimd.next_batch", step, Some(r), || source.next_batch());
            s.next_batch_ns.push(rec.spans()[nb].dur_ns());
            s.batch_bytes
                .push((x.len() * std::mem::size_of::<f32>()) as u64);

            let (d, out) = rec.time("dpt.step", step, Some(r), || {
                exec.step(&x, &labels, cfg.strategy)
            });
            let (mut fwd, mut bwd) = (0u64, 0u64);
            for mut p in sink.take_passes() {
                match p.name {
                    "tensor.forward" => fwd += p.dur_ns(),
                    _ => bwd += p.dur_ns(),
                }
                p.step = step;
                p.parent = Some(d);
                rec.push(p);
            }
            s.dpt_ns.push(rec.spans()[d].dur_ns());
            s.dpt_self_ns.push(self_time_ns(rec.spans(), d));
            s.fwd_ns.push(fwd);
            s.bwd_ns.push(bwd);
            // The trainer's single micro-step bookkeeping (accum_steps = 1).
            let mut micro_loss = 0.0;
            micro_loss += out.loss / 1.0;
            grad.copy_from_slice(&out.grad);

            let before = comm.stats();
            let (g, ()) = rec.time("trainer.grad_sync", step, Some(r), || {
                gsync.reduce(comm, &mut grad[..])
            });
            let cd = delta(&before, &comm.stats());
            s.sync_ns.push(rec.spans()[g].dur_ns());
            s.sync_bytes.push(cd.bytes);
            s.sync_msgs.push(cd.msgs);
            s.sync_wait_ns.push(cd.wait_ns);

            let (o, ()) = rec.time("tensor.sgd", step, Some(r), || {
                reduce::scale(&mut grad, 1.0 / n as f32);
                exec.visit_replicas(|m| {
                    set_grads(m, &grad[..]);
                    sgd.step(m, lr);
                });
            });
            s.sgd_ns.push(rec.spans()[o].dur_ns());
            loss_sum += micro_loss;
            step += 1;
        }
        // The trainer's epoch loss: per-rank sums gathered and added in
        // rank order, divided by ranks × iterations.
        let last = step - 1;
        let (_, epoch_loss) = rec.time("trainer.epoch_stats", last, root, || {
            let all = allgather_bytes(comm, loss_sum.to_le_bytes().to_vec());
            let mut l = 0.0;
            for b in all {
                l += f64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
            }
            l / (n * iterations) as f64
        });
        losses.push(epoch_loss);
        let shuffle_due =
            cfg.shuffle_every_epochs > 0 && (epoch + 1) % cfg.shuffle_every_epochs == 0;
        let before = comm.stats();
        let (e, ()) = rec.time("dimd.end_epoch", last, root, || {
            source.end_epoch(epoch, shuffle_due)
        });
        s.shuffle_ns.push(rec.spans()[e].dur_ns());
        s.shuffle_bytes.push(delta(&before, &comm.stats()).bytes);
    }
    if let Some(r) = root.take() {
        rec.close(r);
    }
    let spans = rec.spans();
    for (i, sp) in spans.iter().enumerate().filter(|(_, sp)| sp.name == "step") {
        s.step_ns.push(sp.dur_ns());
        s.unaccounted_ns.push(self_time_ns(spans, i));
    }

    let mut row = Row::new("traced");
    row.put_u64("rank", me as u64)
        .put_u64("world", n as u64)
        .put_u64(
            "grad_bytes",
            (param_total * std::mem::size_of::<f32>()) as u64,
        )
        .put_u64("load_partition_ns", load_ns)
        .put_f64s("losses", &losses);
    for (k, v) in [
        ("next_batch_ns", &s.next_batch_ns),
        ("batch_bytes", &s.batch_bytes),
        ("dpt_ns", &s.dpt_ns),
        ("dpt_self_ns", &s.dpt_self_ns),
        ("fwd_ns", &s.fwd_ns),
        ("bwd_ns", &s.bwd_ns),
        ("sync_ns", &s.sync_ns),
        ("sync_bytes", &s.sync_bytes),
        ("sync_msgs", &s.sync_msgs),
        ("sync_wait_ns", &s.sync_wait_ns),
        ("sgd_ns", &s.sgd_ns),
        ("step_ns", &s.step_ns),
        ("unaccounted_ns", &s.unaccounted_ns),
        ("begin_epoch_ns", &s.begin_epoch_ns),
        ("shuffle_ns", &s.shuffle_ns),
        ("shuffle_bytes", &s.shuffle_bytes),
    ] {
        row.put_u64s(k, v);
    }
    (row, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcnn_collectives::{ClusterBuilder, RuntimeConfig, TransportKind};

    #[test]
    fn traced_replay_reproduces_the_trainer_loss_bitwise() {
        let mut spec = crate::workload::spec("data-shuffle").expect("known workload");
        spec.train_per_class = 16;
        spec.epochs = 2;
        spec.base_hw = 24;
        spec.hw_jitter = 12;
        let origin = Instant::now();
        let run = |traced_run: bool| {
            ClusterBuilder::new(spec.nodes)
                .configure(RuntimeConfig::default().with_transport(TransportKind::Threads))
                .run(|comm| {
                    let (row, _) = if traced_run {
                        traced(comm, &spec, 5, origin)
                    } else {
                        untraced(comm, &spec, 5, origin)
                    };
                    row.f64s("losses").expect("losses")
                })
                .results
        };
        let bits = |v: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            v.into_iter()
                .map(|l| l.into_iter().map(f64::to_bits).collect())
                .collect()
        };
        let plain = bits(run(false));
        assert_eq!(plain.len(), 2);
        assert_eq!(plain[0].len(), 2);
        assert_eq!(plain[0], plain[1], "ranks must agree");
        assert_eq!(
            bits(run(true)),
            plain,
            "traced replay must match the trainer bitwise"
        );
    }

    #[test]
    fn process_counters_read_from_proc() {
        assert!(peak_rss_kib() > 0);
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(cpu_ticks() > 0);
    }
}
