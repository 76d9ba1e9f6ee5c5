//! The `serve` workload: four ResNet-stage buckets behind one
//! `iwino_serve::Server`, loaded by a closed loop of request rounds from a
//! single generator thread.

use crate::check;
use crate::nets::LAYER_LABELS;
use crate::replay;
use crate::stats::{percentile, Rng};
use crate::trace::Tracer;
use crate::workload::{metric, ConvSite, Counters, Metric, Ops, Size, Workload};
use iwino_nn::{Backend, Conv2d};
use iwino_serve::{ServeConfig, Server, ServerBuilder, Ticket};
use iwino_tensor::{ConvShape, Tensor4};

/// `(bucket, shape label, input hw, ic, oc, stride)` at full size.
const BUCKETS: [(&str, &str, usize, usize, usize, usize); 4] = [
    ("stage1-3x3", "s1.3x3", 32, 32, 32, 1),
    ("stage2-down3x3", "s2.down3x3", 32, 32, 64, 2),
    ("stage3-3x3", "s3.3x3", 8, 128, 128, 1),
    ("stage4-3x3", "s4.3x3", 4, 256, 256, 1),
];
const MAX_BATCH: usize = 8;

/// The `serve.*` per-layer metrics and their units; the `nn` workloads
/// report them as 0.
pub const SERVE_METRICS: [(&str, &str); 5] = [
    ("serve.coalesce_factor", "req/batch"),
    ("serve.batches_per_round", "count"),
    ("serve.request_wall_ms_p50", "ms"),
    ("serve.request_wall_ms_p90", "ms"),
    ("serve.plan_misses", "count"),
];

/// The serve workload's request load and bucket sizes.
pub struct LoadConfig {
    /// Requests per bucket per round.
    per_bucket: usize,
    /// Seeded inputs per bucket; rounds walk through them.
    pool: usize,
    /// Divides every bucket's spatial size and channel counts.
    shrink: usize,
}

impl LoadConfig {
    pub fn new(size: Size) -> LoadConfig {
        match size {
            Size::Full => LoadConfig {
                per_bucket: 8,
                pool: 12,
                shrink: 1,
            },
            Size::Tiny => LoadConfig {
                per_bucket: 2,
                pool: 3,
                shrink: 4,
            },
        }
    }

    fn layers(&self) -> Vec<Conv2d> {
        BUCKETS
            .iter()
            .enumerate()
            .map(|(k, &(_, _, _, ic, oc, stride))| {
                let (ic, oc) = (ic / self.shrink, oc / self.shrink);
                Conv2d::new(ic, oc, 3, stride, 1, false, Backend::ImcolWinograd, 4000 + k as u64)
            })
            .collect()
    }

    fn input_hw(&self, bucket: usize) -> usize {
        (BUCKETS[bucket].2 / self.shrink).max(2)
    }

    pub fn sites(&self) -> Vec<ConvSite> {
        self.layers()
            .iter()
            .enumerate()
            .map(|(k, l)| {
                let hw = self.input_hw(k);
                ConvSite {
                    label: BUCKETS[k].1.to_string(),
                    shape: l.serving_shape(1, hw, hw),
                    calls: self.per_bucket,
                }
            })
            .collect()
    }
}

/// Seeded per-bucket request inputs, generated before set-up.
pub struct ServeInputs {
    pool: Vec<Vec<Tensor4<f32>>>,
}

impl ServeInputs {
    pub fn generate(c: &LoadConfig, seed: u64) -> ServeInputs {
        let mut rng = Rng::new(seed);
        let pool = BUCKETS
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let hw = c.input_hw(k);
                let dims = [1, hw, hw, b.3 / c.shrink];
                (0..c.pool)
                    .map(|_| Tensor4::from_vec(dims, rng.fill(dims.iter().product(), -1.0, 1.0)))
                    .collect()
            })
            .collect();
        ServeInputs { pool }
    }
}

pub struct ServeBench {
    cfg: LoadConfig,
    server: Server,
    shapes: Vec<ConvShape>,
    inputs: ServeInputs,
    /// `iwino_baselines::direct_conv` of every pool input, per bucket.
    refs: Vec<Vec<Vec<f32>>>,
    rounds: u64,
    next_request: u64,
    /// Self-test hook: perturb every answer before it is checked.
    corrupt: bool,
}

impl ServeBench {
    /// Build the server (weights, buckets, coalescer, batch pool) and run
    /// one warm-up round, which builds each bucket's plan.
    pub fn setup(cfg: LoadConfig, inputs: ServeInputs, corrupt: bool) -> (ServeBench, Vec<Tensor4<f32>>) {
        let layers = cfg.layers();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut builder = ServerBuilder::new(ServeConfig {
            queue_capacity: 64,
            max_batch: MAX_BATCH,
            workers: nproc,
            start_paused: false,
        });
        let mut shapes = Vec::new();
        let mut weights = Vec::new();
        for (k, l) in layers.iter().enumerate() {
            let hw = cfg.input_hw(k);
            let (s, w) = (l.serving_shape(1, hw, hw), l.export_weights());
            builder = builder.bucket(BUCKETS[k].0, s, w.clone());
            shapes.push(s);
            weights.push(w);
        }
        let server = builder.build().expect("serve buckets are valid");
        let mut b = ServeBench {
            cfg,
            server,
            shapes,
            inputs,
            refs: Vec::new(),
            rounds: 0,
            next_request: 0,
            corrupt,
        };
        b.round(None);
        (b, weights)
    }

    /// Reference outputs for every pool input (not part of set-up).
    pub fn compute_references(&mut self, weights: &[Tensor4<f32>]) {
        self.refs = (0..BUCKETS.len())
            .map(|k| {
                self.inputs.pool[k]
                    .iter()
                    .map(|x| {
                        iwino_baselines::direct_conv(x, &weights[k], &self.shapes[k])
                            .as_slice()
                            .to_vec()
                    })
                    .collect()
            })
            .collect();
    }

    /// Submit one round (`per_bucket` requests to each bucket, interleaved)
    /// and wait for every answer; each answer is checked when references
    /// exist.
    fn round(&mut self, mut tracer: Option<&mut Tracer>) -> Ops {
        let parent = tracer.as_deref().and_then(Tracer::current);
        let mut pending: Vec<(usize, usize, Option<usize>, Ticket)> = Vec::new();
        let mut ops = Ops::default();
        for r in 0..self.cfg.per_bucket {
            for (k, (label, ..)) in BUCKETS.iter().enumerate() {
                let j = (self.rounds as usize * self.cfg.per_bucket + r) % self.cfg.pool;
                let x = self.inputs.pool[k][j].clone();
                let id = self.next_request;
                self.next_request += 1;
                let span = tracer.as_deref_mut().map(|t| {
                    let req = t.open("request", parent, id, false);
                    let sub = t.open("submit", Some(req), id, false);
                    (req, sub)
                });
                let submitted = self.server.submit(label, x, None);
                if let (Some(t), Some((_, sub))) = (tracer.as_deref_mut(), span) {
                    t.close(sub);
                }
                match submitted {
                    Ok(ticket) => pending.push((k, j, span.map(|s| s.0), ticket)),
                    Err(e) => {
                        eprintln!("serve-resnet-stages: submit to {label} failed: {e}");
                        ops.add(Ops::one(false));
                    }
                }
            }
        }
        for (k, j, req, ticket) in pending {
            let wait = match (tracer.as_deref_mut(), req) {
                (Some(t), Some(req)) => Some(t.open("wait", Some(req), t.spans[req].id, false)),
                _ => None,
            };
            let mut answer = ticket.wait();
            if let (Ok(y), true) = (&mut answer, self.corrupt) {
                y.as_mut_slice()[0] += 1.0;
            }
            if let (Some(t), Some(wait), Some(req)) = (tracer.as_deref_mut(), wait, req) {
                t.close(wait);
                t.close(req);
            }
            let ok = match (&answer, self.refs.get(k)) {
                (Ok(y), Some(refs)) => check::agrees(y.as_slice(), &refs[j]),
                (Ok(_), None) => true,
                (Err(_), _) => false,
            };
            if !ok {
                eprintln!("serve-resnet-stages: bucket {} input {j}: wrong answer", BUCKETS[k].0);
            }
            ops.add(Ops::one(ok));
        }
        self.rounds += 1;
        ops
    }
}

impl Workload for ServeBench {
    fn images_per_step(&self) -> usize {
        self.cfg.per_bucket * BUCKETS.len()
    }

    fn step(&mut self, step: u64, tracer: Option<&mut Tracer>) -> Ops {
        match tracer {
            Some(tr) => tr.scoped("step", step, |tr| self.round(Some(tr))),
            None => self.round(None),
        }
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.server.engine_stats())
    }

    fn finish(&mut self, _steps: u64, _window: &Counters) -> Ops {
        // Resident plans: exactly one build per bucket over the server's life.
        let misses = self.server.engine_stats().plan_misses;
        let ok = misses == BUCKETS.len() as u64;
        if !ok {
            eprintln!(
                "serve-resnet-stages: {misses} plan misses; expected exactly one per bucket ({})",
                BUCKETS.len()
            );
        }
        Ops::one(ok)
    }

    fn layer_metrics(
        &mut self,
        _steps: u64,
        window: &Counters,
        tracer: &mut Tracer,
        out: &mut Vec<Metric>,
    ) -> Vec<(String, &'static str)> {
        for name in ["forward", "backward", "optim"] {
            metric(out, format!("nn.{name}_ms"), 0.0, "ms");
        }
        for label in LAYER_LABELS {
            metric(out, format!("nn.layer_ms.{label}"), 0.0, "ms");
        }
        // Served and batched since start-up: the warm-up round is one of
        // hundreds.
        let stats = self.server.stats();
        let waits = tracer.wall_ms("request");
        let values = [
            stats.served() as f64 / stats.batches() as f64,
            stats.batches() as f64 / self.rounds as f64,
            percentile(&waits, 50.0),
            percentile(&waits, 90.0),
            self.server.engine_stats().plan_misses as f64,
        ];
        for ((name, unit), v) in SERVE_METRICS.into_iter().zip(values) {
            metric(out, name, v, unit);
        }
        let sites = self.cfg.sites();
        let lookups = window.plan_hits + window.plan_misses;
        let miss_ratio = window.plan_misses as f64 / lookups.max(1) as f64;
        let backends = replay::engine(tracer, &sites, false, out);
        replay::rebuilds(tracer, &sites, false, miss_ratio, out);
        replay::backward(tracer, &sites, false, out);
        replay::gemm(tracer, &sites, out);
        backends
    }
}
