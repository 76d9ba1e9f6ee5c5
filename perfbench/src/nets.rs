//! The `nn` workloads: ResNet-18 inference and training, VGG16x7
//! inference, driven through `Sequential` / `Layer` / `Optimizer` as one
//! closed-loop caller.

use crate::check;
use crate::replay;
use crate::serving::SERVE_METRICS;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::workload::{metric, ConvSite, Counters, Metric, Ops, Size, Workload};
use iwino_engine::Engine;
use iwino_nn::{resnet18, vgg16x7, Backend, Layer, Optimizer, Sequential, Sgdm, SoftmaxCrossEntropy};
use iwino_tensor::{ConvShape, Tensor4};

/// Input batches per pool; batch 0 is the fixed check batch.
const POOL: usize = 8;
/// Seed of the check batch, independent of the run's `--seed`.
const CHECK_SEED: u64 = 0x5eed_c4ec;
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;

/// Every `nn.layer_ms.<label>` any workload reports (ResNet stem and
/// blocks, VGG convolutions), so each traced run emits the same names.
pub const LAYER_LABELS: [&str; 22] = [
    "stem", "block1", "block2", "block3", "block4", "block5", "block6", "block7", "block8", "conv1", "conv2", "conv3",
    "conv4", "conv5", "conv6", "conv7", "conv8", "conv9", "conv10", "conv11", "conv12", "conv13",
];

#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    pub name: &'static str,
    pub vgg: bool,
    pub train: bool,
    pub batch: usize,
    pub hw: usize,
    pub width: usize,
    pub classes: usize,
}

impl NetConfig {
    pub fn new(workload: &str, size: Size) -> Option<NetConfig> {
        let tiny = size == Size::Tiny;
        let resnet = |name, train, batch| NetConfig {
            name,
            vgg: false,
            train,
            batch: if tiny { 2 } else { batch },
            hw: if tiny { 16 } else { 32 },
            width: if tiny { 8 } else { 32 },
            classes: 10,
        };
        Some(match workload {
            "resnet18-infer" => resnet("resnet18-infer", false, 8),
            "resnet18-train" => resnet("resnet18-train", true, 4),
            "vgg16x7-infer" => NetConfig {
                name: "vgg16x7-infer",
                vgg: true,
                train: false,
                batch: if tiny { 1 } else { 4 },
                hw: if tiny { 32 } else { 64 },
                width: if tiny { 4 } else { 32 },
                classes: if tiny { 10 } else { 100 },
            },
            _ => return None,
        })
    }

    fn model(&self) -> Sequential {
        if self.vgg {
            vgg16x7(self.hw, 3, self.classes, self.width, Backend::ImcolWinograd)
        } else {
            resnet18(3, self.classes, self.width, Backend::ImcolWinograd)
        }
    }

    /// The distinct forward convolution shapes one step runs, derived from
    /// the architecture (the layers keep their convolutions private).
    pub fn sites(&self) -> Vec<ConvSite> {
        if self.vgg {
            vgg_sites(self)
        } else {
            resnet_sites(self)
        }
    }
}

fn conv(n: usize, hw: usize, ic: usize, oc: usize, f: usize, stride: usize) -> ConvShape {
    ConvShape {
        sh: stride,
        sw: stride,
        ph: f / 2,
        pw: f / 2,
        ..ConvShape::square(n, hw, ic, oc, f)
    }
}

fn resnet_sites(c: &NetConfig) -> Vec<ConvSite> {
    let site = |label: String, shape, calls| ConvSite { label, shape, calls };
    let (n, w) = (c.batch, c.width);
    let mut v = vec![
        site("stem".into(), conv(n, c.hw, 3, w, 3, 1), 1),
        site("s1.3x3".into(), conv(n, c.hw, w, w, 3, 1), 4),
    ];
    for stage in 2..=4 {
        let (ic, oc) = (w << (stage - 2), w << (stage - 1));
        let (hw_in, hw) = (c.hw >> (stage - 2), c.hw >> (stage - 1));
        v.push(site(format!("s{stage}.down3x3"), conv(n, hw_in, ic, oc, 3, 2), 1));
        v.push(site(format!("s{stage}.3x3"), conv(n, hw, oc, oc, 3, 1), 3));
        v.push(site(format!("s{stage}.ds1x1"), conv(n, hw_in, ic, oc, 1, 2), 1));
    }
    v
}

fn vgg_sites(c: &NetConfig) -> Vec<ConvSite> {
    let stage_ch = [1, 2, 4, 8, 8].map(|m| m * c.width);
    let mut v: Vec<(usize, usize, ConvShape)> = Vec::new();
    let (mut ic, mut hw, mut idx) = (3, c.hw, 0);
    for (stage, convs) in [2, 2, 3, 3, 3].into_iter().enumerate() {
        for _ in 0..convs {
            idx += 1;
            let f = if idx <= 4 { 7 } else { 3 };
            let s = conv(c.batch, hw, ic, stage_ch[stage], f, 1);
            match v.last_mut() {
                Some((_, last, shape)) if *shape == s => *last = idx,
                _ => v.push((idx, idx, s)),
            }
            ic = stage_ch[stage];
        }
        hw /= 2;
    }
    v.into_iter()
        .map(|(first, last, shape)| ConvSite {
            label: if first == last {
                format!("c{first}")
            } else {
                format!("c{first}-{last}")
            },
            shape,
            calls: last - first + 1,
        })
        .collect()
}

/// Seeded input pool. Training images are class prototypes plus noise so
/// the loss has something to learn; inference images are uniform noise.
pub struct NetInputs {
    pub pool: Vec<(Tensor4<f32>, Vec<usize>)>,
}

impl NetInputs {
    pub fn generate(c: &NetConfig, seed: u64) -> NetInputs {
        let dims = [c.batch, c.hw, c.hw, 3];
        let len = dims.iter().product::<usize>() / c.batch;
        let mut protos = Rng::new(CHECK_SEED ^ 0x9047);
        let protos: Vec<Vec<f32>> = (0..c.classes).map(|_| protos.fill(len, -1.0, 1.0)).collect();
        let batch = |rng: &mut Rng| {
            let labels: Vec<usize> = (0..c.batch).map(|_| rng.below(c.classes)).collect();
            let mut data = Vec::with_capacity(len * c.batch);
            for &l in &labels {
                if c.train {
                    data.extend(protos[l].iter().map(|&p| 0.6 * p + 0.4 * rng.uniform(-1.0, 1.0)));
                } else {
                    data.extend(rng.fill(len, -1.0, 1.0));
                }
            }
            (Tensor4::from_vec(dims, data), labels)
        };
        let mut check = Rng::new(CHECK_SEED);
        let mut rng = Rng::new(seed);
        let mut pool = vec![batch(&mut check)];
        pool.extend((1..POOL).map(|_| batch(&mut rng)));
        NetInputs { pool }
    }
}

/// Label each top-level layer: conv-bearing ones by role, the rest "aux".
fn layer_labels(model: &Sequential, vgg: bool) -> Vec<String> {
    let (mut blocks, mut convs) = (0, 0);
    model
        .layers
        .iter()
        .map(|l| {
            let name = l.name();
            if name.starts_with("BasicBlock") {
                blocks += 1;
                format!("block{blocks}")
            } else if name.starts_with("Conv2d") {
                convs += 1;
                if vgg {
                    format!("conv{convs}")
                } else {
                    "stem".to_string()
                }
            } else {
                "aux".to_string()
            }
        })
        .collect()
}

pub struct NetBench {
    cfg: NetConfig,
    model: Sequential,
    labels: Vec<String>,
    inputs: NetInputs,
    opt: Sgdm,
    /// Logits first seen for each pool batch; later visits must agree.
    seen: Vec<Option<Vec<f32>>>,
    reference: Vec<f32>,
    losses: Vec<f32>,
    /// Self-test hook: perturb every output before it is checked.
    corrupt: bool,
}

impl NetBench {
    /// Build the model and run the warm-up steps that build every plan.
    pub fn setup(cfg: NetConfig, size: Size, inputs: NetInputs, corrupt: bool) -> NetBench {
        let model = cfg.model();
        let labels = layer_labels(&model, cfg.vgg);
        let mut b = NetBench {
            cfg,
            model,
            labels,
            seen: vec![None; inputs.pool.len()],
            inputs,
            opt: Sgdm::new(LR, MOMENTUM),
            reference: check::recorded(cfg.name, size),
            losses: Vec::new(),
            corrupt,
        };
        for _ in 0..2 {
            if cfg.train {
                b.train_step(0, 0, None);
            } else {
                let x = &b.inputs.pool[0].0;
                b.model.forward(x, false);
            }
        }
        b
    }

    fn forward(&mut self, x: &Tensor4<f32>, train: bool, step: u64, tracer: Option<&mut Tracer>) -> Tensor4<f32> {
        let Some(tr) = tracer else {
            return self.model.forward(x, train);
        };
        let (layers, labels) = (&mut self.model.layers, &self.labels);
        tr.scoped("forward", step, |tr| {
            let mut cur = x.clone();
            for (l, label) in layers.iter_mut().zip(labels) {
                cur = tr.scoped(&format!("layer.{label}"), step, |_| l.forward(&cur, train));
            }
            cur
        })
    }

    fn train_step(&mut self, i: usize, step: u64, mut tracer: Option<&mut Tracer>) -> f32 {
        let x = self.inputs.pool[i].0.clone();
        let logits = self.forward(&x, true, step, tracer.as_deref_mut());
        let (loss, dlogits) = SoftmaxCrossEntropy::forward_backward(&logits, &self.inputs.pool[i].1);
        let (model, opt, labels) = (&mut self.model, &mut self.opt, &self.labels);
        match tracer {
            None => {
                model.backward(&dlogits);
                let mut params = model.params();
                opt.step(&mut params);
                opt.zero_grad(&mut params);
            }
            Some(tr) => {
                tr.scoped("backward", step, |tr| {
                    let mut cur = dlogits;
                    for (l, label) in model.layers.iter_mut().zip(labels).rev() {
                        cur = tr.scoped(&format!("layer.{label}"), step, |_| l.backward(&cur));
                    }
                });
                tr.scoped("optim", step, |_| {
                    let mut params = model.params();
                    opt.step(&mut params);
                    opt.zero_grad(&mut params);
                });
            }
        }
        loss
    }

    /// Loss and per-parameter gradient norms of one training step of a
    /// fresh model on the check batch.
    fn train_reference(&self) -> Vec<f32> {
        let mut model = self.cfg.model();
        let (x, labels) = &self.inputs.pool[0];
        let logits = model.forward(x, true);
        let (loss, dlogits) = SoftmaxCrossEntropy::forward_backward(&logits, labels);
        model.backward(&dlogits);
        let norm = |g: &[f32]| g.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt() as f32;
        let mut values = vec![loss];
        values.extend(model.params().iter().map(|p| norm(&p.grad)));
        values
    }

    /// The values `--record-reference` writes for this workload.
    pub fn reference_values(&mut self) -> Vec<f32> {
        if self.cfg.train {
            self.train_reference()
        } else {
            let x = self.inputs.pool[0].0.clone();
            self.model.forward(&x, false).as_slice().to_vec()
        }
    }
}

impl Workload for NetBench {
    fn images_per_step(&self) -> usize {
        self.cfg.batch
    }

    fn step(&mut self, step: u64, tracer: Option<&mut Tracer>) -> Ops {
        let i = step as usize % self.inputs.pool.len();
        if self.cfg.train {
            let loss = match tracer {
                Some(tr) => tr.scoped("step", step, |tr| self.train_step(i, step, Some(tr))),
                None => self.train_step(i, step, None),
            };
            self.losses.push(loss);
            return Ops::one(loss.is_finite());
        }
        let x = self.inputs.pool[i].0.clone();
        let logits = match tracer {
            Some(tr) => tr.scoped("step", step, |tr| self.forward(&x, false, step, Some(tr))),
            None => self.forward(&x, false, step, None),
        };
        let mut got = logits.as_slice().to_vec();
        if self.corrupt {
            got[0] += 1.0;
        }
        let want = if i == 0 {
            &self.reference
        } else {
            self.seen[i].get_or_insert_with(|| got.clone())
        };
        let ok = check::agrees(&got, want);
        if !ok {
            eprintln!(
                "{}: step {step} logits disagree with the reference for pool batch {i}",
                self.cfg.name
            );
        }
        Ops::one(ok)
    }

    fn counters(&self) -> Counters {
        Counters::of(&Engine::global().stats())
    }

    fn finish(&mut self, steps: u64, window: &Counters) -> Ops {
        let mut ops = Ops::default();
        if self.cfg.train {
            // The loss must fall: the last pass over the pool against the first.
            let k = self.inputs.pool.len().min(self.losses.len() / 2).max(1);
            let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
            let (first, last) = (mean(&self.losses[..k]), mean(&self.losses[self.losses.len() - k..]));
            let falls = last < first;
            if !falls {
                eprintln!(
                    "{}: loss did not fall across the window ({first} -> {last})",
                    self.cfg.name
                );
            }
            ops.add(Ops::one(falls));
            let mut got = self.train_reference();
            if self.corrupt {
                got[0] += 1.0;
            }
            let ok = check::agrees_relative(&got, &self.reference);
            if !ok {
                eprintln!(
                    "{}: first-step loss/gradients disagree with the recorded reference",
                    self.cfg.name
                );
            }
            ops.add(Ops::one(ok));
        } else {
            // An inference run must stay at plan-cache steady state; a
            // stray `params()` call would silently make it a rebuild run.
            let ok = window.plan_misses == 0;
            if !ok {
                eprintln!(
                    "{}: {} plan misses over {steps} timed steps; inference must run at 0",
                    self.cfg.name, window.plan_misses
                );
            }
            ops.add(Ops::one(ok));
        }
        ops
    }

    fn layer_metrics(
        &mut self,
        steps: u64,
        window: &Counters,
        tracer: &mut Tracer,
        out: &mut Vec<Metric>,
    ) -> Vec<(String, &'static str)> {
        let per_step = |ms: f64| ms / steps as f64;
        for name in ["forward", "backward", "optim"] {
            metric(out, format!("nn.{name}_ms"), per_step(tracer.cpu_ms(name)), "ms");
        }
        for label in LAYER_LABELS {
            metric(
                out,
                format!("nn.layer_ms.{label}"),
                per_step(tracer.cpu_ms(&format!("layer.{label}"))),
                "ms",
            );
        }
        let sites = self.cfg.sites();
        let lookups = window.plan_hits + window.plan_misses;
        let miss_ratio = if lookups == 0 {
            0.0
        } else {
            window.plan_misses as f64 / lookups as f64
        };
        for (name, unit) in SERVE_METRICS {
            metric(out, name, 0.0, unit);
        }
        let backends = replay::engine(tracer, &sites, self.cfg.vgg, out);
        replay::rebuilds(tracer, &sites, self.cfg.train, miss_ratio, out);
        replay::backward(tracer, &sites, self.cfg.train, out);
        replay::gemm(tracer, &sites, out);
        backends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_tables_count_every_convolution() {
        let r = NetConfig::new("resnet18-infer", Size::Full).unwrap();
        let sites = r.sites();
        assert_eq!(sites.len(), 11);
        assert_eq!(sites.iter().map(|s| s.calls).sum::<usize>(), 20);
        let v = NetConfig::new("vgg16x7-infer", Size::Full).unwrap().sites();
        assert_eq!(v.iter().map(|s| s.calls).sum::<usize>(), 13);
        let labels: Vec<&str> = v.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["c1", "c2", "c3", "c4", "c5", "c6-7", "c8", "c9-10", "c11-13"]);
        assert_eq!(v.iter().filter(|s| s.shape.fh == 7).count(), 4);
    }

    #[test]
    fn layer_labels_name_every_conv_bearing_layer() {
        for (w, n) in [("resnet18-infer", 9), ("vgg16x7-infer", 13)] {
            let c = NetConfig::new(w, Size::Tiny).unwrap();
            let labels = layer_labels(&c.model(), c.vgg);
            let named: Vec<&String> = labels.iter().filter(|l| *l != "aux").collect();
            assert_eq!(named.len(), n);
            assert!(named.iter().all(|l| LAYER_LABELS.contains(&l.as_str())));
        }
    }
}
