//! Per-layer replays, run after the traced window: each public call of a
//! layer timed on its own, on the workload's shapes, batch and heuristic
//! backend, plus the host ceilings the rates are read against.
//!
//! Every timed call is recorded as a span (named after the public function
//! it calls) in the run's tracer, and every time here is the span's process
//! CPU time, so a replay that fans out over the pool is charged for all of
//! its lanes.

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::workload::{metric, ConvSite, Metric};
use iwino_core::Epilogue;
use iwino_engine::{ConvAlgorithm, Engine, Handle, SelectionPolicy};
use iwino_gemm::{sgemm_prepacked, AllocScratch, PackedB};
use iwino_indirect::IndirectTable;
use iwino_tensor::{ConvShape, Tensor4};
use std::hint::black_box;
use std::sync::Arc;

/// Every `engine.*.<shape>` label any workload reports.
pub const SITE_LABELS: [&str; 20] = [
    "stem",
    "s1.3x3",
    "s2.down3x3",
    "s2.3x3",
    "s2.ds1x1",
    "s3.down3x3",
    "s3.3x3",
    "s3.ds1x1",
    "s4.down3x3",
    "s4.3x3",
    "s4.ds1x1",
    "c1",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6-7",
    "c8",
    "c9-10",
    "c11-13",
];

const WINOGRAD: &str = "im2col-winograd";
const GEMM_NHWC: &str = "im2col-gemm-nhwc";
const INDIRECT: &str = "im2col-indirect";

fn random(dims: [usize; 4], seed: u64) -> Tensor4<f32> {
    Tensor4::from_vec(dims, Rng::new(seed).fill(dims.iter().product(), -1.0, 1.0))
}

/// Median process-CPU ms of one call of `f`, each call a span called
/// `name`, over at least `reps` calls and at least `min_ms` in total.
fn per_call_ms(tr: &mut Tracer, name: &str, reps: usize, min_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < reps || total < min_ms {
        let span = tr.spans.len();
        tr.scoped(name, samples.len() as u64, |_| f());
        let ms = tr.spans[span].cpu_ms();
        samples.push(ms);
        total += ms;
    }
    median(&samples)
}

/// The algorithm `Engine::backward_data` runs for a shape whose forward
/// resolves to `forward`.
fn deconv_algo(eng: &Engine, forward: &Arc<dyn ConvAlgorithm>, s: &ConvShape) -> Arc<dyn ConvAlgorithm> {
    if forward.name() == WINOGRAD && forward.supports(s) {
        Arc::clone(forward)
    } else {
        eng.algorithm("direct").expect("direct is registered")
    }
}

/// `engine.conv_ms` / `engine.gflops` per shape under the heuristic
/// backend, and `engine.heuristic_regret_frac`: every capable backend is
/// replayed per shape, and the heuristic's excess over the fastest is
/// summed over the step. Returns the backend the heuristic picked per shape.
pub fn engine(tr: &mut Tracer, sites: &[ConvSite], bias: bool, out: &mut Vec<Metric>) -> Vec<(String, &'static str)> {
    let (mut chosen_ms, mut regret_ms) = (0.0, 0.0);
    let mut backends = Vec::new();
    for (k, site) in sites.iter().enumerate() {
        let s = &site.shape;
        let eng = Engine::new();
        let x = random(s.x_dims(), 11 + k as u64);
        let w = random(s.w_dims(), 12 + k as u64);
        let epilogue = if bias {
            Epilogue::Bias(Rng::new(13).fill(s.oc, -0.5, 0.5))
        } else {
            Epilogue::None
        };
        let heuristic = eng.heuristic_choice(s);
        let mut heuristic_ms = f64::NAN;
        let mut best = f64::INFINITY;
        for name in eng.algorithms() {
            let algo = eng.algorithm(name).expect("listed backends resolve");
            let h = Handle::new(SelectionPolicy::Force(name.into()));
            if !algo.supports(s) || eng.plan(&algo, &w, s, h.filter_id(), false).is_err() {
                continue;
            }
            let (reps, min_ms) = if name == heuristic { (3, 30.0) } else { (1, 0.0) };
            let ms = per_call_ms(tr, "Engine::conv_with", reps, min_ms, || {
                black_box(
                    eng.conv_with(&algo, h.filter_id(), &x, &w, s, &epilogue)
                        .expect("replayed conv runs"),
                );
            });
            if name == heuristic {
                heuristic_ms = ms;
            }
            best = best.min(ms);
        }
        let calls = site.calls as f64;
        metric(
            out,
            format!("engine.conv_ms.{}", site.label),
            heuristic_ms * calls,
            "ms",
        );
        metric(
            out,
            format!("engine.gflops.{}", site.label),
            s.flops() / heuristic_ms / 1e6,
            "GFLOP/s",
        );
        chosen_ms += heuristic_ms * calls;
        regret_ms += (heuristic_ms - best) * calls;
        backends.push((site.label.clone(), heuristic));
    }
    for label in SITE_LABELS {
        if !sites.iter().any(|s| s.label == label) {
            metric(out, format!("engine.conv_ms.{label}"), 0.0, "ms");
            metric(out, format!("engine.gflops.{label}"), 0.0, "GFLOP/s");
        }
    }
    metric(out, "engine.heuristic_regret_frac", regret_ms / chosen_ms, "frac");
    backends
}

/// Per-step cost of the state the plan cache rebuilds: plan builds,
/// indirection tables and packed filters, each replayed once per call site
/// and scaled by the measured plan miss ratio (1 when every lookup misses,
/// as in training; 0 at steady state). Also the resident indirection-table
/// bytes of the workload's strided shapes.
pub fn rebuilds(tr: &mut Tracer, sites: &[ConvSite], train: bool, miss_ratio: f64, out: &mut Vec<Metric>) {
    let eng = Engine::new();
    let (mut plan_ms, mut table_ms, mut pack_ms, mut table_bytes) = (0.0, 0.0, 0.0, 0usize);
    for site in sites {
        let s = &site.shape;
        let calls = site.calls as f64;
        let algo = eng.resolve(&SelectionPolicy::Heuristic, s).expect("heuristic resolves");
        if algo.name() == INDIRECT {
            table_bytes += IndirectTable::build(s).resident_bytes() * site.calls;
        }
        if miss_ratio == 0.0 {
            continue;
        }
        let w = random(s.w_dims(), 21);
        let mut build = |algo: &Arc<dyn ConvAlgorithm>, deconv: bool| {
            per_call_ms(tr, "Engine::plan", 1, 0.0, || {
                let h = Handle::default();
                black_box(eng.plan(algo, &w, s, h.filter_id(), deconv).expect("plan builds"));
            })
        };
        plan_ms += build(&algo, false) * calls;
        if train {
            plan_ms += build(&deconv_algo(&eng, &algo, s), true) * calls;
        }
        if algo.name() == INDIRECT {
            table_ms += per_call_ms(tr, "IndirectTable::build", 3, 0.0, || {
                black_box(IndirectTable::build(s));
            }) * calls;
        }
        if algo.name() == INDIRECT || algo.name() == GEMM_NHWC {
            let (k, n) = (s.fh * s.fw * s.ic, s.oc);
            let b = Rng::new(22).fill(k * n, -1.0, 1.0);
            pack_ms += per_call_ms(tr, "PackedB::pack", 3, 0.0, || {
                black_box(PackedB::pack(k, n, &b));
            }) * calls;
        }
    }
    metric(out, "engine.plan_build_ms", plan_ms * miss_ratio, "ms");
    metric(out, "indirect.table_build_ms", table_ms * miss_ratio, "ms");
    metric(out, "indirect.table_bytes", table_bytes as f64, "bytes");
    metric(out, "gemm.pack_b_ms", pack_ms * miss_ratio, "ms");
}

/// Training's backward calls per step: `iwino_core::filter_grad` and
/// `Engine::backward_data` (plan warm) over every call site; 0 for
/// workloads that never call them.
pub fn backward(tr: &mut Tracer, sites: &[ConvSite], train: bool, out: &mut Vec<Metric>) {
    let (mut wgrad_ms, mut dgrad_ms) = (0.0, 0.0);
    if train {
        let eng = Engine::new();
        for (k, site) in sites.iter().enumerate() {
            let s = &site.shape;
            let x = random(s.x_dims(), 31 + k as u64);
            let dy = random(s.y_dims(), 32 + k as u64);
            let w = random(s.w_dims(), 33 + k as u64);
            let calls = site.calls as f64;
            wgrad_ms += per_call_ms(tr, "filter_grad", 2, 20.0, || {
                black_box(iwino_core::filter_grad(&x, &dy, s));
            }) * calls;
            let h = Handle::default();
            eng.backward_data(&h, &dy, &w, s).expect("backward-data plan builds");
            dgrad_ms += per_call_ms(tr, "Engine::backward_data", 2, 20.0, || {
                black_box(eng.backward_data(&h, &dy, &w, s).expect("backward-data runs"));
            }) * calls;
        }
    }
    metric(out, "core.filter_grad_ms", wgrad_ms, "ms");
    metric(out, "core.backward_data_ms", dgrad_ms, "ms");
}

/// `gemm.gflops`: `sgemm_prepacked` on the GEMM dimensions of the
/// workload's first deep-K shape (the one the heuristic sends to
/// im2col-gemm-nhwc): M = N·OH·OW, K = FH·FW·IC, N = OC.
pub fn gemm(tr: &mut Tracer, sites: &[ConvSite], out: &mut Vec<Metric>) {
    let eng = Engine::new();
    let gflops = sites
        .iter()
        .find(|site| eng.heuristic_choice(&site.shape) == GEMM_NHWC)
        .map_or(0.0, |site| {
            let s = &site.shape;
            sgemm_rate(tr, s.n * s.oh() * s.ow(), s.fh * s.fw * s.ic, s.oc, 50.0)
        });
    metric(out, "gemm.gflops", gflops, "GFLOP/s");
}

/// GFLOP per process-CPU second of `C[m×n] = A[m×k]·B` with B prepacked.
fn sgemm_rate(tr: &mut Tracer, m: usize, k: usize, n: usize, min_ms: f64) -> f64 {
    let mut rng = Rng::new(41);
    let a = rng.fill(m * k, -1.0, 1.0);
    let pb = PackedB::pack(k, n, &rng.fill(k * n, -1.0, 1.0));
    let mut c = vec![0.0f32; m * n];
    let ms = per_call_ms(tr, "sgemm_prepacked", 5, min_ms, || {
        sgemm_prepacked(m, &a, &pb, &mut c, false, &AllocScratch);
        black_box(&c);
    });
    2.0 * (m * n * k) as f64 / ms / 1e6
}

/// Host ceilings measured in the same run: the packed SGEMM on one
/// cache-resident MC×KC block (a single lane: one row block), and
/// single-thread streaming bandwidth of `a = s·b` over two 256 MiB arrays,
/// sized to exceed the last-level cache.
pub fn host(tr: &mut Tracer, out: &mut Vec<Metric>) {
    let peak = sgemm_rate(tr, 72, 256, 256, 200.0);
    metric(out, "host.fma_peak_gflops", peak, "GFLOP/s");
    let len = 64 << 20; // floats: 256 MiB per array
    let b = vec![1.5f32; len];
    let mut a = vec![0.0f32; len];
    let mut pass = 0.0f32;
    // Best of three passes; the first also faults `a` in.
    let ms = (0..3)
        .map(|_| {
            pass += 1.0;
            per_call_ms(tr, "stream", 1, 0.0, || {
                for (d, &v) in a.iter_mut().zip(&b) {
                    *d = pass * v;
                }
                black_box(&a);
            })
        })
        .fold(f64::INFINITY, f64::min);
    // Bytes read plus bytes written per pass, as STREAM counts them.
    metric(out, "host.stream_gbps", (2 * len * 4) as f64 / ms / 1e6, "GB/s");
}
