//! `repro frontier`: the measured CPU-time frontier between the forward
//! backends the engine's `Heuristic` policy chooses among.
//!
//! Every shape is timed through [`Engine::conv_with`] on `im2col-winograd`
//! (Γ), `im2col-gemm-nhwc` and `im2col-indirect`, plan-cached and
//! interleaved (one call of each backend per round, so host drift hits all
//! three alike), in *process* CPU time: a call that fans out over the pool
//! is charged for every lane it keeps busy, which is what a loaded host
//! pays. Each shape is measured twice — on all pool lanes and on one lane
//! (the call nested inside a pool task, as the serving layer runs it) —
//! and each row names the winner per lane setting, the heuristic's pick and
//! the pick's regret: its excess CPU time over the winner, as a fraction of
//! the winner's.
//!
//! The grid is r ∈ {3, 5, 7} × OW ∈ {4, 8, 16, 32, 56} × IC ∈ {4, 16, 32,
//! 64, 96, 128, 256} (N = 1, square, IC = OC, "same" padding), followed by
//! the ResNet-18 (batch 8, 32×32) and VGG16x7 (batch 4, 64×64) width-32
//! layer shapes.

use iwino_core::Epilogue;
use iwino_engine::{Engine, Handle};
use iwino_obs::Json;
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::Mutex;
use std::time::Instant;

/// The forward backends the heuristic chooses among, in table order.
pub const FRONTIER_BACKENDS: [&str; 3] = ["im2col-winograd", "im2col-gemm-nhwc", "im2col-indirect"];

/// One shape of the sweep.
struct FrontierShape {
    label: String,
    shape: ConvShape,
}

/// The grid plus the network layer shapes. `quick` shrinks both to a
/// seconds-long structural run (grid r ∈ {3, 5} × OW ∈ {4, 8} × IC ∈ {16,
/// 96}, networks at batch 1 and reduced width and resolution).
fn frontier_shapes(quick: bool) -> Vec<FrontierShape> {
    let (rs, ows, ics): (&[usize], &[usize], &[usize]) = if quick {
        (&[3, 5], &[4, 8], &[16, 96])
    } else {
        (&[3, 5, 7], &[4, 8, 16, 32, 56], &[4, 16, 32, 64, 96, 128, 256])
    };
    let mut v = Vec::new();
    for &r in rs {
        for &ow in ows {
            for &ic in ics {
                v.push(FrontierShape {
                    label: format!("r{r} {ow}x{ow}x{ic}"),
                    shape: ConvShape::square(1, ow, ic, ic, r),
                });
            }
        }
    }
    let ((rn, rhw, rwidth), (vn, vhw, vwidth)) = if quick {
        ((1, 8, 8), (1, 16, 4))
    } else {
        ((8, 32, 32), (4, 64, 32))
    };
    v.extend(resnet18_shapes(rn, rhw, rwidth));
    v.extend(vgg16x7_shapes(vn, vhw, vwidth));
    v
}

fn padded(n: usize, hw: usize, ic: usize, oc: usize, r: usize, stride: usize) -> ConvShape {
    ConvShape {
        sh: stride,
        sw: stride,
        ..ConvShape::square(n, hw, ic, oc, r)
    }
}

/// The distinct convolutions of `nn::resnet18` at `width`, one per label.
fn resnet18_shapes(n: usize, hw: usize, width: usize) -> Vec<FrontierShape> {
    let mut v = vec![
        ("stem".to_string(), padded(n, hw, 3, width, 3, 1)),
        ("s1.3x3".to_string(), padded(n, hw, width, width, 3, 1)),
    ];
    for stage in 2..=4 {
        let (ic, oc) = (width << (stage - 2), width << (stage - 1));
        let (hw_in, hw_out) = (hw >> (stage - 2), hw >> (stage - 1));
        v.push((format!("s{stage}.down3x3"), padded(n, hw_in, ic, oc, 3, 2)));
        v.push((format!("s{stage}.3x3"), padded(n, hw_out, oc, oc, 3, 1)));
        v.push((format!("s{stage}.ds1x1"), padded(n, hw_in, ic, oc, 1, 2)));
    }
    v.into_iter()
        .map(|(label, shape)| FrontierShape {
            label: format!("resnet18 {label}"),
            shape,
        })
        .collect()
}

/// The distinct convolutions of `nn::vgg16x7` at `width` (the first four
/// 7×7, the rest 3×3), repeated shapes folded into one `cA-B` label.
fn vgg16x7_shapes(n: usize, hw: usize, width: usize) -> Vec<FrontierShape> {
    let mut v: Vec<(usize, usize, ConvShape)> = Vec::new();
    let (mut ic, mut hw, mut idx) = (3, hw, 0);
    for (stage, convs) in [2, 2, 3, 3, 3].into_iter().enumerate() {
        let oc = [1, 2, 4, 8, 8][stage] * width;
        for _ in 0..convs {
            idx += 1;
            let s = padded(n, hw, ic, oc, if idx <= 4 { 7 } else { 3 }, 1);
            match v.last_mut() {
                Some((_, last, prev)) if *prev == s => *last = idx,
                _ => v.push((idx, idx, s)),
            }
            ic = oc;
        }
        hw /= 2;
    }
    v.into_iter()
        .map(|(first, last, shape)| FrontierShape {
            label: if first == last {
                format!("vgg16x7 c{first}")
            } else {
                format!("vgg16x7 c{first}-{last}")
            },
            shape,
        })
        .collect()
}

/// Process CPU time: `sum_exec_runtime` (the first field of
/// `/proc/self/task/<tid>/schedstat`, ns) summed over every thread. Reading
/// `/proc/self/stat` first brings the calling thread's own runtime up to
/// date. `None` where procfs is unavailable.
fn process_cpu_ns() -> Option<u64> {
    std::fs::read("/proc/self/stat").ok()?;
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Nanoseconds on the sweep's clock: process CPU time, or the wall clock
/// since `origin` on hosts without procfs.
fn now_ns(origin: Instant) -> u64 {
    process_cpu_ns().unwrap_or_else(|| origin.elapsed().as_nanos() as u64)
}

/// Run `f` on one lane: as a task of the global pool, so the kernels' own
/// `parallel_for` calls inside it run serially on that lane.
fn on_one_lane<T: Send>(f: impl Fn() -> T + Sync) -> T {
    let out = Mutex::new(None);
    iwino_parallel::global().run(2, &|i| {
        if i == 0 {
            *out.lock().unwrap() = Some(f());
        }
    });
    out.into_inner().unwrap().expect("task 0 ran")
}

/// One lane setting's measurement of a shape.
#[derive(Clone, Debug)]
pub struct LaneTiming {
    /// Median CPU ms per call, per [`FRONTIER_BACKENDS`] entry; `None`
    /// where the backend does not support the shape.
    pub ms: [Option<f64>; 3],
    /// The fastest backend.
    pub winner: &'static str,
    /// `pick_ms / winner_ms - 1` for the heuristic's pick.
    pub regret: f64,
}

impl LaneTiming {
    fn of(&self, backend: &str) -> f64 {
        let i = FRONTIER_BACKENDS
            .iter()
            .position(|&b| b == backend)
            .expect("a frontier backend");
        self.ms[i].expect("the backend supports the shape")
    }

    fn to_json(&self) -> Json {
        let ms = FRONTIER_BACKENDS
            .iter()
            .zip(&self.ms)
            .map(|(&b, ms)| (b, ms.map_or(Json::Null, Json::from)))
            .collect();
        Json::obj(vec![
            ("ms", Json::obj(ms)),
            ("winner", Json::from(self.winner)),
            ("regret", Json::from(self.regret)),
        ])
    }
}

/// One shape: the heuristic's pick and both lane settings' timings.
#[derive(Clone, Debug)]
pub struct FrontierRow {
    pub label: String,
    pub shape: ConvShape,
    pub pick: &'static str,
    pub all_lanes: LaneTiming,
    pub one_lane: LaneTiming,
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct FrontierReport {
    pub clock: &'static str,
    pub lanes: usize,
    pub reps: usize,
    pub rows: Vec<FrontierRow>,
}

impl FrontierReport {
    /// Summed regret over the rows, as a fraction of the picks' summed CPU
    /// time (the definition of perfbench's `engine.heuristic_regret_frac`).
    pub fn regret_frac(&self, one_lane: bool) -> f64 {
        let (mut pick, mut best) = (0.0, 0.0);
        for row in &self.rows {
            let t = if one_lane { &row.one_lane } else { &row.all_lanes };
            pick += t.of(row.pick);
            best += t.of(t.winner);
        }
        if pick > 0.0 {
            (pick - best) / pick
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let s = &r.shape;
                Json::obj(vec![
                    ("label", Json::from(r.label.as_str())),
                    (
                        "shape",
                        Json::obj(vec![
                            ("n", Json::from(s.n)),
                            ("ih", Json::from(s.ih)),
                            ("iw", Json::from(s.iw)),
                            ("ic", Json::from(s.ic)),
                            ("oc", Json::from(s.oc)),
                            ("fh", Json::from(s.fh)),
                            ("fw", Json::from(s.fw)),
                            ("stride", Json::from(s.sh)),
                        ]),
                    ),
                    ("pick", Json::from(r.pick)),
                    ("all_lanes", r.all_lanes.to_json()),
                    ("one_lane", r.one_lane.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::from("frontier")),
            ("clock", Json::from(self.clock)),
            ("lanes", Json::from(self.lanes)),
            ("reps", Json::from(self.reps)),
            ("regret_frac_all_lanes", Json::from(self.regret_frac(false))),
            ("regret_frac_one_lane", Json::from(self.regret_frac(true))),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// Median CPU ms per call of each supported backend on `s`, interleaved
/// over `reps` rounds after one warm-up call each (which builds and caches
/// the plan). A private engine frees the plans on return, so the sweep
/// never holds more than one shape's filter banks.
fn time_backends(s: &ConvShape, reps: usize, one_lane: bool) -> [Option<f64>; 3] {
    let eng = Engine::new();
    let x = Tensor4::<f32>::random(s.x_dims(), 91, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 92, -1.0, 1.0);
    let h = Handle::default();
    let algos: Vec<_> = FRONTIER_BACKENDS
        .iter()
        .map(|&name| Some(eng.algorithm(name).expect("registered")).filter(|a| a.supports(s)))
        .collect();
    let origin = Instant::now();
    let call = |algo| {
        let run = || {
            let t0 = now_ns(origin);
            let y = eng.conv_with(algo, h.filter_id(), &x, &w, s, &Epilogue::None);
            let dt = now_ns(origin).saturating_sub(t0);
            y.expect("a supported backend runs");
            dt as f64 / 1e6
        };
        if one_lane {
            on_one_lane(run)
        } else {
            run()
        }
    };
    let mut samples = vec![Vec::with_capacity(reps); algos.len()];
    for algo in algos.iter().flatten() {
        call(algo);
    }
    for rep in 0..reps {
        // Rotate the order so no backend always runs right after another.
        for k in 0..algos.len() {
            let i = (k + rep) % algos.len();
            if let Some(algo) = &algos[i] {
                samples[i].push(call(algo));
            }
        }
    }
    let mut ms = [None; 3];
    for (slot, mut v) in ms.iter_mut().zip(samples) {
        if !v.is_empty() {
            v.sort_by(f64::total_cmp);
            *slot = Some(v[v.len() / 2]);
        }
    }
    ms
}

fn lane_timing(ms: [Option<f64>; 3], pick: &str) -> LaneTiming {
    let (winner, best) = FRONTIER_BACKENDS
        .iter()
        .zip(ms)
        .filter_map(|(&b, t)| Some((b, t?)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("im2col-indirect supports every shape");
    let mut t = LaneTiming {
        ms,
        winner,
        regret: 0.0,
    };
    if best > 0.0 {
        t.regret = t.of(pick) / best - 1.0;
    }
    t
}

/// Run the sweep. `quick` takes the structural shape set and one timed
/// round; the full sweep takes five rounds per shape and lane setting.
/// `progress` is called after each shape (the CLI prints the row).
pub fn run_frontier(quick: bool, mut progress: impl FnMut(&FrontierRow)) -> FrontierReport {
    let eng = Engine::new();
    let reps = if quick { 1 } else { 5 };
    let mut rows = Vec::new();
    for FrontierShape { label, shape } in frontier_shapes(quick) {
        let pick = eng.heuristic_choice(&shape);
        let all_lanes = lane_timing(time_backends(&shape, reps, false), pick);
        let one_lane = lane_timing(time_backends(&shape, reps, true), pick);
        let row = FrontierRow {
            label,
            shape,
            pick,
            all_lanes,
            one_lane,
        };
        progress(&row);
        rows.push(row);
    }
    FrontierReport {
        clock: if process_cpu_ns().is_some() {
            "process-cpu"
        } else {
            "wall"
        },
        lanes: iwino_parallel::global().threads(),
        reps,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_frontier_table_is_well_formed_and_every_pick_supports_its_shape() {
        let _g = crate::guard();
        let eng = Engine::new();
        let report = run_frontier(true, |_| {});
        assert_eq!(report.rows.len(), frontier_shapes(true).len());
        for row in &report.rows {
            assert!(
                eng.algorithm(row.pick).unwrap().supports(&row.shape),
                "{}: pick {} cannot run it",
                row.label,
                row.pick
            );
            assert!(FRONTIER_BACKENDS.contains(&row.pick), "{}: {}", row.label, row.pick);
            for t in [&row.all_lanes, &row.one_lane] {
                // Γ is absent exactly where it cannot run; the GEMM-class
                // backends run everything.
                assert_eq!(
                    t.ms[0].is_some(),
                    eng.algorithm(FRONTIER_BACKENDS[0]).unwrap().supports(&row.shape)
                );
                assert!(t.ms[1].is_some() && t.ms[2].is_some(), "{}", row.label);
                assert!(t.ms.iter().flatten().all(|ms| ms.is_finite() && *ms >= 0.0));
                assert!(t.ms.iter().flatten().all(|&ms| ms >= t.of(t.winner)));
                assert!(t.regret >= 0.0, "{}", row.label);
            }
        }
        // Strided ResNet layers are in the set and leave Γ out.
        assert!(report
            .rows
            .iter()
            .any(|r| r.label.ends_with("down3x3") && r.all_lanes.ms[0].is_none()));
        let doc = Json::parse(&report.to_json().pretty()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("frontier"));
        match doc.get("rows") {
            Some(Json::Arr(rows)) => assert_eq!(rows.len(), report.rows.len()),
            other => panic!("rows: {other:?}"),
        }
    }
}
