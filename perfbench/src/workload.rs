//! What every workload shares: the closed-loop timed window, operation
//! accounting, engine counters and the metric record.

use crate::clock::{self, CpuClock};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use iwino_engine::EngineStats;
use iwino_tensor::ConvShape;
use std::time::{Duration, Instant};

/// Full-size workloads are what the benchmark measures; tiny ones exist so
/// the self-tests can run every workload end to end in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Operations attempted and failed (a step, request or check whose output
/// is wrong counts as failed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn one(ok: bool) -> Ops {
        Ops {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    pub fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// One distinct convolution shape of a workload: its metric label, its
/// geometry and how many times one step runs it forward.
#[derive(Clone, Debug)]
pub struct ConvSite {
    pub label: String,
    pub shape: ConvShape,
    pub calls: usize,
}

/// Plan-cache and arena counters of the engine a workload runs on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub arena_misses: u64,
    pub plan_resident_bytes: usize,
    pub arena_high_water_bytes: u64,
}

impl Counters {
    pub fn of(s: &EngineStats) -> Counters {
        Counters {
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
            plan_evictions: s.plan_evictions,
            arena_misses: s.arena.misses,
            plan_resident_bytes: s.plan_resident_bytes,
            arena_high_water_bytes: s.arena.bytes_high_water,
        }
    }

    /// Monotonic counts since `before`; gauges keep their current value.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            plan_evictions: self.plan_evictions - before.plan_evictions,
            arena_misses: self.arena_misses - before.arena_misses,
            ..*self
        }
    }
}

/// A workload after set-up: steps it in a closed loop and reports what the
/// shared measuring loop ([`measure`]) cannot know.
pub trait Workload {
    fn images_per_step(&self) -> usize;

    /// Run one step; with a tracer, record spans around each public call.
    fn step(&mut self, step: u64, tracer: Option<&mut Tracer>) -> Ops;

    fn counters(&self) -> Counters;

    /// Checks that need the whole window (and may do reference work):
    /// run after peak RSS has been read. `window` holds the engine
    /// counters accumulated over the timed steps.
    fn finish(&mut self, steps: u64, window: &Counters) -> Ops;

    /// Per-layer metrics specific to this workload (replays, serve
    /// counters), appended after the traced window; the replays record
    /// their spans in `tracer`. Returns the backend the heuristic picked
    /// for each convolution shape.
    fn layer_metrics(
        &mut self,
        steps: u64,
        window: &Counters,
        tracer: &mut Tracer,
        out: &mut Vec<Metric>,
    ) -> Vec<(String, &'static str)>;
}

/// Fewest steps a window holds, so that a p90 has ten samples beyond it;
/// a window outlasts `--seconds` only when its steps are that slow.
const MIN_STEPS: u64 = 100;

/// How often the host-speed probe runs inside a timed window.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Raw per-step samples of one timed window.
pub struct Window {
    pub steps: u64,
    pub images: u64,
    pub ops: Ops,
    /// Process CPU summed over the steps (probes excluded).
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub step_cpu_ms: Vec<f64>,
    pub step_wall_ms: Vec<f64>,
    /// Per-lane CPU ms of each host-speed probe taken in the window.
    pub probe_ms: Vec<f64>,
    pub steal_frac: f64,
    pub counters: Counters,
}

impl Window {
    /// Factor that converts this window's CPU time to reference-host CPU
    /// time: below 1 when the probe ran slower than its reference.
    pub fn host_scale(&self) -> f64 {
        clock::PROBE_REFERENCE_MS / median(&self.probe_ms)
    }

    /// Images per process-CPU second, as measured.
    pub fn raw_img_per_cpu_s(&self) -> f64 {
        self.images as f64 / (self.cpu_ns as f64 / 1e9)
    }

    /// Images per reference-host CPU second.
    pub fn img_per_cpu_s(&self) -> f64 {
        self.raw_img_per_cpu_s() / self.host_scale()
    }

    /// Percentile `p` of reference-host CPU ms per step.
    pub fn step_cpu_ms(&self, p: f64) -> f64 {
        percentile(&self.step_cpu_ms, p) * self.host_scale()
    }

    pub fn cpu_per_wall(&self) -> f64 {
        self.cpu_ns as f64 / self.wall_ns as f64
    }
}

/// Step `w` back to back until `seconds` of wall time have passed and at
/// least [`MIN_STEPS`] steps have run, sampling process CPU and wall time
/// around every step. Between steps, every [`PROBE_EVERY`], the host-speed
/// probe runs; its CPU time is not part of any step.
pub fn measure(w: &mut dyn Workload, seconds: f64, mut tracer: Option<&mut Tracer>) -> Window {
    let lanes = iwino_parallel::global().threads();
    let mut clock = CpuClock::new();
    let c_before = w.counters();
    let jiffies = clock::host_jiffies();
    let mut win = Window {
        steps: 0,
        images: 0,
        ops: Ops::default(),
        cpu_ns: 0,
        wall_ns: 0,
        step_cpu_ms: Vec::new(),
        step_wall_ms: Vec::new(),
        probe_ms: vec![clock::host_probe(lanes)],
        steal_frac: 0.0,
        counters: Counters::default(),
    };
    let start = Instant::now();
    let mut last_probe = start;
    let mut cpu = clock.now();
    loop {
        let t = Instant::now();
        let ops = w.step(win.steps, tracer.as_deref_mut());
        let wall = t.elapsed();
        let now = clock.now();
        win.step_cpu_ms.push(now.saturating_sub(cpu) as f64 / 1e6);
        win.step_wall_ms.push(wall.as_secs_f64() * 1e3);
        win.cpu_ns += now.saturating_sub(cpu);
        cpu = now;
        win.ops.add(ops);
        win.steps += 1;
        win.images += w.images_per_step() as u64;
        if start.elapsed().as_secs_f64() >= seconds && win.steps >= MIN_STEPS {
            break;
        }
        if last_probe.elapsed() >= PROBE_EVERY {
            win.probe_ms.push(clock::host_probe(lanes));
            last_probe = Instant::now();
            cpu = clock.now();
        }
    }
    win.wall_ns = start.elapsed().as_nanos() as u64;
    win.steal_frac = clock::steal_frac(jiffies, clock::host_jiffies());
    win.counters = w.counters().since(&c_before);
    win
}
