//! End-to-end and per-layer benchmark of the convolution stack.
//!
//! ```text
//! iwino-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--size full|tiny] [--record-reference <file>] [--corrupt-output]
//! ```
//!
//! Workloads: `resnet18-infer`, `resnet18-train`, `vgg16x7-infer` (through
//! `nn` and the global `engine`) and `serve-resnet-stages` (through
//! `serve`). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The line before it is the run record (ISA, pinned lanes, steal, CPU per
//! wall second, backend per shape). See `perfbench/README.md`.

mod check;
mod clock;
mod nets;
mod replay;
mod serving;
mod stats;
mod trace;
mod workload;

use nets::{NetBench, NetConfig, NetInputs};
use serving::{LoadConfig, ServeBench, ServeInputs};
use stats::{median, percentile};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::{measure, metric, Metric, Ops, Size, Workload};

const WORKLOADS: [&str; 4] = [
    "resnet18-infer",
    "resnet18-train",
    "vgg16x7-infer",
    "serve-resnet-stages",
];
/// Extra fresh-process set-ups per untraced run; `setup_s` is the median
/// over these and the run's own set-up.
const SETUP_CHILDREN: usize = 4;
/// The obs stages reported as `core.stage_ms.<stage>`.
const CORE_STAGES: [iwino_obs::Stage; 6] = [
    iwino_obs::Stage::InputTransform,
    iwino_obs::Stage::OuterProduct,
    iwino_obs::Stage::OutputTransform,
    iwino_obs::Stage::FilterTransform,
    iwino_obs::Stage::GemmRemainder,
    iwino_obs::Stage::Epilogue,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    setup_only: bool,
    record: Option<String>,
    /// Perturb every output before its check (for the self-tests).
    corrupt: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            size: Size::Full,
            setup_only: false,
            record: None,
            corrupt: false,
        };
        let mut seen_seconds = false;
        while let Some(flag) = it.next() {
            if flag == "--setup-only" || flag == "--corrupt-output" {
                a.setup_only |= flag == "--setup-only";
                a.corrupt |= flag == "--corrupt-output";
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value,
                "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
                "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad("a number"))?;
                    seen_seconds = a.seconds > 0.0;
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--size" => {
                    a.size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(bad("full or tiny")),
                    }
                }
                "--record-reference" => a.record = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !seen_seconds && !a.setup_only && a.record.is_none() {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

/// One set-up's cost: wall seconds, and process-CPU seconds converted to
/// the reference host speed by a probe taken right after it.
#[derive(Clone, Copy)]
struct SetupTime {
    wall_s: f64,
    cpu_s: f64,
}

/// Run `build` and time it as one set-up.
fn timed<T>(build: impl FnOnce() -> T) -> (T, SetupTime) {
    let mut clock = clock::CpuClock::new();
    let (t0, c0) = (Instant::now(), clock.now());
    let built = build();
    let (wall_s, cpu_ns) = (t0.elapsed().as_secs_f64(), clock.now() - c0);
    let probe = clock::host_probe(iwino_parallel::global().threads());
    let cpu_s = cpu_ns as f64 / 1e9 * clock::PROBE_REFERENCE_MS / probe;
    (built, SetupTime { wall_s, cpu_s })
}

/// Generate the seeded inputs, then build the workload and time its set-up
/// (construction plus the warm-up that builds every plan). With `checked`,
/// the reference outputs are computed after the clocks stop.
fn setup(args: &Args, checked: bool) -> (Box<dyn Workload>, SetupTime) {
    if args.workload == "serve-resnet-stages" {
        let cfg = LoadConfig::new(args.size);
        let inputs = ServeInputs::generate(&cfg, args.seed);
        let ((mut bench, weights), time) = timed(|| ServeBench::setup(cfg, inputs, args.corrupt));
        if checked {
            bench.compute_references(&weights);
        }
        (Box::new(bench), time)
    } else {
        let cfg = NetConfig::new(&args.workload, args.size).expect("workload validated by Args::parse");
        let inputs = NetInputs::generate(&cfg, args.seed);
        let (bench, time) = timed(|| NetBench::setup(cfg, args.size, inputs, args.corrupt));
        (Box::new(bench), time)
    }
}

/// Time `SETUP_CHILDREN` set-ups, each in a fresh process of this binary.
fn child_setups(args: &Args) -> Result<Vec<SetupTime>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
                .args(["--size", args.size.name(), "--setup-only"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let parsed = text.lines().find_map(|l| {
                let mut v = l.strip_prefix("setup ")?.split_whitespace().map(str::parse::<f64>);
                Some(SetupTime {
                    wall_s: v.next()?.ok()?,
                    cpu_s: v.next()?.ok()?,
                })
            });
            parsed
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("set-up child failed: {}", out.status))
        })
        .collect()
}

struct Outcome {
    ops: Ops,
    metrics: Vec<Metric>,
    record: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setups = if args.trace { Vec::new() } else { child_setups(args)? };
    let (mut bench, own_setup) = setup(args, true);
    let lanes = iwino_parallel::global().threads();
    if lanes != nproc {
        return Err(format!("pool has {lanes} lanes, expected nproc = {nproc}"));
    }
    let dispatch = iwino_simd::dispatch_info();
    let mut out = Outcome {
        ops: Ops::default(),
        metrics: Vec::new(),
        record: vec![
            ("workload".to_string(), json_str(&args.workload)),
            ("seed".into(), args.seed.to_string()),
            ("trace".into(), args.trace.to_string()),
            ("size".into(), json_str(args.size.name())),
            ("isa".into(), json_str(dispatch.isa)),
            ("lane_width".into(), dispatch.lane_width.to_string()),
            ("pool_lanes".into(), lanes.to_string()),
            ("nproc".into(), nproc.to_string()),
        ],
    };
    if args.trace {
        traced_run(args, bench.as_mut(), &mut out)?;
    } else {
        let mut all_setups = setups;
        all_setups.push(own_setup);
        end_to_end_run(args, bench.as_mut(), &all_setups, &mut out);
    }
    Ok(out)
}

fn list(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(f64::to_string).collect::<Vec<_>>().join(","))
}

/// The untraced run: one timed window, then the end-to-end metrics.
fn end_to_end_run(args: &Args, bench: &mut dyn Workload, setups: &[SetupTime], out: &mut Outcome) {
    let win = measure(bench, args.seconds, None);
    let rss = clock::peak_rss_mib();
    out.ops = win.ops;
    out.ops.add(bench.finish(win.steps, &win.counters));
    let setup_cpu: Vec<f64> = setups.iter().map(|t| t.cpu_s).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|t| t.wall_s).collect();
    for (name, value, unit) in [
        ("setup_s", median(&setup_cpu), "s"),
        ("img_per_cpu_s", win.img_per_cpu_s(), "1/s"),
        ("step_cpu_ms_p50", win.step_cpu_ms(50.0), "ms"),
        ("step_cpu_ms_p90", win.step_cpu_ms(90.0), "ms"),
        ("peak_rss_mb", rss, "MiB"),
    ] {
        metric(&mut out.metrics, name, value, unit);
    }
    let raw_p50 = percentile(&win.step_cpu_ms, 50.0);
    let raw_p90 = percentile(&win.step_cpu_ms, 90.0);
    out.record.extend([
        ("steps".into(), win.steps.to_string()),
        ("steal_frac".into(), win.steal_frac.to_string()),
        ("cpu_per_wall".into(), win.cpu_per_wall().to_string()),
        ("probe_ms_p50".into(), median(&win.probe_ms).to_string()),
        ("host_scale".into(), win.host_scale().to_string()),
        ("raw_img_per_cpu_s".into(), win.raw_img_per_cpu_s().to_string()),
        ("raw_step_cpu_ms_p50".into(), raw_p50.to_string()),
        ("raw_step_cpu_ms_p90".into(), raw_p90.to_string()),
        ("step_wall_ms_p50".into(), median(&win.step_wall_ms).to_string()),
        ("setup_cpu_s".into(), list(&setup_cpu)),
        ("setup_wall_s".into(), list(&setup_wall)),
    ]);
}

/// The traced run: half the window untraced, half with obs and spans on,
/// then the replays and host ceilings; emits the per-layer metrics.
fn traced_run(args: &Args, bench: &mut dyn Workload, out: &mut Outcome) -> Result<(), String> {
    let plain = measure(bench, args.seconds / 2.0, None);
    iwino_obs::reset();
    iwino_parallel::reset_global_stats();
    iwino_obs::set_enabled(true);
    let mut tracer = Tracer::new();
    let traced = measure(bench, args.seconds / 2.0, Some(&mut tracer));
    iwino_obs::set_enabled(false);
    let snap = iwino_obs::snapshot();
    let pool = iwino_obs::pool_report().unwrap_or_default();
    out.ops = plain.ops;
    out.ops.add(traced.ops);
    out.ops.add(bench.finish(plain.steps + traced.steps, &traced.counters));

    let c = &traced.counters;
    let per_step = |v: f64| v / traced.steps as f64;
    let mib = |b: f64| b / (1024.0 * 1024.0);
    let overhead = 1.0 - traced.img_per_cpu_s() / plain.img_per_cpu_s();
    for (name, value, unit) in [
        ("engine.plan_hits_per_step", per_step(c.plan_hits as f64), "count"),
        ("engine.plan_misses_per_step", per_step(c.plan_misses as f64), "count"),
        (
            "engine.plan_evictions_per_step",
            per_step(c.plan_evictions as f64),
            "count",
        ),
        ("engine.plan_resident_mb", mib(c.plan_resident_bytes as f64), "MiB"),
        ("engine.arena_misses_per_step", per_step(c.arena_misses as f64), "count"),
        (
            "engine.arena_high_water_mb",
            mib(c.arena_high_water_bytes as f64),
            "MiB",
        ),
        ("parallel.jobs_per_step", per_step(pool.jobs as f64), "count"),
        ("parallel.busy_frac", pool.utilization(), "frac"),
        ("parallel.cpu_per_wall", plain.cpu_per_wall(), "CPU-s/s"),
        ("parallel.step_wall_ms_p50", median(&plain.step_wall_ms), "ms"),
        ("host.steal_frac", plain.steal_frac, "frac"),
        ("obs.trace_overhead_frac", overhead, "frac"),
        ("trace.unattributed_frac", tracer.unattributed_frac("step"), "frac"),
    ] {
        metric(&mut out.metrics, name, value, unit);
    }
    for stage in CORE_STAGES {
        let ms = per_step(snap.stage_ns(stage) as f64 / 1e6);
        metric(&mut out.metrics, format!("core.stage_ms.{}", stage.name()), ms, "ms");
    }
    let backends = bench.layer_metrics(traced.steps, c, &mut tracer, &mut out.metrics);
    replay::host(&mut tracer, &mut out.metrics);

    let path = format!(
        ".bench_out/trace-{}-{}-seed{}.jsonl",
        args.workload,
        args.size.name(),
        args.seed
    );
    tracer
        .write_jsonl(std::path::Path::new(&path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    let backends: Vec<String> = backends
        .iter()
        .map(|(shape, b)| format!("{}:{}", json_str(shape), json_str(b)))
        .collect();
    out.record.extend([
        ("steps".into(), format!("[{},{}]", plain.steps, traced.steps)),
        ("steal_frac".into(), plain.steal_frac.to_string()),
        ("cpu_per_wall".into(), plain.cpu_per_wall().to_string()),
        ("host_scale".into(), plain.host_scale().to_string()),
        ("backends".into(), format!("{{{}}}", backends.join(","))),
        ("spans".into(), json_str(&path)),
    ]);
    Ok(())
}

fn record_reference(args: &Args, path: &str) -> Result<(), String> {
    let cfg = NetConfig::new(&args.workload, args.size).ok_or("references are recorded for the nn workloads only")?;
    let mut bench = NetBench::setup(cfg, args.size, NetInputs::generate(&cfg, args.seed), false);
    std::fs::write(path, check::format_reference(&bench.reference_values())).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iwino-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the shared pool to one lane per CPU before anything creates it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("IWINO_THREADS", nproc.to_string());
    if let Some(path) = &args.record {
        return match record_reference(&args, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("iwino-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.setup_only {
        let (_, t) = setup(&args, false);
        println!("setup {} {}", t.wall_s, t.cpu_s);
        return ExitCode::SUCCESS;
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("iwino-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("iwino-perfbench: a metric is not finite");
    }
    let record: Vec<String> = out.record.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    println!("{{\"run_record\":{{{}}}}}", record.join(","));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(&m.name), json_str(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.ops.failed == 0 && finite,
        out.ops.attempted,
        out.ops.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
