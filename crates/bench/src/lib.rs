//! Experiment harness for the Im2col-Winograd reproduction.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the index):
//!
//! ```text
//! repro fig8 [--quick|--full]     Figure 8  (RTX 3060 Ti panels: simulated + CPU-measured)
//! repro fig9 [--quick|--full]     Figure 9  (RTX 4090 panels)
//! repro table2                    Table 2   (speedup ranges, derived from fig8/fig9)
//! repro table3 [--quick|--full]   Table 3   (average relative error vs FP64 CPU)
//! repro fig10 [--quick]           Figure 10 (relative-error distributions)
//! repro train-cifar [--quick]     Figure 12 + Table 5 (Cifar10-like training)
//! repro train-imagenet [--quick]  Figure 11 + Table 4 (ILSVRC-like training)
//! repro ablation-banks            §5.2 bank-conflict ablation
//! repro ablation-variants         §5.4/§5.6 ruse/c64 ablation
//! repro ablation-transforms       §5.3 simplified-transformation ablation
//! repro bench-stages [winograd|gemm|indirect] [--out p] [--engine] [--backend name]
//!                                 per-stage effective GFLOP/s (the BENCH_*.json perf trajectory;
//!                                 --engine runs plan-cached reps through the engine; `gemm` sweeps
//!                                 the Fig 7–9 im2col shapes plan-cached through `im2col-gemm-nhwc`
//!                                 — the BENCH_pr9_* pair; `indirect` sweeps the small-OW/strided
//!                                 frontier through `im2col-indirect`, or through `--backend` for
//!                                 the baseline arm — the BENCH_pr10_* pair)
//! repro bench-compare <base> <after> [--max-regression pct]  perf-regression gate over two
//!                                 bench-stages documents (exit 1 on regression)
//! repro trace [<case>] [--out p]  flight-recorder capture of a stage-bench case as Chrome
//!                                 Trace JSON (load in Perfetto / chrome://tracing)
//! repro serve-bench [--out p] [--requests N] [--rate R] [--max-batch B] [--workers W]
//!                                 [--no-coalesce]  open-loop serving load generator; emits a
//!                                 bench-compare-gatable throughput/latency document
//!                                 (the BENCH_serve_* pair)
//! repro frontier [--quick] [--out p]  process-CPU frontier of Γ / im2col-gemm-nhwc / im2col-indirect
//!                                 over an r × OW × IC grid and the ResNet-18 / VGG16x7 layers, all
//!                                 pool lanes and one lane: winner, heuristic pick and regret per shape
//! repro engine                    registry smoke: every backend vs the f64 reference + cache stats
//! repro all [--quick]             everything above
//! ```
//!
//! Quick mode scales batch sizes so each measurement stays around a couple
//! of Gflop and shrinks the training runs; every scaling factor is printed
//! alongside the row it affects.

#![forbid(unsafe_code)]

pub mod compare;
pub mod figures;
pub mod frontier;
pub mod runner;
pub mod serve_bench;
pub mod tracer;

pub use compare::{compare, isa_parity, parse_bench_doc, BenchCase, BenchDoc, CaseDelta, CompareReport};
pub use figures::{
    gemm_bench_cases, indirect_bench_cases, scale_batch, stage_bench_cases, AccuracyTable, GemmBenchCase, Ofms, Panel,
    StageBenchCase, FIG8, FIG9, TABLE3,
};
pub use frontier::{run_frontier, FrontierReport, FrontierRow, LaneTiming, FRONTIER_BACKENDS};
pub use runner::*;
pub use serve_bench::{run_serve_bench, serve_bench_buckets, ServeBenchCase, ServeBenchConfig, ServeBenchReport};
pub use tracer::{record_trace, validate_chrome_trace, TraceSummary};

/// Serializes this test binary's kernel-running tests. `obs` is
/// process-global: a test that resets and snapshots it must not see spans
/// from a sibling's kernels, so every test here that runs a kernel or reads
/// `obs` holds this guard (the `crates/serve/tests` convention).
#[cfg(test)]
pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
