//! Selection-policy golden tests (ISSUE-4 satellite): the heuristic must
//! mirror §5.7, and autotune's measure-once pin must be stable across
//! repeated lookups — including after its cached plan is evicted.

use iwino_core::Epilogue;
use iwino_engine::{Engine, FilterId, Handle, SelectionPolicy};
use iwino_tensor::{ConvShape, Tensor4};

#[test]
fn heuristic_picks_winograd_for_unit_stride_r2_to_9() {
    let eng = Engine::new();
    for r in 2..=9 {
        let s = ConvShape::square(1, 16, 4, 8, r);
        assert!(s.is_unit_stride());
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-winograd",
            "unit-stride r={r} must select the fused path (§5.7)"
        );
    }
}

#[test]
fn heuristic_sends_wide_layers_to_indirect() {
    // Re-derived from the process-CPU frontier (`repro frontier`): above 64
    // input channels, `im2col-indirect`'s one batch-wide packed GEMM beats
    // Γ's once-per-row filter-panel pass for 3×3 filters at every width,
    // and for r ≥ 5 filters on rows shorter than 32 outputs — the deep-K
    // 12×12×512, 14×14×256 and 7×7×512 shapes included.
    let eng = Engine::new();
    for (hw, c, r) in [
        (12usize, 512usize, 3usize),
        (14, 256, 3),
        (7, 512, 3),
        (28, 128, 3),
        (56, 96, 3),
        (16, 65, 3),
        (16, 256, 5),
        (16, 128, 7),
        (8, 96, 5),
    ] {
        let s = ConvShape::square(1, hw, c, c, r);
        assert!(s.is_unit_stride());
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-indirect",
            "{hw}x{hw}x{c} r={r} sits on the indirect side of the measured frontier"
        );
    }
    // The other side of each axis stays fused: at most 64 input channels
    // (any filter, any width — including the small-IC stem-like shapes
    // where Γ measures slower), or r ≥ 5 on rows of at least 32 outputs.
    for (hw, ic, oc, r) in [
        (16usize, 64usize, 64usize, 3usize),
        (56, 64, 64, 3),
        (64, 3, 32, 7),
        (32, 3, 32, 3),
        (32, 128, 128, 5),
        (32, 128, 128, 7),
        (56, 256, 256, 5),
    ] {
        assert_eq!(
            eng.heuristic_choice(&ConvShape::square(1, hw, ic, oc, r)),
            "im2col-winograd",
            "{hw}x{hw}x{ic}->{oc} r={r} stays on the Γ side"
        );
    }
}

#[test]
fn heuristic_picks_indirect_for_strides_at_least_2() {
    // Strided shapes can't run the fused path; among the GEMM-class
    // backends the indirection-buffer GEMM owns this region — one
    // batch-wide GEMM instead of the im2col fallback's per-row B-panel
    // re-streaming.
    let eng = Engine::new();
    for stride in 2..=4 {
        let s = ConvShape {
            sh: stride,
            sw: stride,
            ..ConvShape::square(1, 17, 4, 8, 3)
        };
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-indirect",
            "stride {stride} must fall back to the indirect GEMM (§5.7)"
        );
    }
}

#[test]
fn heuristic_frontier_between_gamma_and_indirect() {
    // Pin the region Γ cannot run, and that no shape defaults to the
    // materialising im2col GEMM.
    let eng = Engine::new();
    // Strided ⇒ small OW: indirect wins (BENCH_pr10 pair).
    let strided = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 24, 32, 32, 3)
    };
    assert_eq!(eng.heuristic_choice(&strided), "im2col-indirect");
    // Large r beyond the Γ planner's 2..=15 width range: indirect.
    let large_r = ConvShape::square(1, 20, 4, 4, 16);
    assert!(!large_r.is_unit_stride() || large_r.fw > 15);
    assert_eq!(eng.heuristic_choice(&large_r), "im2col-indirect");
    for r in [1, 2, 3, 5, 7, 9] {
        for hw in [4, 8, 16, 32, 56] {
            for c in [3, 16, 64, 65, 128, 256, 512] {
                let s = ConvShape::square(1, hw, c, c, r);
                let pick = eng.heuristic_choice(&s);
                assert!(
                    ["im2col-winograd", "im2col-indirect"].contains(&pick),
                    "{hw}x{hw}x{c} r={r}: {pick}"
                );
                assert!(eng.algorithm(pick).unwrap().supports(&s));
            }
        }
    }
}

#[test]
fn heuristic_resolution_matches_what_conv_runs() {
    // `resolve` (the no-run query) and `conv` (the dispatcher) must agree.
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Heuristic);
    let s = ConvShape::square(1, 8, 3, 4, 3);
    let algo = eng.resolve(&h.policy, &s).unwrap();
    assert_eq!(algo.name(), "im2col-winograd");
    let x = Tensor4::<f32>::random(s.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 2, -1.0, 1.0);
    let via_policy = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let direct = eng
        .conv_with(&algo, h.filter_id(), &x, &w, &s, &Epilogue::None)
        .unwrap();
    assert_eq!(via_policy.as_slice(), direct.as_slice());
}

#[test]
fn force_policy_always_uses_the_named_backend() {
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Force("direct".into()));
    let s = ConvShape::square(1, 8, 3, 4, 3); // winograd-eligible shape
    assert_eq!(eng.resolve(&h.policy, &s).unwrap().name(), "direct");
}

#[test]
fn autotune_pin_is_stable_across_repeated_lookups_and_eviction() {
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Autotune);
    let s = ConvShape::square(1, 10, 3, 4, 3);
    let x = Tensor4::<f32>::random(s.x_dims(), 5, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 6, -1.0, 1.0);

    assert!(eng.pinned_choice(&s).is_none(), "no pin before first sight");
    let y0 = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let winner = eng.pinned_choice(&s).expect("first call must pin a winner");

    // Repeated lookups: the pin never changes, outputs stay identical.
    for _ in 0..5 {
        let y = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
        assert_eq!(y.as_slice(), y0.as_slice());
        assert_eq!(eng.pinned_choice(&s), Some(winner));
    }

    // Flood the plan cache with other shapes until the pinned shape's plan
    // is evicted; the pin must survive and the refilled plan must agree.
    let flood = eng.algorithm("direct").unwrap();
    let evictions_before = eng.stats().plan_evictions;
    for i in 0..80 {
        let fs = ConvShape::square(1, 6 + i % 13, 1 + i % 3, 1 + (i + 1) % 3, 3);
        let fx = Tensor4::<f32>::random(fs.x_dims(), 1000 + i as u64, -1.0, 1.0);
        let fw = Tensor4::<f32>::random(fs.w_dims(), 2000 + i as u64, -1.0, 1.0);
        eng.conv_with(
            &flood,
            FilterId {
                owner: 7777,
                epoch: i as u64,
            },
            &fx,
            &fw,
            &fs,
            &Epilogue::None,
        )
        .unwrap();
    }
    assert!(
        eng.stats().plan_evictions > evictions_before,
        "flood must actually evict (cache bound exercised)"
    );
    assert_eq!(eng.pinned_choice(&s), Some(winner), "pin survives plan eviction");
    let y = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    assert_eq!(y.as_slice(), y0.as_slice(), "refilled plan matches the original");
    assert_eq!(eng.pinned_choice(&s), Some(winner), "refill must not re-measure");
}

#[test]
fn autotune_on_strided_shape_pins_a_gemm_class_backend() {
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Autotune);
    let s = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 9, 3, 4, 3)
    };
    let x = Tensor4::<f32>::random(s.x_dims(), 8, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 9, -1.0, 1.0);
    eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let winner = eng.pinned_choice(&s).unwrap();
    assert!(
        ["im2col-gemm-nhwc", "im2col-gemm-nchw", "direct", "im2col-indirect"].contains(&winner),
        "strided shape pinned {winner}, but only GEMM-class backends are eligible"
    );
}
