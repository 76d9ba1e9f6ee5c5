//! Backward-filter pass (`dW`) for CNN training.
//!
//! `dW[oc, fh, fw, ic] = Σ_{b, oy, ox} dY[b, oy, ox, oc] · X[b, oy·sh+fh−ph, ox·sw+fw−pw, ic]`
//!
//! The paper's training experiment notes that "the training speed is also
//! related to computing filter gradients" (§6.3.2) but Winograd is not
//! applied to this pass. It runs as one packed GEMM over the indirection
//! table the forward pass uses (`iwino_indirect::filter_grad`):
//! `dW_hwio = Âᵀ·dY`, with the transposed patch matrix gathered straight
//! from the NHWC input into the GEMM's A-panels and parallelised over
//! row blocks of `FH·FW·IC`.

use iwino_gemm::AllocScratch;
use iwino_indirect::IndirectTable;
use iwino_tensor::{ConvShape, Tensor4};

/// Compute the filter gradient for the convolution described by `shape`
/// (any stride). Returns `dW` in the native `OC×FH×FW×IC` layout.
pub fn filter_grad(x: &Tensor4<f32>, dy: &Tensor4<f32>, shape: &ConvShape) -> Tensor4<f32> {
    iwino_indirect::filter_grad(x, dy, &IndirectTable::build(shape), &AllocScratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_baselines::direct_conv;
    use proptest::prelude::*;

    /// The scalar per-tap outer-product reduction `filter_grad` used to
    /// run — the bitwise reference: every dW element sums its pixels in
    /// ascending `(b, oy, ox)` order with separate multiply and add, skipping
    /// padding taps and zero gradients (both add an exact zero).
    fn per_tap_reference(x: &Tensor4<f32>, dy: &Tensor4<f32>, s: &ConvShape) -> Tensor4<f32> {
        let (oh, ow) = (s.oh(), s.ow());
        let (ic, oc) = (s.ic, s.oc);
        let (xs, dys) = (x.as_slice(), dy.as_slice());
        let mut dw = Tensor4::<f32>::zeros(s.w_dims());
        for tap in 0..s.fh * s.fw {
            let (fh, fw) = (tap / s.fw, tap % s.fw);
            let mut panel = vec![0.0f32; oc * ic];
            for b in 0..s.n {
                for oy in 0..oh {
                    let iy = (oy * s.sh + fh) as isize - s.ph as isize;
                    if iy < 0 || iy >= s.ih as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let px = (ox * s.sw + fw) as isize - s.pw as isize;
                        if px < 0 || px >= s.iw as isize {
                            continue;
                        }
                        let xo = ((b * s.ih + iy as usize) * s.iw + px as usize) * ic;
                        let x_px = &xs[xo..xo + ic];
                        let dy_px = &dys[((b * oh + oy) * ow + ox) * oc..][..oc];
                        for (o, &g) in dy_px.iter().enumerate() {
                            if g == 0.0 {
                                continue;
                            }
                            for (d, &xv) in panel[o * ic..(o + 1) * ic].iter_mut().zip(x_px) {
                                *d += g * xv;
                            }
                        }
                    }
                }
            }
            for o in 0..oc {
                let dst = &mut dw.as_mut_slice()[((o * s.fh + fh) * s.fw + fw) * ic..][..ic];
                dst.copy_from_slice(&panel[o * ic..(o + 1) * ic]);
            }
        }
        dw
    }

    fn assert_bitwise_equal_to_reference(s: &ConvShape, seed: u64) {
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let mut dy = Tensor4::<f32>::random(s.y_dims(), seed + 1, -1.0, 1.0);
        // ReLU-style sparsity: the reference skips zero gradients, the GEMM
        // multiplies them — both must land on the same bits.
        for v in dy.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let got = filter_grad(&x, &dy, s);
        let want = per_tap_reference(&x, &dy, s);
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{s:?} idx {i}: {a:?} vs per-tap {b:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Geometry net: strides 1–3 (incl. asymmetric), asymmetric pads,
        /// 1×1..7×7 filters, IC below, at and off multiples of the 6-row
        /// register tile (panels straddle taps), one or several images.
        #[test]
        fn gemm_filter_grad_bitwise_matches_per_tap_loop(
            fh in 1usize..8,
            fw in 1usize..8,
            sh in 1usize..4,
            sw in 1usize..4,
            ph in 0usize..4,
            pw in 0usize..4,
            ici in 0usize..6,
            ni in 0usize..2,
            oc in 1usize..20,
            extra_h in 0usize..6,
            extra_w in 0usize..6,
            seed in 0u64..1000,
        ) {
            let ic = [1usize, 3, 5, 7, 32, 33][ici];
            let s = ConvShape {
                n: [1usize, 3][ni],
                ih: fh + extra_h,
                iw: fw + extra_w,
                ic,
                oc,
                fh,
                fw,
                ph: ph.min(fh - 1),
                pw: pw.min(fw - 1),
                sh,
                sw,
            };
            assert_bitwise_equal_to_reference(&s, seed);
        }
    }

    #[test]
    fn asymmetric_stride_and_deep_channels_match_per_tap_loop() {
        for s in [
            ConvShape {
                sh: 2,
                sw: 3,
                ph: 1,
                pw: 2,
                ..ConvShape::square(3, 13, 33, 7, 5)
            },
            ConvShape {
                sh: 2,
                sw: 2,
                ph: 0,
                pw: 0,
                ..ConvShape::square(2, 9, 32, 19, 1)
            },
            ConvShape::square(1, 8, 7, 16, 7),
        ] {
            assert_bitwise_equal_to_reference(&s, 240);
        }
    }

    /// Finite-difference check: perturb one weight, the loss `Σ y²/2`
    /// changes by `dW · ε` to first order.
    #[test]
    fn matches_finite_differences() {
        let s = ConvShape::square(1, 6, 2, 3, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 200, -1.0, 1.0);
        let mut w = Tensor4::<f32>::random(s.w_dims(), 201, -0.5, 0.5);
        // dL/dy = y for L = Σ y²/2 ⟹ dW = filter_grad(x, y).
        let y = direct_conv(&x, &w, &s);
        let dw = filter_grad(&x, &y, &s);
        let eps = 1e-3f32;
        for probe in [(0usize, 0usize, 0usize, 0usize), (2, 1, 2, 1), (1, 2, 0, 1)] {
            let (o, fh, fw, i) = probe;
            let orig = w.at(o, fh, fw, i);
            *w.at_mut(o, fh, fw, i) = orig + eps;
            let yp = direct_conv(&x, &w, &s);
            *w.at_mut(o, fh, fw, i) = orig - eps;
            let ym = direct_conv(&x, &w, &s);
            *w.at_mut(o, fh, fw, i) = orig;
            let lp: f64 = yp.as_slice().iter().map(|&v| (v as f64).powi(2) / 2.0).sum();
            let lm: f64 = ym.as_slice().iter().map(|&v| (v as f64).powi(2) / 2.0).sum();
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = dw.at(o, fh, fw, i) as f64;
            assert!(
                (fd - an).abs() < 1e-2 * an.abs().max(1.0),
                "probe {probe:?}: fd {fd} vs analytic {an}"
            );
        }
    }

    /// Adjointness in the filter argument:
    /// ⟨conv(x, W), dy⟩ = ⟨W, filter_grad(x, dy)⟩.
    #[test]
    fn filter_adjointness() {
        let s = ConvShape::square(2, 7, 3, 4, 5);
        let x = Tensor4::<f32>::random(s.x_dims(), 210, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 211, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), 212, -1.0, 1.0);
        let y = direct_conv(&x, &w, &s);
        let dw = filter_grad(&x, &dy, &s);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = w
            .as_slice()
            .iter()
            .zip(dw.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn strided_filter_grad_adjointness() {
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 8, 2, 3, 3)
        };
        let x = Tensor4::<f32>::random(s.x_dims(), 220, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 221, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), 222, -1.0, 1.0);
        let y = direct_conv(&x, &w, &s);
        let dw = filter_grad(&x, &dy, &s);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let rhs: f64 = w
            .as_slice()
            .iter()
            .zip(dw.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn zero_dy_gives_zero_grad() {
        let s = ConvShape::square(1, 5, 2, 2, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 230, -1.0, 1.0);
        let dy = Tensor4::<f32>::zeros(s.y_dims());
        let dw = filter_grad(&x, &dy, &s);
        assert!(dw.as_slice().iter().all(|&v| v == 0.0));
    }
}
