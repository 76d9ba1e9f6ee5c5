//! Output checks: recorded network references and element-wise agreement
//! at the tolerance of the repository's engine conformance tests.

use crate::workload::Size;

/// `max |got − want| / (|want| + 1)` bound used by the engine conformance
/// net for every backend against the direct reference.
pub const TOL: f64 = 1e-3;

/// Do `got` and `want` agree element-wise within [`TOL`] (mixed error),
/// with every element of `got` finite?
pub fn agrees(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &w)| g.is_finite() && ((g - w).abs() as f64) / ((w.abs() as f64) + 1.0) < TOL)
}

/// Relative agreement, `|got − want| ≤ TOL·|want|`, for values whose scale
/// is far from 1 (training gradients).
pub fn agrees_relative(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &w)| g.is_finite() && ((g - w).abs() as f64) <= TOL * (w.abs() as f64) + 1e-9)
}

/// Values recorded from the benchmark itself (`--record-reference`): the
/// check batch's logits for inference, the first training step's loss and
/// per-parameter gradient norms for training.
pub fn recorded(workload: &str, size: Size) -> Vec<f32> {
    let text = match (workload, size) {
        ("resnet18-infer", Size::Full) => include_str!("../reference/resnet18-infer.full.txt"),
        ("resnet18-infer", Size::Tiny) => include_str!("../reference/resnet18-infer.tiny.txt"),
        ("resnet18-train", Size::Full) => include_str!("../reference/resnet18-train.full.txt"),
        ("resnet18-train", Size::Tiny) => include_str!("../reference/resnet18-train.tiny.txt"),
        ("vgg16x7-infer", Size::Full) => include_str!("../reference/vgg16x7-infer.full.txt"),
        ("vgg16x7-infer", Size::Tiny) => include_str!("../reference/vgg16x7-infer.tiny.txt"),
        _ => "",
    };
    text.split_whitespace()
        .map(|v| v.parse().expect("reference values are floats"))
        .collect()
}

/// The file format [`recorded`] reads: one value per line, exact to f32.
pub fn format_reference(values: &[f32]) -> String {
    values.iter().map(|v| format!("{v:.9e}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_outputs_are_rejected() {
        let want = [0.5f32, -2.0, 3.25, 0.0];
        assert!(agrees(&want, &want));
        let mut bad = want;
        bad[2] += 0.01;
        assert!(!agrees(&bad, &want));
        bad = want;
        bad[0] = f32::NAN;
        assert!(!agrees(&bad, &want));
        assert!(!agrees(&want[..3], &want));
        let mut near = want;
        near[1] += 1e-5;
        assert!(agrees(&near, &want));
        assert!(!agrees_relative(&[1.01e-3], &[1e-3]));
        assert!(agrees_relative(&[1.000_000_5e-3], &[1e-3]));
    }

    #[test]
    fn reference_format_round_trips() {
        let v = [1.0f32 / 3.0, -7.25e-6, 1e9];
        let back: Vec<f32> = format_reference(&v)
            .split_whitespace()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(back, v);
    }

    #[test]
    fn every_network_reference_is_recorded() {
        for w in ["resnet18-infer", "resnet18-train", "vgg16x7-infer"] {
            for s in [Size::Full, Size::Tiny] {
                assert!(!recorded(w, s).is_empty(), "{w}.{} has no recorded reference", s.name());
            }
        }
    }
}
