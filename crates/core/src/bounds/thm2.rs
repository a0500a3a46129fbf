//! Theorem 2 — the paper's improved upper bound: a c-partial manager (for
//! `c > ½·log₂ n`) that serves every program in `P(M, n)` with heap
//!
//! ```text
//! HS ≤ 2M·Σ_{i=0}^{log₂ n} max(aᵢ, 1/(4 − 2/c)) + 2n·log₂ n
//!
//! a₀ = 1,   aᵢ = (1 − 1/c)·max_{j=0..i−1} max(1/c, 2^{j−i}·a_j)
//! ```
//!
//! **Reconstruction note.** The theorem's display is damaged in the
//! available text; this is the most defensible reading (see DESIGN.md §4,
//! note 1). What the paper states unambiguously and what this module
//! faithfully reproduces in `pcb figure 3`: (a) the bound applies for
//! `c > ½·log₂ n`; (b) it improves on the prior best
//! `min((c+1)·M, Robson-doubled)` on `c ∈ [20, 100]` at the Figure 3
//! parameters; (c) the improvement is modest (the paper calls the result
//! minor). The exact improvement percentage depends on the reading — the
//! proof lives only in the unpublished full version.

use crate::bounds::{bp11, robson};
use crate::params::Params;

/// The recursive coefficients `a₀..a_{log n}` of Theorem 2.
pub fn coefficients(params: Params) -> Vec<f64> {
    let c = params.c() as f64;
    let log_n = params.log_n() as usize;
    let mut a = Vec::with_capacity(log_n + 1);
    a.push(1.0f64);
    for i in 1..=log_n {
        let best = (0..i)
            .map(|j| (1.0 / c).max(a[j] / (1u64 << (i - j)) as f64))
            .fold(f64::NEG_INFINITY, f64::max);
        a.push((1.0 - 1.0 / c) * best);
    }
    a
}

/// Whether Theorem 2 applies: `c > ½·log₂ n`.
pub fn applies(params: Params) -> bool {
    2 * params.c() > params.log_n() as u64
}

/// Theorem 2's heap bound in words; `None` when `c ≤ ½·log₂ n`.
pub fn upper_bound(params: Params) -> Option<f64> {
    if !applies(params) {
        return None;
    }
    let c = params.c() as f64;
    let floor = 1.0 / (4.0 - 2.0 / c);
    let sum: f64 = coefficients(params).into_iter().map(|a| a.max(floor)).sum();
    let m = params.m() as f64;
    let n = params.n() as f64;
    Some(2.0 * m * sum + 2.0 * n * params.log_n() as f64)
}

/// [`upper_bound`] as a waste factor.
pub fn factor(params: Params) -> Option<f64> {
    upper_bound(params).map(|b| b / params.m() as f64)
}

/// The prior best upper bound (what Figure 3 compares against):
/// `min((c+1)·M, Robson-doubled)`, as a waste factor.
pub fn prior_best_factor(params: Params) -> f64 {
    bp11::upper_factor(params).min(robson::factor_arbitrary(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_start_at_one_and_stay_in_unit_interval() {
        for c in [11u64, 20, 50, 100] {
            let p = Params::paper_example(c);
            let a = coefficients(p);
            assert_eq!(a.len(), 21);
            assert_eq!(a[0], 1.0);
            for (i, &ai) in a.iter().enumerate().skip(1) {
                assert!(ai > 0.0 && ai < 1.0, "c={c} a[{i}] = {ai}");
            }
            // And they have a floor: a_i >= (1-1/c)/c.
            let floor = (1.0 - 1.0 / c as f64) / c as f64;
            assert!(a.iter().skip(1).all(|&ai| ai >= floor - 1e-12));
        }
    }

    #[test]
    fn applicability_threshold() {
        assert!(applies(Params::paper_example(11)));
        assert!(!applies(Params::paper_example(10)));
        assert!(upper_bound(Params::paper_example(10)).is_none());
    }

    #[test]
    fn improves_on_prior_best_across_figure_3_range() {
        // The paper: "for c's between 20 and 100 we get improvement".
        for c in (20..=100).step_by(5) {
            let p = Params::paper_example(c);
            let new = factor(p).expect("applies");
            let prior = prior_best_factor(p);
            assert!(new < prior, "c={c}: {new} !< {prior}");
        }
    }

    #[test]
    fn never_beats_the_lower_bound() {
        // Sanity: an upper bound for all programs can never undercut the
        // lower bound that one program forces.
        use crate::bounds::thm1;
        for c in (11..=100).step_by(7) {
            let p = Params::paper_example(c);
            let upper = factor(p).unwrap();
            let lower = thm1::factor(p);
            assert!(upper >= lower, "c={c}: upper {upper} < lower {lower}");
        }
    }

    #[test]
    fn prior_best_switches_from_bp11_to_robson() {
        // (c+1) wins for small c; Robson-doubled (~22) wins for c > 21.
        let small = Params::paper_example(12);
        assert_eq!(prior_best_factor(small), 13.0);
        let large = Params::paper_example(80);
        assert!((prior_best_factor(large) - robson::factor_arbitrary(large)).abs() < 1e-9);
    }
}
