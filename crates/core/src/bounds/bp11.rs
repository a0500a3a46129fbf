//! The Bendersky–Petrank POPL 2011 bounds (\[4\] in the paper), quoted in
//! Section 2.2: the first bounds for *partial* compaction.
//!
//! Upper bound: a simple c-partial manager serves every program in
//! `P(M, n)` with heap `(c+1)·M`.
//!
//! Lower bound (two regimes, reconstructed from the paper's display —
//! see DESIGN.md §4 note 1):
//!
//! ```text
//! c ≤ 4·log₂ n:  M·min(c, (1/10)·log₂(n)/log₂(c+1)) − 5n
//! c > 4·log₂ n:  (1/6)·M·log₂(n)/(log₂ log₂ n + 2) − n/2
//! ```
//!
//! At the paper's realistic parameters this lower bound stays below the
//! trivial `M` for every `c ∈ [10, 100]` — exactly the observation that
//! motivates the paper ("previous results provide nothing but the trivial
//! lower bound"), reproduced by `pcb figure 1`.

use crate::params::Params;

/// The `(c+1)·M` upper bound of \[4\].
pub fn upper_bound(params: Params) -> f64 {
    (params.c() as f64 + 1.0) * params.m() as f64
}

/// [`upper_bound`] as a waste factor.
pub fn upper_factor(params: Params) -> f64 {
    params.c() as f64 + 1.0
}

/// The POPL'11 lower bound on heap size (words), without clamping.
pub fn lower_bound_raw(params: Params) -> f64 {
    let m = params.m() as f64;
    let n = params.n() as f64;
    let log_n = params.log_n() as f64;
    let c = params.c() as f64;
    if c <= 4.0 * log_n {
        let factor = c.min(0.1 * log_n / (c + 1.0).log2());
        m * factor - 5.0 * n
    } else {
        m * log_n / (6.0 * (log_n.log2() + 2.0)) - n / 2.0
    }
}

/// The POPL'11 lower bound clamped at the trivial bound `M` (a heap
/// smaller than the live space can never work).
pub fn lower_bound(params: Params) -> f64 {
    lower_bound_raw(params).max(params.m() as f64)
}

/// [`lower_bound`] as a waste factor (`≥ 1`).
pub fn lower_factor(params: Params) -> f64 {
    lower_bound(params) / params.m() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_at_the_papers_parameters() {
        // The paper: "throughout the range of c = 10..100, the lower bound
        // from \[4\] gives nothing but the trivial lower bound".
        for c in (10..=100).step_by(10) {
            let p = Params::paper_example(c);
            assert!(
                lower_bound_raw(p) < p.m() as f64,
                "c={c}: raw bound should be sub-trivial"
            );
            assert_eq!(lower_factor(p), 1.0, "c={c}");
        }
    }

    #[test]
    fn meaningful_only_for_huge_objects() {
        // The paper: "[4] provides a bound higher than the obvious M only
        // for M > n = 16TB". With n = 2^44 words and c = 10 the factor
        // term log n/(10·log(c+1)) = 44/34.6 ≈ 1.27 > 1 finally bites
        // (once M is large enough to absorb the −5n term).
        let p = Params::new(1 << 49, 44, 10).unwrap();
        assert!(lower_bound_raw(p) > p.m() as f64);
        assert!(lower_factor(p) > 1.0);
    }

    #[test]
    fn upper_bound_is_linear_in_c() {
        let p = Params::paper_example(50);
        assert_eq!(upper_factor(p), 51.0);
        assert_eq!(upper_bound(p), 51.0 * p.m() as f64);
    }

    #[test]
    fn large_c_regime_kicks_in() {
        // 4 log n = 48 for log n = 12; c = 100 uses the second regime.
        let p = Params::new(1 << 20, 12, 100).unwrap();
        let m = p.m() as f64;
        let expect = m * 12.0 / (6.0 * ((12.0f64).log2() + 2.0)) - 2048.0;
        assert!((lower_bound_raw(p) - expect).abs() < 1e-6);
    }
}
