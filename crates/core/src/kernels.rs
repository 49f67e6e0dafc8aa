//! Integer micro-kernels for the quantised datapath.
//!
//! [`crate::engine::QuantizedEngine`] historically multiply-accumulated
//! every element in `i128`, which made the "cheap" quantised path ~3×
//! *slower* than the float one in software. This module supplies the fast
//! twin: when the worst-case dot-product accumulator provably fits in an
//! `i64` (true for every design point of the paper's 2–16-bit grid), the
//! per-SV dot runs as a 4-lane unrolled `i64` loop and widens to `i128`
//! only for the square-and-α stage. Integer addition is associative, so
//! the fast path is **bit-identical** to the `i128` reference by
//! construction — a property the exhaustive boundary sweep below pins.
//!
//! ## The threshold rule
//!
//! Feature codes are bounded by `|code| ≤ 2^(D_bits−1)`, so one product
//! is `≤ 2^(2(D_bits−1))` and the n-term dot is
//! `≤ 2^(2(D_bits−1) + ceil_log2(n_feat))`. The kernel's `+1` constant
//! lives at `2^(2(guard + D_bits − 1))`, which dominates, giving the
//! worst-case magnitude
//!
//! ```text
//! |dot + one| ≤ 2^(2·(guard + D_bits − 1) + ceil_log2(n_feat) + 1)
//! ```
//!
//! [`quant_dot_fits_i64`] checks the exact worst case that bound
//! abbreviates (`n_feat·2^(2(D_bits−1)) + 2^(2(guard+D_bits−1))` against
//! `i64::MAX`, in `u128`), so boundary widths the log form would round
//! away are admitted exactly. At the paper's shape (guard = 3,
//! n_feat = 53) the rule admits `D_bits ≤ 29` — the whole 2–16-bit
//! exploration grid runs on the fast path with headroom to spare.

// lint: allow-file(hot-index) — quantised-kernel idiom: subscripts walk
// same-length code/alpha panels whose widths are validated at engine build.
use ecg_features::DenseMatrix;
use fixedpoint::fixed::{truncate_lsbs, truncate_lsbs_i64};

/// `ceil(log2(n))` for accumulator-width bookkeeping (0 for `n ≤ 1`).
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Whether the quantised dot accumulator (including the `+1` constant at
/// product scale) provably fits in an `i64` — the i64/i128 dispatch rule.
///
/// The readable form is `2·(guard + D_bits − 1) + ceil_log2(n_feat)`
/// fitting in 63 bits; what is actually checked is the exact worst case
/// that bound abbreviates,
///
/// ```text
/// n_feat · 2^(2(D_bits−1))  +  2^(2(guard + D_bits − 1))  ≤  i64::MAX
/// ```
///
/// (every code pinned at `±2^(D_bits−1)` with all products aligned, plus
/// the `+1` constant), evaluated in `u128` so the boundary width is
/// admitted exactly rather than rounded away.
pub fn quant_dot_fits_i64(guard: i32, d_bits: u32, n_feat: usize) -> bool {
    if guard < 0 || d_bits == 0 {
        return false;
    }
    let prod_exp = 2 * (d_bits - 1);
    let one_exp = 2 * (guard as u32 + d_bits - 1);
    if prod_exp > 62 || one_exp > 62 {
        return false;
    }
    let worst = (n_feat as u128) * (1u128 << prod_exp) + (1u128 << one_exp);
    worst <= i64::MAX as u128
}

/// 4-lane unrolled `i64` dot product over feature codes. Callers must
/// guarantee the accumulator bound ([`quant_dot_fits_i64`]); within it,
/// the lane split cannot overflow and the result equals [`dot_i128`]
/// bit for bit (integer addition is associative).
///
/// # Panics
///
/// Panics in debug builds when lengths differ.
#[inline]
pub fn dot_i64(a: &[i64], b: &[i64]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0i64, 0i64, 0i64, 0i64);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0i64;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Exact `i128` reference dot over feature codes (the historical
/// accumulator, kept as the correctness oracle above the threshold).
///
/// # Panics
///
/// Panics in debug builds when lengths differ.
#[inline]
pub fn dot_i128(a: &[i64], b: &[i64]) -> i128 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc: i128 = 0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += (x as i128) * (y as i128);
    }
    acc
}

/// Fast-path decision accumulator: `i64` dots, widening to `i128` at the
/// squarer. `one` is the kernel's `+1` constant at product scale
/// (`2^(2(guard + D_bits − 1))`, guaranteed representable whenever
/// [`quant_dot_fits_i64`] holds); `t1`/`t2` are the post-dot/post-square
/// LSB truncations. Bit-identical to [`decision_code_i128`] within the
/// threshold.
pub fn decision_code_i64(
    codes: &[i64],
    sv_codes: &DenseMatrix<i64>,
    alpha_codes: &[i64],
    one: i64,
    t1: u32,
    t2: u32,
    bias_code: i128,
) -> i128 {
    let mut acc2: i128 = 0;
    for (sv, &ac) in sv_codes.rows().zip(alpha_codes.iter()) {
        let with_one = dot_i64(codes, sv) + one;
        let k_in = truncate_lsbs_i64(with_one, t1) as i128;
        let squared = truncate_lsbs(k_in * k_in, t2);
        acc2 += (ac as i128) * squared;
    }
    acc2 + bias_code
}

/// Exact `i128` reference decision accumulator — the historical datapath,
/// used above the i64 threshold and as the equivalence oracle.
pub fn decision_code_i128(
    codes: &[i64],
    sv_codes: &DenseMatrix<i64>,
    alpha_codes: &[i64],
    one: i128,
    t1: u32,
    t2: u32,
    bias_code: i128,
) -> i128 {
    let mut acc2: i128 = 0;
    for (sv, &ac) in sv_codes.rows().zip(alpha_codes.iter()) {
        let with_one = dot_i128(codes, sv) + one;
        let k_in = truncate_lsbs(with_one, t1);
        let squared = truncate_lsbs(k_in * k_in, t2);
        acc2 += (ac as i128) * squared;
    }
    acc2 + bias_code
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};

    /// Seeded code generator for deterministic sweeps.
    struct Gen(StdRng);

    impl Gen {
        fn new(seed: u64) -> Self {
            Gen(StdRng::seed_from_u64(seed))
        }

        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform signed code in `[-2^(d-1), 2^(d-1) - 1]` — the exact
        /// range a `d`-bit saturating quantiser emits.
        fn code(&mut self, d_bits: u32) -> i64 {
            let span = 1u64 << d_bits;
            (self.next() % span) as i64 - (1i64 << (d_bits - 1))
        }

        fn codes(&mut self, d_bits: u32, n: usize) -> Vec<i64> {
            (0..n).map(|_| self.code(d_bits)).collect()
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(53), 6);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn threshold_rule_at_paper_shape() {
        // guard = 3, n_feat = 53: the rule admits D_bits ≤ 29 (the whole
        // 2..16 exploration grid with room to spare) and rejects 30+.
        for d in 2..=29 {
            assert!(quant_dot_fits_i64(3, d, 53), "d_bits {d} should fit");
        }
        for d in 30..=40 {
            assert!(!quant_dot_fits_i64(3, d, 53), "d_bits {d} should not fit");
        }
        // The exact u128 check catches the case the log form would round
        // away: guard 0, one feature, D_bits 32 sums to exactly 2^63.
        assert!(quant_dot_fits_i64(0, 31, 1));
        assert!(!quant_dot_fits_i64(0, 32, 1));
        assert!(!quant_dot_fits_i64(-1, 9, 53));
    }

    #[test]
    fn dot_i64_matches_reference_on_random_codes() {
        let mut rng = Gen::new(0x5eed);
        for d_bits in [2u32, 9, 16, 28, 29] {
            for n in [1usize, 3, 4, 5, 8, 53] {
                if !quant_dot_fits_i64(0, d_bits, n) {
                    continue;
                }
                for _ in 0..50 {
                    let a = rng.codes(d_bits, n);
                    let b = rng.codes(d_bits, n);
                    assert_eq!(
                        dot_i64(&a, &b) as i128,
                        dot_i128(&a, &b),
                        "d_bits {d_bits}, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_i64_survives_saturated_worst_case() {
        // Every code pinned at the extreme of its width, signs arranged
        // so all products align positive — the exact magnitude the
        // threshold rule budgets for. No overflow, bit-equal result.
        for d_bits in [2u32, 9, 16, 28, 29] {
            for n in [1usize, 2, 4, 53] {
                if !quant_dot_fits_i64(0, d_bits, n) {
                    continue;
                }
                let lo = -(1i64 << (d_bits - 1));
                let hi = (1i64 << (d_bits - 1)) - 1;
                for (a_val, b_val) in [(lo, lo), (hi, hi), (lo, hi), (hi, lo)] {
                    let a = vec![a_val; n];
                    let b = vec![b_val; n];
                    assert_eq!(
                        dot_i64(&a, &b) as i128,
                        dot_i128(&a, &b),
                        "d_bits {d_bits}, n {n}, pair ({a_val}, {b_val})"
                    );
                }
            }
        }
    }

    /// Whether the *i128* square-and-α stage itself stays representable
    /// at a worst-case shape — zero-truncation configs at wide `D_bits`
    /// can exceed even 128 bits (which is why the paper truncates);
    /// sweeps must stay inside this envelope on both paths.
    #[allow(clippy::too_many_arguments)]
    fn i128_envelope_ok(
        guard: u32,
        d_bits: u32,
        n_feat: usize,
        a_bits: u32,
        n_sv: usize,
        t1: u32,
        t2: u32,
    ) -> bool {
        let with_one_exp = (2 * (d_bits - 1) + ceil_log2(n_feat)).max(2 * (guard + d_bits - 1)) + 1;
        let k_exp = with_one_exp.saturating_sub(t1);
        let sq_exp = (2 * k_exp).saturating_sub(t2);
        sq_exp + a_bits + ceil_log2(n_sv) < 126
    }

    #[test]
    fn decision_fast_path_is_bit_identical_across_widths() {
        // Exhaustive equivalence sweep of the i64 fast path against the
        // i128 reference: random code images at the pinned width set,
        // spanning the widening boundary (28/29 only fit at narrow
        // shapes; 30 at n_feat = 2 falls off the fast path).
        let mut rng = Gen::new(0xD00D);
        for d_bits in [2u32, 9, 16, 28, 29] {
            for guard in [0i32, 3] {
                for n_feat in [1usize, 2, 7, 53] {
                    if !quant_dot_fits_i64(guard, d_bits, n_feat) {
                        continue;
                    }
                    let one_exp = 2 * (guard as u32 + d_bits - 1);
                    for n_sv in [1usize, 5, 17] {
                        let a_bits = 15.min(d_bits + 6);
                        let sv_codes = DenseMatrix::from_rows(
                            &(0..n_sv)
                                .map(|_| rng.codes(d_bits, n_feat))
                                .collect::<Vec<_>>(),
                        );
                        let alpha_codes = rng.codes(a_bits, n_sv);
                        let codes = rng.codes(d_bits, n_feat);
                        let bias = rng.next() as i64 as i128;
                        for (t1, t2) in [(0u32, 0u32), (10, 10), (3, 7)] {
                            if !i128_envelope_ok(guard as u32, d_bits, n_feat, a_bits, n_sv, t1, t2)
                            {
                                continue;
                            }
                            let fast = decision_code_i64(
                                &codes,
                                &sv_codes,
                                &alpha_codes,
                                1i64 << one_exp,
                                t1,
                                t2,
                                bias,
                            );
                            let exact = decision_code_i128(
                                &codes,
                                &sv_codes,
                                &alpha_codes,
                                1i128 << one_exp,
                                t1,
                                t2,
                                bias,
                            );
                            assert_eq!(
                                fast, exact,
                                "d_bits {d_bits} guard {guard} n_feat {n_feat} \
                                 n_sv {n_sv} t1 {t1} t2 {t2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decision_boundary_widths_are_exhaustively_pinned() {
        // For each (guard, n_feat) shape, find the widest D_bits the rule
        // admits and drive the fast path with fully saturated codes at
        // that exact boundary width — the worst representable input.
        let mut rng = Gen::new(0xB0B);
        for guard in [0i32, 3] {
            for n_feat in [1usize, 2, 53] {
                let boundary = (2..=40u32)
                    .filter(|&d| quant_dot_fits_i64(guard, d, n_feat))
                    .max()
                    .expect("some width fits");
                assert!(!quant_dot_fits_i64(guard, boundary + 1, n_feat));
                assert!(i128_envelope_ok(
                    guard as u32,
                    boundary,
                    n_feat,
                    2,
                    2,
                    10,
                    10
                ));
                let lo = -(1i64 << (boundary - 1));
                let hi = (1i64 << (boundary - 1)) - 1;
                let one_exp = 2 * (guard as u32 + boundary - 1);
                for fill in [lo, hi] {
                    let codes = vec![fill; n_feat];
                    let sv_codes = DenseMatrix::from_rows(&[vec![lo; n_feat], vec![hi; n_feat]]);
                    let alpha_codes = rng.codes(2, 2);
                    let fast = decision_code_i64(
                        &codes,
                        &sv_codes,
                        &alpha_codes,
                        1i64 << one_exp,
                        10,
                        10,
                        -7,
                    );
                    let exact = decision_code_i128(
                        &codes,
                        &sv_codes,
                        &alpha_codes,
                        1i128 << one_exp,
                        10,
                        10,
                        -7,
                    );
                    assert_eq!(fast, exact, "guard {guard} n_feat {n_feat} d {boundary}");
                }
            }
        }
    }
}
