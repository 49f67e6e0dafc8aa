//! Float micro-kernels: the one place every float decision path computes
//! its dots and kernel values.
//!
//! Three ideas, shared by per-row inference ([`decision`]), batch
//! inference ([`decision_batch_into`]) and the SMO Gram fill
//! ([`kernel_row_into`]):
//!
//! * **fixed-order 4-accumulator dot** ([`dot4`]) — four independent
//!   partial sums over `chunks_exact(4)` plus a sequential tail, combined
//!   as `(s0 + s1) + (s2 + s3) + tail`. The order is *fixed*, so every
//!   caller gets bit-identical values for the same operand pair;
//! * **precomputed squared norms** ([`sq_norms`]) — the RBF kernel is
//!   evaluated as `exp(-γ·(‖u‖² + ‖v‖² − 2·u·v))`, turning the per-pair
//!   distance loop into one dot product against cached norms;
//! * **SV-panel tiling** — the batch kernel walks the support-vector
//!   block in panels of [`SV_PANEL`] rows and streams every test row
//!   against the hot panel, so a panel is read from cache `n_rows` times
//!   instead of main memory. Per test row the accumulation order is still
//!   bias-then-SVs-in-order, i.e. **bit-identical** to [`decision`].
//!
//! Switching the zip-fold dot to this module changes float summation
//! order (and the RBF distance form), so decision values may drift from
//! the pre-micro-kernel code by O(ε); the equivalence suite pins that
//! drift at ≤ 1e-12 with identical classifications on a real cohort,
//! while per-row / batch / streaming paths remain *mutually* bit-exact.

// lint: allow-file(hot-index) — panel-tiled kernel: row/SV subscripts are loop
// indices bounded by `n_rows`/`n_sv`, the lengths of the slices they index.
use crate::kernel::Kernel;
use ecg_features::DenseMatrix;

/// Support-vector rows per cache tile of the batch kernel.
pub const SV_PANEL: usize = 32;

/// Fixed-order 4-accumulator dot product: the workspace-wide float dot
/// micro-kernel ([`crate::kernel::dot`] delegates here).
///
/// # Panics
///
/// Panics in debug builds when lengths differ.
#[inline]
pub fn dot4(u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), v.len());
    let mut cu = u.chunks_exact(4);
    let mut cv = v.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (a, b) in (&mut cu).zip(&mut cv) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    let mut tail = 0.0f64;
    for (a, b) in cu.remainder().iter().zip(cv.remainder()) {
        tail += a * b;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Squared Euclidean norm of one row via the shared dot micro-kernel.
#[inline]
pub fn sq_norm(u: &[f64]) -> f64 {
    dot4(u, u)
}

/// Per-row squared norms of a dense block — the cache that lets RBF run
/// on plain dots (`‖u − v‖² = ‖u‖² + ‖v‖² − 2·u·v`).
pub fn sq_norms(rows: &DenseMatrix<f64>) -> Vec<f64> {
    rows.rows().map(sq_norm).collect()
}

/// Whether `kernel` consumes the precomputed squared norms (only RBF
/// does; dot-product kernels ignore them).
#[inline]
pub fn uses_norms(kernel: Kernel) -> bool {
    matches!(kernel, Kernel::Rbf { .. })
}

/// Kernel evaluation through the micro-kernel: one [`dot4`] plus the
/// kernel's scalar tail. `u_sq`/`v_sq` are the operands' squared norms
/// (ignored unless [`uses_norms`]). The RBF distance is clamped at 0 —
/// cancellation in the norm form can produce `-ε` where the direct
/// difference form is exactly ≥ 0.
#[inline]
pub fn eval_prenorm(kernel: Kernel, u: &[f64], u_sq: f64, v: &[f64], v_sq: f64) -> f64 {
    match kernel {
        Kernel::Linear => dot4(u, v),
        Kernel::Polynomial { degree } => (dot4(u, v) + 1.0).powi(degree as i32),
        Kernel::Rbf { gamma } => {
            let d2 = (u_sq + v_sq - 2.0 * dot4(u, v)).max(0.0);
            (-gamma * d2).exp()
        }
    }
}

/// Fills `out` with `k(x, rowᵢ)` for every row of `rows` — the SMO Gram
/// row fill. `x_sq` is `x`'s squared norm, `row_sq` the rows' norms
/// (both ignored unless [`uses_norms`]; pass empty slices then).
pub fn kernel_row_into(
    kernel: Kernel,
    x: &[f64],
    x_sq: f64,
    rows: &DenseMatrix<f64>,
    row_sq: &[f64],
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(rows.n_rows());
    if uses_norms(kernel) {
        out.extend(
            rows.rows()
                .zip(row_sq.iter())
                .map(|(r, &r_sq)| eval_prenorm(kernel, x, x_sq, r, r_sq)),
        );
    } else {
        out.extend(rows.rows().map(|r| eval_prenorm(kernel, x, 0.0, r, 0.0)));
    }
}

/// One decision value through the micro-kernel:
/// `bias + Σᵢ αᵢyᵢ·k(x, svᵢ)` with the accumulation fixed at
/// bias-first-then-SV-order — the order the batch kernel reproduces.
pub fn decision(
    kernel: Kernel,
    x: &[f64],
    svs: &DenseMatrix<f64>,
    sv_sq: &[f64],
    alpha_y: &[f64],
    bias: f64,
) -> f64 {
    let x_sq = if uses_norms(kernel) { sq_norm(x) } else { 0.0 };
    let mut acc = bias;
    for (sv, (&ay, &v_sq)) in svs.rows().zip(alpha_y.iter().zip(sv_sq.iter())) {
        acc += ay * eval_prenorm(kernel, x, x_sq, sv, v_sq);
    }
    acc
}

/// Batch decision values, SV-panel tiled: clears and refills `out` with
/// one value per row of `rows`, bit-identical to mapping [`decision`]
/// over the rows.
///
/// Panels walk the SV block in order and every row accumulates its
/// panel-partial sums in SV order on top of the bias, so the per-row
/// addition sequence is exactly the per-row kernel's.
pub fn decision_batch_into(
    kernel: Kernel,
    rows: &DenseMatrix<f64>,
    svs: &DenseMatrix<f64>,
    sv_sq: &[f64],
    alpha_y: &[f64],
    bias: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(rows.n_rows(), bias);
    let row_sq: Vec<f64> = if uses_norms(kernel) {
        sq_norms(rows)
    } else {
        // lint: allow(hot-alloc) — `Vec::new` does not allocate: empty
        // placeholder for kernels without norm terms.
        Vec::new()
    };
    let n_sv = svs.n_rows();
    let mut panel_start = 0usize;
    while panel_start < n_sv {
        let panel_end = (panel_start + SV_PANEL).min(n_sv);
        for (i, x) in rows.rows().enumerate() {
            let x_sq = if uses_norms(kernel) { row_sq[i] } else { 0.0 };
            let mut acc = out[i];
            for j in panel_start..panel_end {
                let v_sq = if uses_norms(kernel) { sv_sq[j] } else { 0.0 };
                acc += alpha_y[j] * eval_prenorm(kernel, x, x_sq, svs.row(j), v_sq);
            }
            out[i] = acc;
        }
        panel_start = panel_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};

    /// Seeded row generator for deterministic sweeps.
    struct Gen(StdRng);

    impl Gen {
        fn new(seed: u64) -> Self {
            Gen(StdRng::seed_from_u64(seed))
        }

        fn f64(&mut self) -> f64 {
            self.0.gen_range(-1.0..1.0)
        }

        fn row(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.f64()).collect()
        }
    }

    #[test]
    fn dot4_matches_reference_within_eps() {
        let mut rng = Gen::new(7);
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 12, 53, 100] {
            let u = rng.row(len);
            let v = rng.row(len);
            let reference: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
            let got = dot4(&u, &v);
            assert!(
                (got - reference).abs() <= 1e-12 * (1.0 + reference.abs()),
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn dot4_is_deterministic_and_order_fixed() {
        let mut rng = Gen::new(9);
        let u = rng.row(53);
        let v = rng.row(53);
        assert_eq!(dot4(&u, &v).to_bits(), dot4(&u, &v).to_bits());
    }

    #[test]
    fn sq_norm_is_dot_with_self() {
        let mut rng = Gen::new(11);
        let u = rng.row(19);
        assert_eq!(sq_norm(&u).to_bits(), dot4(&u, &u).to_bits());
        assert!(sq_norm(&u) >= 0.0);
    }

    #[test]
    fn eval_prenorm_matches_kernel_eval_within_tolerance() {
        let mut rng = Gen::new(13);
        for kernel in [
            Kernel::Linear,
            Kernel::Polynomial { degree: 2 },
            Kernel::Polynomial { degree: 3 },
            Kernel::Rbf { gamma: 0.7 },
        ] {
            for _ in 0..20 {
                let u = rng.row(53);
                let v = rng.row(53);
                let want = kernel.eval(&u, &v);
                let got = eval_prenorm(kernel, &u, sq_norm(&u), &v, sq_norm(&v));
                assert!(
                    (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "{kernel:?}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn rbf_self_similarity_is_exactly_one() {
        // ‖u‖² + ‖u‖² − 2·u·u cancels to 0 exactly (identical dot calls),
        // so k(u, u) = exp(0) = 1 — the clamp keeps -ε out.
        let mut rng = Gen::new(17);
        let u = rng.row(31);
        let k = eval_prenorm(Kernel::Rbf { gamma: 2.0 }, &u, sq_norm(&u), &u, sq_norm(&u));
        assert_eq!(k, 1.0);
    }

    #[test]
    fn batch_is_bit_identical_to_per_row_across_panel_boundaries() {
        let mut rng = Gen::new(23);
        // SV counts straddling the panel size: 1, a partial panel, one
        // full panel, full+partial, several panels.
        for n_sv in [1usize, 7, SV_PANEL, SV_PANEL + 5, 3 * SV_PANEL + 1] {
            let svs = DenseMatrix::from_rows(&(0..n_sv).map(|_| rng.row(11)).collect::<Vec<_>>());
            let alpha_y: Vec<f64> = (0..n_sv).map(|_| rng.f64()).collect();
            let sv_sq = sq_norms(&svs);
            let rows = DenseMatrix::from_rows(&(0..17).map(|_| rng.row(11)).collect::<Vec<_>>());
            for kernel in [
                Kernel::Linear,
                Kernel::Polynomial { degree: 2 },
                Kernel::Rbf { gamma: 0.3 },
            ] {
                let mut batch = Vec::new();
                decision_batch_into(kernel, &rows, &svs, &sv_sq, &alpha_y, 0.25, &mut batch);
                for (i, x) in rows.rows().enumerate() {
                    let want = decision(kernel, x, &svs, &sv_sq, &alpha_y, 0.25);
                    assert_eq!(
                        batch[i].to_bits(),
                        want.to_bits(),
                        "row {i}, n_sv {n_sv}, {kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_row_fill_matches_pairwise_eval() {
        let mut rng = Gen::new(29);
        let rows = DenseMatrix::from_rows(&(0..9).map(|_| rng.row(13)).collect::<Vec<_>>());
        let norms = sq_norms(&rows);
        let x = rng.row(13);
        let x_sq = sq_norm(&x);
        for kernel in [Kernel::Polynomial { degree: 2 }, Kernel::Rbf { gamma: 1.1 }] {
            let mut out = Vec::new();
            kernel_row_into(kernel, &x, x_sq, &rows, &norms, &mut out);
            assert_eq!(out.len(), rows.n_rows());
            for (j, r) in rows.rows().enumerate() {
                let want = eval_prenorm(kernel, &x, x_sq, r, norms[j]);
                assert_eq!(out[j].to_bits(), want.to_bits(), "row {j} {kernel:?}");
            }
        }
    }

    #[test]
    fn empty_sv_block_yields_bias() {
        let svs = DenseMatrix::<f64>::with_cols(4);
        let mut out = Vec::new();
        let rows = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        decision_batch_into(Kernel::Linear, &rows, &svs, &[], &[], -0.5, &mut out);
        assert_eq!(out, vec![-0.5]);
        assert_eq!(
            decision(Kernel::Linear, rows.row(0), &svs, &[], &[], -0.5),
            -0.5
        );
    }
}
