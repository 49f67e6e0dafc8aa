//! Fused DSP micro-kernels — the extraction counterpart of
//! `seizure_core::kernels`.
//!
//! The feature-extraction front end (filtfilt → Pan–Tompkins →
//! PSD) used to run as a sequence of whole-buffer sweeps: one pass per
//! biquad section per direction, then three more passes (derivative,
//! squaring, moving-window integration) with three intermediate buffers.
//! At ~5k windows/s that chain — not classification — was the fleet
//! throughput wall. This module collapses those sweeps:
//!
//! - [`sos_chain_in_place`] / [`sos_chain_reverse_in_place`] run *all*
//!   biquad sections chained through registers per sample (const-generic
//!   specialisation for 1–4 sections, 4×-unrolled over contiguous
//!   chunks), so an N-section cascade costs one memory sweep instead of
//!   N. Per-section recurrences are evaluated with exactly the
//!   expression ordering of [`crate::filter::Biquad::filter_in_place`],
//!   so the fused chain is **bit-identical** to the per-section sweeps.
//! - [`filtfilt_fused`] is the zero-phase forward–backward pass on top:
//!   the backward pass iterates in reverse instead of physically
//!   reversing the buffer twice (same arithmetic, same bits).
//! - [`qrs_energy_into`] fuses derivative → squaring → moving-window
//!   integration into one pass with a `win`-sample ring buffer instead
//!   of two full-signal intermediates, preserving the accumulator
//!   ordering of the staged implementation (add the incoming squared
//!   sample, then retire the outgoing one) — bit-identical again.
//! - [`RfftPlan`] is a planned real-input FFT: half-size complex
//!   transform plus conjugate-symmetry untangling, with precomputed
//!   twiddle tables, emitting one-sided bin powers directly. Roughly
//!   half the work of the zero-padded full complex FFT it replaces; the
//!   swap is *not* bit-identical (different butterfly ordering and
//!   table-exact twiddles) and is tolerance-pinned by the
//!   `dsp_kernel_equivalence` suite instead.
//!
//! The kernels are written over [`Scalar`], whose only implementation
//! is `f64`. Plain mul/add only — no FMA contraction — so they reproduce
//! the scalar reference expressions bit for bit.

// lint: allow-file(hot-index) — fused-kernel idiom: subscripts are ring/window
// offsets whose bounds are established once at entry (length asserts, `min`
// clamps); hoisting each access would defeat the chain fusion.
use std::cmp::Ordering;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Numeric precision of the extraction compute path. Extraction runs in
/// double precision only, so [`ExtractPrecision::F64`] is the one
/// variant.
///
/// Kept only as the argument of [`crate::qrs::PanTompkins::detect_into_with`]
/// and `ecg_features::psd_feats::psd_features_with`, the names
/// fleetbench's per-layer replay compiles against, until the benchmark
/// decouples from extraction internals (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtractPrecision {
    /// Double precision — bit-identical to the pre-kernel pipeline.
    #[default]
    F64,
}

/// Scalar element the fused kernels are written over; `f64` is the only
/// implementation.
///
/// Deliberately minimal: plain arithmetic plus conversions. No `mul_add`
/// — Rust does not contract `a * b + c` into FMA, and the kernels must
/// reproduce the scalar reference expressions exactly.
pub trait Scalar:
    Copy
    + Default
    + PartialOrd
    + std::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity, the identity of [`Scalar::maxv`].
    const NEG_INFINITY: Self;
    /// Conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Conversion to `f64`.
    fn to_f64(self) -> f64;
    /// IEEE 754 total order, mirroring `f64::total_cmp`.
    fn total_cmp(&self, other: &Self) -> Ordering;
    /// NaN-ignoring maximum, mirroring `f64::max`.
    fn maxv(self, other: Self) -> Self;
    /// Monotone unsigned key for the IEEE total order:
    /// `a.total_cmp(&b) == a.sort_key().cmp(&b.sort_key())` for every pair,
    /// NaNs and signed zeros included. Sorting packed `(key, payload)`
    /// integers compares registers instead of chasing floats through the
    /// cache, which is what makes the peak filter's sort cheap.
    fn sort_key(self) -> u64;
    /// A `(descending sort key, index)` candidate, `(u64, usize)` for
    /// `f64`. Ascending `Ord` on the packed value is descending IEEE total
    /// order on the sample value with ascending index as the tie-break.
    type Packed: Copy + Ord + Default;
    /// Packs `(!self.sort_key(), index)` into [`Scalar::Packed`].
    fn pack_desc(self, index: usize) -> Self::Packed;
    /// Recovers the index from a packed candidate.
    fn unpack_index(packed: Self::Packed) -> usize;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }
    #[inline(always)]
    fn maxv(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn sort_key(self) -> u64 {
        // Same bit manipulation as `f64::total_cmp`: flip the magnitude
        // bits of negative values so the integer order matches the IEEE
        // total order, then flip the sign bit for an unsigned compare.
        let b = self.to_bits() as i64;
        ((b ^ (((b >> 63) as u64) >> 1) as i64) as u64) ^ (1 << 63)
    }
    type Packed = (u64, usize);
    #[inline(always)]
    fn pack_desc(self, index: usize) -> Self::Packed {
        (!self.sort_key(), index)
    }
    #[inline(always)]
    fn unpack_index(packed: Self::Packed) -> usize {
        packed.1
    }
}

/// Maximum cascade length the register-chained kernels accept; longer
/// cascades fall back to per-section sweeps at the call site (the
/// Pan–Tompkins band-pass has 2 sections).
pub const MAX_CHAIN_SECTIONS: usize = 8;

/// One biquad section's coefficients at precision `T` (direct form I,
/// `a0` normalised to 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SosSection<T> {
    /// Feed-forward `b0`.
    pub b0: T,
    /// Feed-forward `b1`.
    pub b1: T,
    /// Feed-forward `b2`.
    pub b2: T,
    /// Feedback `a1`.
    pub a1: T,
    /// Feedback `a2`.
    pub a2: T,
}

impl<T: Scalar> SosSection<T> {
    /// Converts `f64` design coefficients (`b`, `a1..a2`) to precision
    /// `T`.
    pub fn from_f64(b: [f64; 3], a: [f64; 2]) -> Self {
        SosSection {
            b0: T::from_f64(b[0]),
            b1: T::from_f64(b[1]),
            b2: T::from_f64(b[2]),
            a1: T::from_f64(a[0]),
            a2: T::from_f64(a[1]),
        }
    }
}

/// Direct-form-I delay state of one section.
#[derive(Debug, Clone, Copy, Default)]
struct SosState<T> {
    x1: T,
    x2: T,
    y1: T,
    y2: T,
}

/// One sample through a K-section chain held entirely in registers.
/// The per-section expression matches `Biquad::filter_in_place` exactly
/// (left-to-right sums, no contraction), so chaining per sample instead
/// of sweeping per section changes nothing numerically: each section
/// sees the identical input sequence either way.
#[inline(always)]
fn chain_step<T: Scalar, const K: usize>(
    secs: &[SosSection<T>; K],
    st: &mut [SosState<T>; K],
    xi: T,
) -> T {
    let mut v = xi;
    let mut k = 0;
    while k < K {
        let s = &secs[k];
        let q = &mut st[k];
        let yi = s.b0 * v + s.b1 * q.x1 + s.b2 * q.x2 - s.a1 * q.y1 - s.a2 * q.y2;
        q.x2 = q.x1;
        q.x1 = v;
        q.y2 = q.y1;
        q.y1 = yi;
        v = yi;
        k += 1;
    }
    v
}

/// Forward fused sweep at a monomorphised section count.
fn chain_forward<T: Scalar, const K: usize>(secs: &[SosSection<T>; K], x: &mut [T]) {
    let mut st = [SosState::<T>::default(); K];
    let mut chunks = x.chunks_exact_mut(4);
    for c in &mut chunks {
        c[0] = chain_step(secs, &mut st, c[0]);
        c[1] = chain_step(secs, &mut st, c[1]);
        c[2] = chain_step(secs, &mut st, c[2]);
        c[3] = chain_step(secs, &mut st, c[3]);
    }
    for v in chunks.into_remainder() {
        *v = chain_step(secs, &mut st, *v);
    }
}

/// Backward fused sweep: iterates `x` from the end, which is exactly
/// "reverse, filter forward, reverse" without the two buffer flips.
fn chain_backward<T: Scalar, const K: usize>(secs: &[SosSection<T>; K], x: &mut [T]) {
    let mut st = [SosState::<T>::default(); K];
    let mut chunks = x.rchunks_exact_mut(4);
    for c in &mut chunks {
        c[3] = chain_step(secs, &mut st, c[3]);
        c[2] = chain_step(secs, &mut st, c[2]);
        c[1] = chain_step(secs, &mut st, c[1]);
        c[0] = chain_step(secs, &mut st, c[0]);
    }
    for v in chunks.into_remainder().iter_mut().rev() {
        *v = chain_step(secs, &mut st, *v);
    }
}

/// Converts a length-checked section slice into the fixed-size array
/// reference the monomorphised chain kernels take. Shared by the scalar
/// and lane dispatchers, which only call it from a match arm that just
/// proved `secs.len() == K`.
#[inline(always)]
pub(crate) fn sos_array<T: Scalar, const K: usize>(secs: &[SosSection<T>]) -> &[SosSection<T>; K] {
    // lint: allow(hot-panic) — the dispatch arm matched `secs.len() == K`.
    secs.try_into().expect("dispatch arm matched the length")
}

macro_rules! dispatch_chain {
    ($fn:ident, $secs:expr, $x:expr) => {
        match $secs.len() {
            0 => {}
            1 => $fn::<T, 1>(sos_array($secs), $x),
            2 => $fn::<T, 2>(sos_array($secs), $x),
            3 => $fn::<T, 3>(sos_array($secs), $x),
            4 => $fn::<T, 4>(sos_array($secs), $x),
            5 => $fn::<T, 5>(sos_array($secs), $x),
            6 => $fn::<T, 6>(sos_array($secs), $x),
            7 => $fn::<T, 7>(sos_array($secs), $x),
            8 => $fn::<T, 8>(sos_array($secs), $x),
            // lint: allow(hot-panic) — documented `# Panics` contract; longer cascades are a caller bug.
            n => panic!("sos chain supports at most {MAX_CHAIN_SECTIONS} sections, got {n}"),
        }
    };
}

/// Cascade-fused forward filtering: every section chained through
/// registers per sample, one sweep over `x`, zero initial state.
/// Bit-identical to filtering `x` through each section in turn.
///
/// # Panics
///
/// Panics when `secs.len() > MAX_CHAIN_SECTIONS`; callers with longer
/// cascades should sweep per section instead.
pub fn sos_chain_in_place<T: Scalar>(secs: &[SosSection<T>], x: &mut [T]) {
    dispatch_chain!(chain_forward, secs, x)
}

/// Cascade-fused *backward* filtering: processes `x` from last sample to
/// first with zero initial state. Bit-identical to reversing `x`,
/// running [`sos_chain_in_place`], and reversing again.
///
/// # Panics
///
/// Panics when `secs.len() > MAX_CHAIN_SECTIONS`.
pub fn sos_chain_reverse_in_place<T: Scalar>(secs: &[SosSection<T>], x: &mut [T]) {
    dispatch_chain!(chain_backward, secs, x)
}

/// Zero-phase forward–backward filtering with odd reflection padding
/// that leaves the result *inside* the padded work buffer: after the
/// call the `x.len()` filtered samples live at `ext[pad..pad + x.len()]`
/// and the returned value is `pad`. Callers that feed the filtered
/// signal straight into another kernel slice `ext` directly and skip the
/// copy-out that [`filtfilt_fused`] pays.
///
/// # Panics
///
/// Panics when `secs.len() > MAX_CHAIN_SECTIONS`.
pub fn filtfilt_fused_in_ext<T: Scalar>(
    secs: &[SosSection<T>],
    x: &[T],
    ext: &mut Vec<T>,
) -> usize {
    if x.is_empty() || secs.is_empty() {
        ext.clear();
        ext.extend_from_slice(x);
        return 0;
    }
    let two = T::from_f64(2.0);
    let pad = (6 * secs.len()).min(x.len() - 1).max(1);
    ext.clear();
    ext.reserve(x.len() + 2 * pad);
    for i in (1..=pad).rev() {
        ext.push(two * x[0] - x[i.min(x.len() - 1)]);
    }
    ext.extend_from_slice(x);
    let n = x.len();
    for i in 1..=pad {
        let idx = n.saturating_sub(1 + i.min(n - 1));
        ext.push(two * x[n - 1] - x[idx]);
    }
    sos_chain_in_place(secs, ext);
    sos_chain_reverse_in_place(secs, ext);
    pad
}

/// Zero-phase forward–backward filtering with odd reflection padding.
/// This is the fused engine under
/// [`crate::filter::SosCascade::filtfilt_into`] (which documents the
/// padding scheme).
///
/// `ext` is the reusable padded work buffer, `out` receives the
/// `x.len()` filtered samples. Copy-free variant:
/// [`filtfilt_fused_in_ext`].
///
/// # Panics
///
/// Panics when `secs.len() > MAX_CHAIN_SECTIONS`.
pub fn filtfilt_fused<T: Scalar>(
    secs: &[SosSection<T>],
    x: &[T],
    ext: &mut Vec<T>,
    out: &mut Vec<T>,
) {
    let pad = filtfilt_fused_in_ext(secs, x, ext);
    out.clear();
    out.extend_from_slice(&ext[pad..pad + x.len()]);
}

/// Fused Pan–Tompkins energy stage: five-point derivative → squaring →
/// moving-window integration in a single pass over `filtered`, writing
/// the integrated (MWI) signal into `out`.
///
/// Replaces three sweeps and two full-signal intermediates with one
/// sweep and a `win`-sample ring buffer (`ring`, reused across calls).
/// The accumulator ordering of the staged implementation is preserved —
/// add the incoming squared sample, then subtract the one leaving the
/// window — so the result is bit-identical to
/// `five_point_derivative_into` + squaring + `moving_average_into`.
///
/// # Panics
///
/// Panics when `win == 0`.
pub fn qrs_energy_into<T: Scalar>(
    filtered: &[T],
    fs: f64,
    win: usize,
    ring: &mut Vec<T>,
    out: &mut Vec<T>,
) {
    // lint: allow(hot-panic) — entry-gate contract check (once per call,
    // not per sample); a zero window is a caller bug.
    assert!(win >= 1, "integration window must be >= 1 sample");
    let n = filtered.len();
    out.clear();
    out.reserve(n);
    ring.clear();
    ring.resize(win, T::ZERO);
    let fs_t = T::from_f64(fs);
    let two = T::from_f64(2.0);
    let eight = T::from_f64(8.0);
    let mut acc = T::ZERO;
    let mut pos = 0usize;
    // Derivative samples with a negative index clamp to x[0]; once i >= 4
    // every tap is in range and the interior loop indexes directly.
    let head = n.min(4);
    let x0 = filtered.first().copied().unwrap_or(T::ZERO);
    for i in 0..head {
        let g = |j: isize| -> T {
            if j < 0 {
                x0
            } else {
                filtered[(j as usize).min(n - 1)]
            }
        };
        let i = i as isize;
        let d = (two * g(i) + g(i - 1) - g(i - 3) - two * g(i - 4)) * fs_t / eight;
        let sq = d * d;
        acc += sq;
        if i as usize >= win {
            acc -= ring[pos];
        }
        ring[pos] = sq;
        pos += 1;
        if pos == win {
            pos = 0;
        }
        let effective = (i as usize + 1).min(win);
        // lint: allow(float-det) — exact integer→float cast (effective <= win).
        out.push(acc / T::from_f64(effective as f64));
    }
    for i in head.max(4)..n {
        let d = (two * filtered[i] + filtered[i - 1] - filtered[i - 3] - two * filtered[i - 4])
            * fs_t
            / eight;
        let sq = d * d;
        acc += sq;
        if i >= win {
            acc -= ring[pos];
        }
        ring[pos] = sq;
        pos += 1;
        if pos == win {
            pos = 0;
        }
        let effective = (i + 1).min(win);
        // lint: allow(float-det) — exact integer→float cast (effective <= win).
        out.push(acc / T::from_f64(effective as f64));
    }
}

/// A complex value at precision `T` — the planned real FFT's working
/// element (the public f64 [`crate::fft::Complex`] stays as-is for the
/// reference transform).
#[derive(Debug, Clone, Copy, Default)]
struct Cpx<T> {
    re: T,
    im: T,
}

impl<T: Scalar> Cpx<T> {
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Cpx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Cpx {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Cpx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// Iterative radix-2 forward FFT with a precomputed twiddle table
/// (`tw[j] = e^{-2πi·j/n}` for `j < n/2`, indexed by stride).
fn fft_pow2<T: Scalar>(buf: &mut [Cpx<T>], tw: &[Cpx<T>]) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    debug_assert!(n.is_power_of_two());
    debug_assert_eq!(tw.len(), n / 2);
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        let mut base = 0;
        while base < n {
            for k in 0..len / 2 {
                let w = tw[k * stride];
                let u = buf[base + k];
                let v = buf[base + k + len / 2].mul(w);
                buf[base + k] = u.add(v);
                buf[base + k + len / 2] = u.sub(v);
            }
            base += len;
        }
        len <<= 1;
    }
}

/// Planned real-input FFT of size `n` (a power of two): packs the real
/// signal into an `n/2`-point complex transform and untangles the
/// conjugate-symmetric spectrum, emitting the one-sided bin powers
/// `|X_k|²` for `k = 0..=n/2` directly — the only thing spectral
/// estimation needs. Twiddle tables are computed once (in `f64`, then
/// narrowed to `T`) and reused across calls; after construction the plan
/// allocates nothing.
///
/// Roughly halves the arithmetic of the zero-padded full complex
/// transform it replaces. Not bit-identical to it (different butterfly
/// ordering and table-exact twiddles); `dsp_kernel_equivalence` pins the
/// difference at ≤1e-12 relative on the spectra the feature path uses.
#[derive(Debug, Clone)]
pub struct RfftPlan<T> {
    n: usize,
    half: usize,
    /// Half-size FFT twiddles `e^{-2πi·j/(n/2)}`, `j < n/4`.
    tw: Vec<Cpx<T>>,
    /// Untangling twiddles `e^{-2πi·k/n}`, `k <= n/4`.
    wr: Vec<Cpx<T>>,
    buf: Vec<Cpx<T>>,
}

impl<T: Scalar> RfftPlan<T> {
    /// Builds a plan for real input of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and `n >= 2`.
    pub fn new(n: usize) -> Self {
        // lint: allow(hot-panic) — documented `# Panics` contract: plan
        // construction is setup, not the streaming path.
        assert!(
            n.is_power_of_two() && n >= 2,
            "rfft length must be a power of two >= 2, got {n}"
        );
        let half = n / 2;
        let tw = (0..half / 2)
            .map(|j| {
                let ang = -2.0 * std::f64::consts::PI * j as f64 / half as f64;
                Cpx {
                    re: T::from_f64(ang.cos()),
                    im: T::from_f64(ang.sin()),
                }
            })
            .collect();
        let wr = (0..=half / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                Cpx {
                    re: T::from_f64(ang.cos()),
                    im: T::from_f64(ang.sin()),
                }
            })
            .collect();
        RfftPlan {
            n,
            half,
            tw,
            wr,
            buf: vec![Cpx::default(); half],
        }
    }

    /// Planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length (never: `n >= 2`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Computes the one-sided bin powers `|X_k|²`, `k = 0..=n/2`, of the
    /// real signal `x` (zero-padded to `n`; `x` longer than `n` is
    /// truncated). Clears and refills `power`.
    pub fn power_into(&mut self, x: &[T], power: &mut Vec<f64>) {
        let half = self.half;
        for (k, slot) in self.buf.iter_mut().enumerate() {
            slot.re = x.get(2 * k).copied().unwrap_or(T::ZERO);
            slot.im = x.get(2 * k + 1).copied().unwrap_or(T::ZERO);
        }
        fft_pow2(&mut self.buf, &self.tw);
        power.clear();
        power.reserve(half + 1);
        let z0 = self.buf[0];
        let dc = z0.re + z0.im;
        power.push((dc * dc).to_f64());
        for _ in 1..half {
            power.push(0.0);
        }
        let ny = z0.re - z0.im;
        power.push((ny * ny).to_f64());
        let h = T::from_f64(0.5);
        for k in 1..=half / 2 {
            let a = self.buf[k];
            let b = self.buf[half - k];
            // Even/odd split of the packed spectrum:
            //   E = (Z[k] + conj Z[half-k]) / 2
            //   O = -i/2 · (Z[k] - conj Z[half-k])
            // then X[k] = E + W·O and X[half-k] = conj(E - W·O) with
            // W = e^{-2πi·k/n}. Only magnitudes are emitted, so the
            // trailing conjugation is free.
            let er = (a.re + b.re) * h;
            let ei = (a.im - b.im) * h;
            let or_ = (a.im + b.im) * h;
            let oi = (b.re - a.re) * h;
            let w = self.wr[k];
            let ur = w.re * or_ - w.im * oi;
            let ui = w.re * oi + w.im * or_;
            let xr = er + ur;
            let xi = ei + ui;
            power[k] = (xr * xr + xi * xi).to_f64();
            if k != half - k {
                let yr = er - ur;
                let yi = ei - ui;
                power[half - k] = (yr * yr + yi * yi).to_f64();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft, Complex};
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};

    /// Uniform noise in `[-0.5, 0.5)`.
    fn noise(rng: &mut StdRng) -> f64 {
        rng.gen::<f64>() - 0.5
    }

    #[test]
    fn sort_key_orders_exactly_like_total_cmp() {
        let vals64: Vec<f64> = vec![
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals64 {
            for &b in &vals64 {
                assert_eq!(
                    a.total_cmp(&b),
                    Scalar::sort_key(a).cmp(&Scalar::sort_key(b)),
                    "f64 total order mismatch for {a:?} vs {b:?}"
                );
            }
        }
        // Random sweep: sorting by key must equal sorting by total_cmp.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut xs: Vec<f64> = (0..512).map(|_| noise(&mut rng) * 1e6).collect();
        let mut by_key = xs.clone();
        xs.sort_by(|a, b| a.total_cmp(b));
        by_key.sort_by_key(|v| Scalar::sort_key(*v));
        for (a, b) in xs.iter().zip(by_key.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Packed candidates: ascending packed order == descending value,
        // ascending index.
        for (a, b) in [(2.0f64, 1.0f64), (1.0, -1.0), (-0.0, -1.5)] {
            assert!(a.pack_desc(7) < b.pack_desc(3), "{a} vs {b}");
            assert!(<f64 as Scalar>::unpack_index(a.pack_desc(7)) == 7);
        }
        assert!(1.5f64.pack_desc(3) < 1.5f64.pack_desc(9));
    }

    #[test]
    fn chain_matches_per_section_sweeps_bitwise() {
        let fs = 128.0;
        let mut rng = StdRng::seed_from_u64(0xD5);
        let sig: Vec<f64> = (0..777).map(|_| noise(&mut rng)).collect();
        for n_sections in 1..=4usize {
            let cascade =
                crate::filter::SosCascade::butterworth_bandpass(5.0, 15.0, fs, n_sections).unwrap();
            let mut swept = sig.clone();
            cascade.filter_in_place_reference(&mut swept);
            let secs: Vec<SosSection<f64>> = cascade
                .sections()
                .iter()
                .map(|s| SosSection::from_f64(s.b, s.a))
                .collect();
            let mut fused = sig.clone();
            sos_chain_in_place(&secs, &mut fused);
            for (a, b) in swept.iter().zip(fused.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Backward chain == reverse ∘ forward ∘ reverse.
            let mut rev = sig.clone();
            rev.reverse();
            sos_chain_in_place(&secs, &mut rev);
            rev.reverse();
            let mut back = sig.clone();
            sos_chain_reverse_in_place(&secs, &mut back);
            for (a, b) in rev.iter().zip(back.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn qrs_energy_matches_staged_passes_bitwise() {
        let fs = 128.0;
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for n in [1usize, 3, 4, 5, 19, 640] {
            let sig: Vec<f64> = (0..n).map(|_| noise(&mut rng)).collect();
            for win in [1usize, 2, 19, 64] {
                let d = crate::filter::five_point_derivative(&sig, fs);
                let sq: Vec<f64> = d.iter().map(|v| v * v).collect();
                let staged = crate::filter::moving_average(&sq, win).unwrap();
                let (mut ring, mut fused) = (Vec::new(), Vec::new());
                qrs_energy_into(&sig, fs, win, &mut ring, &mut fused);
                assert_eq!(staged.len(), fused.len());
                for (a, b) in staged.iter().zip(fused.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n {n} win {win}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn chain_rejects_oversized_cascades() {
        let secs = vec![SosSection::<f64>::default(); MAX_CHAIN_SECTIONS + 1];
        let mut x = [0.0; 4];
        sos_chain_in_place(&secs, &mut x);
    }

    #[test]
    fn rfft_plan_matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(0xACE);
        for n in [2usize, 4, 8, 64, 128] {
            let sig: Vec<f64> = (0..n).map(|_| noise(&mut rng)).collect();
            let naive = dft(&sig
                .iter()
                .map(|&v| Complex::new(v, 0.0))
                .collect::<Vec<_>>());
            let mut plan = RfftPlan::<f64>::new(n);
            let mut power = Vec::new();
            plan.power_into(&sig, &mut power);
            assert_eq!(power.len(), n / 2 + 1);
            for (k, &p) in power.iter().enumerate() {
                let expect = naive[k].norm_sqr();
                assert!(
                    (p - expect).abs() <= 1e-9 * expect.max(1.0),
                    "n {n} bin {k}: {p} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn rfft_plan_zero_pads_like_reference() {
        let sig = vec![1.0; 20];
        let mut plan = RfftPlan::<f64>::new(32);
        let mut power = Vec::new();
        plan.power_into(&sig, &mut power);
        let reference = crate::fft::rfft(&sig);
        for (k, &p) in power.iter().enumerate() {
            let expect = reference[k].norm_sqr();
            assert!((p - expect).abs() <= 1e-9 * expect.max(1.0), "bin {k}");
        }
    }
}
