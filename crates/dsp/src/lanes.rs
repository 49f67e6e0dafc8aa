//! Lane-batched structure-of-arrays DSP kernels — `L` independent
//! windows in lock-step.
//!
//! The fused scalar kernels in [`crate::kernels`] left the filtfilt
//! recurrence at its latency floor: each biquad output feeds the next
//! sample's feedback taps, so one window's forward pass is a serial
//! chain of ~4–5-cycle FP adds no amount of unrolling can hide. The
//! recurrence is serial *within* a signal but fully independent
//! *across* signals — and the fleet, the streaming scheduler and the
//! batch assembler all naturally present many same-length windows at
//! once. This module processes `L` of them together by transposing the
//! group into `[T; L]` structure-of-arrays elements: each sample step
//! advances `L` independent dependency chains, which pipeline
//! concurrently (and autovectorize — `[f64; 4]` elementwise
//! arithmetic maps straight onto vector registers) instead of leaving
//! the FP units idle between dependent adds.
//!
//! **Bit-identity is the design constraint.** Every lane kernel applies
//! *exactly* the scalar kernel's expression, in the scalar kernel's
//! order, independently per lane — plain mul/add on each `[T; L]`
//! element, no horizontal reductions, no re-association, no FMA
//! contraction (Rust never contracts `a * b + c`). Lane `l` of a group
//! therefore computes the *same sequence of scalar operations* the
//! fused scalar path would run on that window alone, and is
//! bit-identical to it; `lane_equivalence` pins this on a real cohort
//! for L ∈ {2, 4, 8}.
//!
//! Only the *dense* phases are laned: the cascade-fused zero-phase
//! band-pass ([`lane_filtfilt_from_f64_in_ext`]) and the fused
//! derivative → squaring → moving-window-integration energy kernel
//! ([`lane_qrs_energy_lanes_into`]). Branchy phases (peak picking,
//! adaptive thresholds/search-back, HRV/Lorenz/Burg) diverge per window
//! after a handful of samples, so they run scalar per lane on the
//! per-lane slices the energy sweep unpacks as it goes. At the paper's
//! 3-min windows a lane group's SoA signal (8 lanes × 23 040 `f64`
//! samples, 1.5 MB) outgrows the core's L2, so every kernel here makes
//! as few passes over it as it can: the pack rides the forward filter
//! pass and the unpack rides the energy pass. The planned-rfft Welch
//! stage stays scalar per lane too, deliberately: its input is the *EDR*
//! series, whose length (and therefore `nperseg` and plan size) varies
//! per window, so cross-window lanes would have to pad to a common
//! length and change the spectra; at ~2 µs of an ~84 µs window it is
//! not where the wall is.

// lint: allow-file(hot-index) — lane-kernel idiom: subscripts are lane/ring
// offsets bounded by the `[T; L]` element type and entry-gate length asserts.
use crate::kernels::{Scalar, SosSection, MAX_CHAIN_SECTIONS};

/// One SoA sample through a K-section chain: the scalar `chain_step`
/// expression evaluated per lane, every lane in lock-step, all sections
/// fused so the K independent per-section recurrences pipeline across
/// samples. Coefficients are shared (one filter design, `L` signals).
///
/// The state is *chained*, not per-section: in a cascade, section `k`'s
/// input taps `x1`/`x2` are by definition section `k-1`'s outputs at
/// the previous two samples — exactly its `y1`/`y2` taps *before* this
/// sample's update. Only section 0 (fed by the raw signal) keeps real
/// `x1`/`x2` taps, so a K-section step holds `2 + 2K` `[T; L]` vectors
/// of live state instead of `4K`. At the pipeline's K = 2 / L = 4 this
/// is the difference between fitting the vector register file and
/// spilling delay taps into the recurrence's critical path. The
/// substituted values are the same bits, in the same expression, so
/// every lane remains bit-identical to the scalar kernel.
#[inline(always)]
fn lane_chain_step<T: Scalar, const K: usize, const L: usize>(
    secs: &[SosSection<T>; K],
    x1: &mut [T; L],
    x2: &mut [T; L],
    y1: &mut [[T; L]; K],
    y2: &mut [[T; L]; K],
    xi: [T; L],
) -> [T; L] {
    let mut v = xi;
    // Section k's x-taps: the raw signal's history for k = 0, section
    // k-1's pre-update y-taps after that.
    let mut fx1 = *x1;
    let mut fx2 = *x2;
    let mut k = 0;
    while k < K {
        let s = &secs[k];
        let mut yo = [T::ZERO; L];
        let mut l = 0;
        while l < L {
            let yi =
                s.b0 * v[l] + s.b1 * fx1[l] + s.b2 * fx2[l] - s.a1 * y1[k][l] - s.a2 * y2[k][l];
            yo[l] = yi;
            l += 1;
        }
        fx1 = y1[k];
        fx2 = y2[k];
        y2[k] = y1[k];
        y1[k] = yo;
        v = yo;
        k += 1;
    }
    *x2 = *x1;
    *x1 = xi;
    v
}

/// The live state of a K-section lane chain (see [`lane_chain_step`]).
struct LaneChain<T: Scalar, const K: usize, const L: usize> {
    x1: [T; L],
    x2: [T; L],
    y1: [[T; L]; K],
    y2: [[T; L]; K],
}

impl<T: Scalar, const K: usize, const L: usize> LaneChain<T, K, L> {
    /// Zero initial state.
    fn new() -> Self {
        LaneChain {
            x1: [T::ZERO; L],
            x2: [T::ZERO; L],
            y1: [[T::ZERO; L]; K],
            y2: [[T::ZERO; L]; K],
        }
    }

    #[inline(always)]
    fn step(&mut self, secs: &[SosSection<T>; K], xi: [T; L]) -> [T; L] {
        lane_chain_step(
            secs,
            &mut self.x1,
            &mut self.x2,
            &mut self.y1,
            &mut self.y2,
            xi,
        )
    }
}

/// Backward lane sweep: last SoA sample to first, zero initial state —
/// exactly "reverse, filter forward, reverse" per lane.
fn lane_chain_backward<T: Scalar, const K: usize, const L: usize>(
    secs: &[SosSection<T>; K],
    x: &mut [[T; L]],
) {
    let mut chain = LaneChain::<T, K, L>::new();
    for v in x.iter_mut().rev() {
        *v = chain.step(secs, *v);
    }
}

/// Forward lane sweep fused with packing its input: the odd-reflection
/// pad elements, then the windows' samples transposed into SoA one
/// L1-resident block at a time (the blocked shape of [`append_lanes`],
/// in reverse), then the tail pad — each element filtered as soon as it
/// is packed and only the filtered value appended to `ext`. The
/// unfiltered SoA signal never reaches memory.
fn lane_chain_forward_packed<T: Scalar, const K: usize, const L: usize>(
    secs: &[SosSection<T>; K],
    windows: &[&[f64]; L],
    pad: usize,
    ext: &mut Vec<[T; L]>,
) {
    let n = windows[0].len();
    let two = T::from_f64(2.0);
    let first: [T; L] = std::array::from_fn(|l| T::from_f64(windows[l][0]));
    let last: [T; L] = std::array::from_fn(|l| T::from_f64(windows[l][n - 1]));
    let mut chain = LaneChain::<T, K, L>::new();
    for i in (1..=pad).rev() {
        let j = i.min(n - 1);
        let xi = std::array::from_fn(|l| two * first[l] - T::from_f64(windows[l][j]));
        ext.push(chain.step(secs, xi));
    }
    let mut block = [[T::ZERO; L]; UNPACK_BLOCK];
    let mut start = 0;
    while start < n {
        let m = (n - start).min(UNPACK_BLOCK);
        for (l, w) in windows.iter().enumerate() {
            for (dst, &x) in block.iter_mut().zip(&w[start..start + m]) {
                dst[l] = T::from_f64(x);
            }
        }
        for &xi in &block[..m] {
            ext.push(chain.step(secs, xi));
        }
        start += m;
    }
    for i in 1..=pad {
        let idx = n.saturating_sub(1 + i.min(n - 1));
        let xi = std::array::from_fn(|l| two * last[l] - T::from_f64(windows[l][idx]));
        ext.push(chain.step(secs, xi));
    }
}

macro_rules! dispatch_lane_chain {
    ($fn:ident, $secs:expr, $($arg:expr),+) => {
        match $secs.len() {
            0 => {}
            1 => $fn::<T, 1, L>(crate::kernels::sos_array($secs), $($arg),+),
            2 => $fn::<T, 2, L>(crate::kernels::sos_array($secs), $($arg),+),
            3 => $fn::<T, 3, L>(crate::kernels::sos_array($secs), $($arg),+),
            4 => $fn::<T, 4, L>(crate::kernels::sos_array($secs), $($arg),+),
            5 => $fn::<T, 5, L>(crate::kernels::sos_array($secs), $($arg),+),
            6 => $fn::<T, 6, L>(crate::kernels::sos_array($secs), $($arg),+),
            7 => $fn::<T, 7, L>(crate::kernels::sos_array($secs), $($arg),+),
            8 => $fn::<T, 8, L>(crate::kernels::sos_array($secs), $($arg),+),
            // lint: allow(hot-panic) — documented `# Panics` contract; longer cascades are a caller bug.
            n => panic!("sos chain supports at most {MAX_CHAIN_SECTIONS} sections, got {n}"),
        }
    };
}

/// Cascade-fused backward filtering of `L` lanes at once; per lane
/// bit-identical to [`crate::kernels::sos_chain_reverse_in_place`].
///
/// # Panics
///
/// Panics when `secs.len() > MAX_CHAIN_SECTIONS`.
pub fn lane_sos_chain_reverse_in_place<T: Scalar, const L: usize>(
    secs: &[SosSection<T>],
    x: &mut [[T; L]],
) {
    dispatch_lane_chain!(lane_chain_backward, secs, x)
}

/// Lane-batched zero-phase forward–backward filtering of `L`
/// same-length `f64` windows while the odd-reflection padded SoA
/// extension is built. The AoS→SoA pack and the forward filter pass are
/// one sweep over the windows: the packed signal goes straight into the recurrence, and
/// only its filtered values are stored. After the call the filtered
/// samples live at `ext[pad..pad + n]` with `pad` returned, one
/// `[T; L]` element per sample position.
///
/// Per lane this evaluates exactly the expressions of
/// [`crate::kernels::filtfilt_fused_in_ext`] — same padding
/// arithmetic, same per-sample chain recurrence — so each lane is
/// bit-identical to the scalar fused path on that window alone.
///
/// # Panics
///
/// Panics when the windows' lengths differ and when
/// `secs.len() > MAX_CHAIN_SECTIONS`.
pub fn lane_filtfilt_from_f64_in_ext<T: Scalar, const L: usize>(
    secs: &[SosSection<T>],
    windows: &[&[f64]; L],
    ext: &mut Vec<[T; L]>,
) -> usize {
    let n = windows[0].len();
    for w in windows.iter() {
        // lint: allow(hot-panic) — documented `# Panics` contract: ragged
        // lane groups are a caller bug (entry gate, once per lane).
        assert_eq!(w.len(), n, "lane windows must share one length");
    }
    if n == 0 || secs.is_empty() {
        ext.clear();
        ext.extend((0..n).map(|i| std::array::from_fn(|l| T::from_f64(windows[l][i]))));
        return 0;
    }
    let pad = (6 * secs.len()).min(n - 1).max(1);
    ext.clear();
    ext.reserve(n + 2 * pad);
    dispatch_lane_chain!(lane_chain_forward_packed, secs, windows, pad, ext);
    lane_sos_chain_reverse_in_place(secs, ext);
    pad
}

/// Lane-batched fused Pan–Tompkins energy stage: five-point derivative
/// → squaring → moving-window integration over `L` lanes in one sweep,
/// with a `[T; L]` accumulator and a `win`-element SoA ring. Per lane
/// the accumulator ordering (add the incoming squared sample, then
/// retire the outgoing one, divide by the effective window) is exactly
/// [`crate::kernels::qrs_energy_into`]'s — bit-identical per lane.
///
/// The same sweep unpacks the result for the branchy per-lane stages:
/// each block of energy values is computed into an L1-resident SoA
/// block and scattered into `mwi[lane]` right away, and the block of
/// `filtered` it read goes to `filtered_lanes[lane]` — so neither the
/// SoA energy signal nor a second pass over `filtered` ever touches
/// memory. Every destination is cleared first.
///
/// # Panics
///
/// Panics when `win == 0`.
pub fn lane_qrs_energy_lanes_into<T: Scalar, const L: usize>(
    filtered: &[[T; L]],
    fs: f64,
    win: usize,
    ring: &mut Vec<[T; L]>,
    mwi: &mut [Vec<T>; L],
    filtered_lanes: &mut [Vec<T>; L],
) {
    // lint: allow(hot-panic) — entry-gate contract check (once per call,
    // not per sample); a zero window is a caller bug.
    assert!(win >= 1, "integration window must be >= 1 sample");
    let n = filtered.len();
    for d in mwi.iter_mut().chain(filtered_lanes.iter_mut()) {
        d.clear();
        d.reserve(n);
    }
    ring.clear();
    ring.resize(win, [T::ZERO; L]);
    let fs_t = T::from_f64(fs);
    let two = T::from_f64(2.0);
    let eight = T::from_f64(8.0);
    let mut acc = [T::ZERO; L];
    let mut pos = 0usize;
    let x0 = filtered.first().copied().unwrap_or([T::ZERO; L]);
    // The first four samples reach before the signal start: clamp to the
    // first sample (and, for signals shorter than that, the last).
    let head = |j: isize| -> [T; L] {
        if j < 0 {
            x0
        } else {
            filtered[(j as usize).min(n - 1)]
        }
    };
    let mut block = [[T::ZERO; L]; UNPACK_BLOCK];
    for (b, src) in filtered.chunks(UNPACK_BLOCK).enumerate() {
        for (k, out) in block.iter_mut().take(src.len()).enumerate() {
            let i = b * UNPACK_BLOCK + k;
            let (a, b1, c, d4) = if i >= 4 {
                (
                    filtered[i],
                    filtered[i - 1],
                    filtered[i - 3],
                    filtered[i - 4],
                )
            } else {
                let i = i as isize;
                (head(i), head(i - 1), head(i - 3), head(i - 4))
            };
            let mut sq = [T::ZERO; L];
            let mut l = 0;
            while l < L {
                let d = (two * a[l] + b1[l] - c[l] - two * d4[l]) * fs_t / eight;
                sq[l] = d * d;
                acc[l] += sq[l];
                l += 1;
            }
            if i >= win {
                let mut l = 0;
                while l < L {
                    acc[l] -= ring[pos][l];
                    l += 1;
                }
            }
            ring[pos] = sq;
            pos += 1;
            if pos == win {
                pos = 0;
            }
            // lint: allow(float-det) — exact integer→float cast (effective <= win).
            let effective = T::from_f64(((i + 1).min(win)) as f64);
            *out = std::array::from_fn(|l| acc[l] / effective);
        }
        append_lanes(&block[..src.len()], mwi);
        append_lanes(src, filtered_lanes);
    }
}

/// Block length of the SoA→AoS unpacks: small enough that a block of
/// `[T; L]` elements stays L1-resident while all `L` lanes gather from it.
const UNPACK_BLOCK: usize = 128;

/// Appends every lane of `src` to its destination buffer, one
/// L1-resident block at a time: the SoA array crosses the cache
/// hierarchy once while the inner loops keep the strided-gather shape
/// the autovectorizer handles well (an element-wise scatter to `L`
/// destinations measures ~1.7x slower at L = 4).
fn append_lanes<T: Scalar, const L: usize>(src: &[[T; L]], dsts: &mut [Vec<T>; L]) {
    for block in src.chunks(UNPACK_BLOCK) {
        for (l, d) in dsts.iter_mut().enumerate() {
            d.extend(block.iter().map(|v| v[l]));
        }
    }
}

/// SoA→AoS unpack of one lane: copies lane `lane` of `src` into `dst`
/// (cleared first). The branchy per-window stages run on these scalar
/// slices.
///
/// # Panics
///
/// Panics when `lane >= L`.
pub fn deinterleave_into<T: Scalar, const L: usize>(src: &[[T; L]], lane: usize, dst: &mut Vec<T>) {
    // lint: allow(hot-panic) — documented `# Panics` contract: an
    // out-of-range lane is a caller bug (entry gate, once per unpack).
    assert!(lane < L, "lane {lane} out of range for L = {L}");
    dst.clear();
    dst.reserve(src.len());
    dst.extend(src.iter().map(|v| v[lane]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::SosCascade;
    use crate::kernels::{filtfilt_fused_in_ext, qrs_energy_into};
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};

    /// Uniform noise in `[-0.5, 0.5)`.
    fn noise(rng: &mut StdRng) -> f64 {
        rng.gen::<f64>() - 0.5
    }

    fn signals(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n).map(|_| noise(&mut rng)).collect())
            .collect()
    }

    fn secs_t<T: Scalar>(cascade: &SosCascade) -> Vec<SosSection<T>> {
        cascade
            .sections()
            .iter()
            .map(|s| SosSection::from_f64(s.b, s.a))
            .collect()
    }

    fn lane_filtfilt_matches_scalar_bitwise<const L: usize>() {
        let fs = 128.0;
        for n in [5usize, 17, 513] {
            let sigs = signals(n, L, 0xFACE ^ n as u64);
            for n_sections in [1usize, 2] {
                let cascade = SosCascade::butterworth_bandpass(5.0, 15.0, fs, n_sections).unwrap();
                let secs = secs_t::<f64>(&cascade);
                let windows: [&[f64]; L] = std::array::from_fn(|l| sigs[l].as_slice());
                let mut ext = Vec::new();
                let pad = lane_filtfilt_from_f64_in_ext(&secs, &windows, &mut ext);
                let mut lane_out = Vec::new();
                let mut scalar_ext = Vec::new();
                for (l, sig) in sigs.iter().enumerate() {
                    deinterleave_into(&ext[pad..pad + n], l, &mut lane_out);
                    let spad = filtfilt_fused_in_ext(&secs, sig, &mut scalar_ext);
                    assert_eq!(pad, spad);
                    for (i, (a, b)) in lane_out
                        .iter()
                        .zip(scalar_ext[spad..spad + n].iter())
                        .enumerate()
                    {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "n {n} sections {n_sections} lane {l} sample {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_filtfilt_matches_scalar_bitwise_all_widths() {
        lane_filtfilt_matches_scalar_bitwise::<2>();
        lane_filtfilt_matches_scalar_bitwise::<4>();
        lane_filtfilt_matches_scalar_bitwise::<8>();
    }

    fn lane_energy_matches_scalar_bitwise<const L: usize>() {
        let fs = 128.0;
        for n in [1usize, 4, 19, 127, 128, 129, 640] {
            let sigs = signals(n, L, 0xBEEF ^ n as u64);
            let soa: Vec<[f64; L]> = (0..n)
                .map(|i| std::array::from_fn(|l| sigs[l][i]))
                .collect();
            for win in [1usize, 2, 19, 64] {
                let mut ring = Vec::new();
                let mut mwi: [Vec<f64>; L] = std::array::from_fn(|_| vec![7.0]);
                let mut unpacked: [Vec<f64>; L] = std::array::from_fn(|_| vec![7.0]);
                lane_qrs_energy_lanes_into(&soa, fs, win, &mut ring, &mut mwi, &mut unpacked);
                let (mut sring, mut smwi) = (Vec::new(), Vec::new());
                for (l, sig) in sigs.iter().enumerate() {
                    // The filtered input comes back unpacked, lane by lane.
                    assert_eq!(&unpacked[l], sig, "n {n} lane {l}");
                    qrs_energy_into(sig, fs, win, &mut sring, &mut smwi);
                    assert_eq!(mwi[l].len(), smwi.len());
                    for (i, (a, b)) in mwi[l].iter().zip(smwi.iter()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "n {n} win {win} lane {l} sample {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_energy_matches_scalar_bitwise_all_widths() {
        lane_energy_matches_scalar_bitwise::<2>();
        lane_energy_matches_scalar_bitwise::<4>();
        lane_energy_matches_scalar_bitwise::<8>();
    }

    #[test]
    fn empty_and_trivial_inputs_mirror_scalar() {
        let a: [&[f64]; 2] = [&[], &[]];
        let mut ext: Vec<[f64; 2]> = vec![[1.0, 2.0]];
        let cascade = SosCascade::butterworth_bandpass(5.0, 15.0, 128.0, 1).unwrap();
        let secs = secs_t::<f64>(&cascade);
        assert_eq!(lane_filtfilt_from_f64_in_ext(&secs, &a, &mut ext), 0);
        assert!(ext.is_empty());
        let one: [&[f64]; 2] = [&[1.5], &[-2.5]];
        let pad = lane_filtfilt_from_f64_in_ext(&secs, &one, &mut ext);
        let mut sext = Vec::new();
        for (l, sig) in [[1.5].as_slice(), [-2.5].as_slice()].iter().enumerate() {
            let spad = filtfilt_fused_in_ext(&secs, sig, &mut sext);
            assert_eq!(pad, spad);
            assert_eq!(ext[pad][l].to_bits(), sext[spad].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn mismatched_lane_lengths_panic() {
        let a: [&[f64]; 2] = [&[1.0, 2.0], &[1.0]];
        let mut ext = Vec::new();
        let cascade = SosCascade::butterworth_bandpass(5.0, 15.0, 128.0, 1).unwrap();
        lane_filtfilt_from_f64_in_ext(&secs_t::<f64>(&cascade), &a, &mut ext);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn deinterleave_rejects_bad_lane() {
        let soa = [[0.0f64; 2]; 4];
        let mut dst = Vec::new();
        deinterleave_into(&soa, 2, &mut dst);
    }

    #[test]
    fn one_pass_deinterleave_matches_per_lane() {
        let mut rng = StdRng::seed_from_u64(7);
        let soa: Vec<[f64; 4]> = (0..257)
            .map(|_| std::array::from_fn(|_| noise(&mut rng)))
            .collect();
        // The blocked unpack appends after whatever a lane already holds.
        let mut all: [Vec<f64>; 4] = std::array::from_fn(|_| vec![9.0; 3]);
        append_lanes(&soa, &mut all);
        let mut one = Vec::new();
        for (l, got) in all.iter().enumerate() {
            deinterleave_into(&soa, l, &mut one);
            assert_eq!(got[..3], [9.0; 3]);
            assert_eq!(got.len(), 3 + one.len());
            for (a, b) in got[3..].iter().zip(one.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
