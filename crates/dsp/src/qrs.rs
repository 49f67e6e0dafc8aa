//! Pan–Tompkins QRS (R-peak) detection.
//!
//! Classic pipeline: band-pass (5–15 Hz) → five-point derivative → squaring
//! → moving-window integration (150 ms) → adaptive dual thresholds with a
//! 200 ms refractory period and a search-back pass for missed beats.
//!
//! The detector returns both R-peak sample indices and the R-wave amplitude
//! measured on the band-passed signal; the amplitudes drive the EDR
//! (ECG-derived respiration) extraction downstream.

// lint: allow-file(hot-index) — detector idiom: indices are peak/sample
// positions produced by scans over the same slices they index, bounded by the
// signal length validated in `validate_and_cache`.
use crate::error::DspError;
use crate::filter::{five_point_derivative_into, moving_average_into, FiltFiltScratch, SosCascade};
use crate::kernels::{self, ExtractPrecision, SosSection};
use crate::lanes;

/// One detected R peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RPeak {
    /// Sample index into the analysed signal.
    pub index: usize,
    /// Time in seconds from the start of the signal.
    pub time_s: f64,
    /// R-wave amplitude on the band-passed signal (arbitrary units).
    pub amplitude: f64,
}

/// Detector output: peaks plus the RR tachogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QrsDetection {
    /// Detected R peaks in temporal order.
    pub peaks: Vec<RPeak>,
}

impl QrsDetection {
    /// RR intervals (s) between successive peaks; `len = peaks - 1`.
    pub fn rr_intervals(&self) -> Vec<f64> {
        self.peaks
            .windows(2)
            .map(|w| w[1].time_s - w[0].time_s)
            .collect()
    }

    /// Times (s) of each RR interval, conventionally the time of the second
    /// beat of the pair.
    pub fn rr_times(&self) -> Vec<f64> {
        self.peaks.iter().skip(1).map(|p| p.time_s).collect()
    }

    /// R-wave amplitudes in temporal order.
    pub fn amplitudes(&self) -> Vec<f64> {
        self.peaks.iter().map(|p| p.amplitude).collect()
    }

    /// Mean heart rate in beats per minute; `None` with fewer than two
    /// peaks.
    pub fn mean_heart_rate_bpm(&self) -> Option<f64> {
        let rr = self.rr_intervals();
        if rr.is_empty() {
            return None;
        }
        Some(60.0 / crate::stats::mean(&rr))
    }
}

/// Pan–Tompkins detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanTompkins {
    /// Band-pass low corner (Hz). Default 5.
    pub band_lo_hz: f64,
    /// Band-pass high corner (Hz). Default 15.
    pub band_hi_hz: f64,
    /// Moving-window integration length (s). Default 0.150.
    pub integration_window_s: f64,
    /// Refractory period (s) during which a second QRS cannot occur.
    /// Default 0.200.
    pub refractory_s: f64,
    /// Search-back trigger: if no QRS is found within this multiple of the
    /// running RR average, the threshold is halved and the interval
    /// re-scanned. Default 1.66.
    pub searchback_factor: f64,
}

impl Default for PanTompkins {
    fn default() -> Self {
        PanTompkins {
            band_lo_hz: 5.0,
            band_hi_hz: 15.0,
            integration_window_s: 0.150,
            refractory_s: 0.200,
            searchback_factor: 1.66,
        }
    }
}

/// Reusable work buffers for [`PanTompkins::detect_into`].
///
/// The batch detector allocates several full-signal-length vectors per
/// call (band-passed signal, derivative, squared signal, integrated
/// signal, peak candidate lists). A streaming monitor classifying one
/// window per stride cannot afford that churn, so the scratch keeps every
/// buffer alive across calls — after the first window the detection hot
/// path performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct DetectScratch {
    filtfilt: FiltFiltScratch,
    filtered: Vec<f64>,
    deriv: Vec<f64>,
    squared: Vec<f64>,
    mwi: Vec<f64>,
    /// Integration-window ring for the fused energy kernel.
    ring: Vec<f64>,
    /// Padded filtfilt work buffer for the fused path: the filtered
    /// samples live at `ext[pad..pad + n]` after the band-pass and are
    /// sliced in place, never copied out.
    ext: Vec<f64>,
    /// Candidate list for the quadratic reference peak filter.
    peak_cand: Vec<usize>,
    /// Packed `(descending total-order key, index)` candidates for the
    /// bucket-grid filter.
    peak_cand_keyed: Vec<(u64, usize)>,
    local_peaks: Vec<usize>,
    /// Bucket grid for the exact minimum-distance peak filter.
    peak_buckets: Vec<usize>,
    qrs: Vec<usize>,
    rr_recent: Vec<f64>,
    /// Cached band-pass design, keyed by `(band_lo, band_hi, fs)`.
    bandpass: Option<(f64, f64, f64, SosCascade)>,
}

/// Reusable work buffers for [`PanTompkins::detect_lanes_into`]: the
/// SoA extension/ring of one lane group plus the per-lane scalar
/// slices and decision buffers the branchy stages run on. One scratch
/// per `(T, L)` instantiation; self-contained (own band-pass cache), so
/// lane callers need no [`DetectScratch`].
pub struct LaneDetectScratch<T: kernels::Scalar, const L: usize> {
    /// Padded SoA filtfilt work buffer; filtered samples live at
    /// `ext[pad..pad + n]` and are sliced in place.
    ext: Vec<[T; L]>,
    /// Integration-window SoA ring for the lane energy kernel.
    ring: Vec<[T; L]>,
    /// Per-lane moving-window-integrated energy, unpacked by the energy
    /// sweep itself for the scalar decision stages.
    lane_mwi: [Vec<T>; L],
    /// Per-lane band-passed signal, unpacked in the same sweep for peak
    /// refinement.
    lane_filtered: [Vec<T>; L],
    /// Packed peak candidates (see [`kernels::Scalar::Packed`]).
    peak_cand: Vec<T::Packed>,
    local_peaks: Vec<usize>,
    peak_buckets: Vec<usize>,
    qrs: Vec<usize>,
    rr_recent: Vec<f64>,
    /// Cached band-pass design, keyed by `(band_lo, band_hi, fs)`.
    bandpass: Option<(f64, f64, f64, SosCascade)>,
}

impl<T: kernels::Scalar, const L: usize> Default for LaneDetectScratch<T, L> {
    fn default() -> Self {
        LaneDetectScratch {
            ext: Vec::new(),
            ring: Vec::new(),
            lane_mwi: std::array::from_fn(|_| Vec::new()),
            lane_filtered: std::array::from_fn(|_| Vec::new()),
            peak_cand: Vec::new(),
            local_peaks: Vec::new(),
            peak_buckets: Vec::new(),
            qrs: Vec::new(),
            rr_recent: Vec::new(),
            bandpass: None,
        }
    }
}

impl<T: kernels::Scalar, const L: usize> std::fmt::Debug for LaneDetectScratch<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneDetectScratch")
            .field("lanes", &L)
            .field("ext_capacity", &self.ext.capacity())
            .finish_non_exhaustive()
    }
}

impl PanTompkins {
    /// Runs the detector on `ecg` sampled at `fs` Hz.
    ///
    /// One-shot convenience over [`PanTompkins::detect_into`] (which the
    /// streaming path uses with a persistent [`DetectScratch`]); both
    /// produce bit-identical detections.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::TooShort`] for signals shorter than two seconds
    /// (the adaptive thresholds need a learning phase) and
    /// [`DspError::InvalidParameter`] for invalid `fs` or corner
    /// frequencies.
    pub fn detect(&self, ecg: &[f64], fs: f64) -> Result<QrsDetection, DspError> {
        let mut scratch = DetectScratch::default();
        let mut out = QrsDetection::default();
        self.detect_into(ecg, fs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Scratch-reusing detector: clears and refills `out.peaks`, keeping
    /// all intermediate buffers in `scratch` so repeated calls allocate
    /// nothing after warm-up. Bit-identical to [`PanTompkins::detect`].
    ///
    /// The whole sample-rate pipeline — zero-phase band-pass, the fused
    /// derivative → squaring → integration energy kernel, the bucket-grid
    /// peak filter and the adaptive thresholding/search-back/refinement
    /// stages — runs through the fused kernels, bit-identical to the
    /// pre-fusion [`PanTompkins::detect_into_reference`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PanTompkins::detect`]; on error `out` is left
    /// cleared.
    pub fn detect_into(
        &self,
        ecg: &[f64],
        fs: f64,
        scratch: &mut DetectScratch,
        out: &mut QrsDetection,
    ) -> Result<(), DspError> {
        out.peaks.clear();
        let (min_len, win) = self.validate_and_cache(ecg, fs, scratch)?;
        // lint: allow(hot-panic) — `validate_and_cache` installed the
        // band-pass on the line above; absence is unreachable.
        let bp = &scratch.bandpass.as_ref().expect("cached band-pass").3;
        let refractory = (self.refractory_s * fs).round() as usize;
        // 1) Band-pass; the filtered samples stay inside the padded work
        //    buffer (no copy-out pass), downstream stages slice it.
        //    2–4) fused derivative/squaring/MWI.
        let filtered: &[f64] = if bp.len() <= kernels::MAX_CHAIN_SECTIONS {
            let mut secs = [SosSection::<f64>::default(); kernels::MAX_CHAIN_SECTIONS];
            for (dst, s) in secs.iter_mut().zip(bp.sections().iter()) {
                *dst = SosSection::from_f64(s.b, s.a);
            }
            let pad = kernels::filtfilt_fused_in_ext(&secs[..bp.len()], ecg, &mut scratch.ext);
            &scratch.ext[pad..pad + ecg.len()]
        } else {
            bp.filtfilt_into(ecg, &mut scratch.filtfilt, &mut scratch.filtered);
            &scratch.filtered
        };
        kernels::qrs_energy_into(filtered, fs, win, &mut scratch.ring, &mut scratch.mwi);
        // 5a) Local maxima with the exact bucket-grid filter,
        // 5b–6) adaptive thresholds, search-back, refinement.
        local_maxima_into(
            &scratch.mwi,
            refractory.max(1),
            &mut scratch.peak_cand_keyed,
            &mut scratch.local_peaks,
            &mut scratch.peak_buckets,
        );
        self.decide_from_mwi(
            fs,
            win,
            min_len,
            &scratch.mwi,
            filtered,
            &scratch.local_peaks,
            &mut scratch.qrs,
            &mut scratch.rr_recent,
            out,
        );
        Ok(())
    }

    /// [`PanTompkins::detect_into`] under the name fleetbench's per-layer
    /// replay compiles against; [`ExtractPrecision::F64`] is the only
    /// precision. Kept only for that replay until the benchmark decouples
    /// from extraction internals (ROADMAP item 1).
    ///
    /// # Errors
    ///
    /// Same contract as [`PanTompkins::detect`].
    pub fn detect_into_with(
        &self,
        ecg: &[f64],
        fs: f64,
        _precision: ExtractPrecision,
        scratch: &mut DetectScratch,
        out: &mut QrsDetection,
    ) -> Result<(), DspError> {
        self.detect_into(ecg, fs, scratch, out)
    }

    /// Lane-batched detector: runs `L` same-length windows in lock-step
    /// through the dense phases — the SoA cascade-fused zero-phase
    /// band-pass and the fused derivative → squaring → integration
    /// energy kernel ([`crate::lanes`]) — then finishes each lane with
    /// the *identical* scalar decision stages (bucket-grid peak filter,
    /// adaptive thresholds/search-back, peak refinement) on
    /// deinterleaved slices. Lane `j`'s detection is bit-identical to
    /// [`PanTompkins::detect_into`] on `windows[j]` alone.
    ///
    /// `outs[j]` receives lane `j`'s detection; all are cleared first.
    ///
    /// # Errors
    ///
    /// Same contract as [`PanTompkins::detect`] — the windows share one
    /// length, so a too-short group fails as a whole with every output
    /// cleared.
    ///
    /// # Panics
    ///
    /// Panics when `windows`/`outs` are not exactly `L` long or the
    /// windows' lengths differ.
    pub fn detect_lanes_into<T: kernels::Scalar, const L: usize>(
        &self,
        windows: &[&[f64]],
        fs: f64,
        scratch: &mut LaneDetectScratch<T, L>,
        outs: &mut [QrsDetection],
    ) -> Result<(), DspError> {
        // lint: allow(hot-panic) — documented `# Panics` contract: group
        // arity is fixed at L by the lane layout; a mismatch is a caller bug.
        let windows: &[&[f64]; L] = windows.try_into().expect("window group must be L long");
        // lint: allow(hot-panic) — same group-arity contract as above.
        assert_eq!(outs.len(), L, "output group must be L long");
        for o in outs.iter_mut() {
            o.peaks.clear();
        }
        let n = windows[0].len();
        let (min_len, win) = self.validate_and_cache_in(n, fs, &mut scratch.bandpass)?;
        // lint: allow(hot-panic) — `validate_and_cache` installed the
        // band-pass on the line above; absence is unreachable.
        let bp = &scratch.bandpass.as_ref().expect("cached band-pass").3;
        // The internal Pan–Tompkins design is always the 2-section
        // band-pass, well inside the chain kernels' section budget.
        debug_assert!(bp.len() <= kernels::MAX_CHAIN_SECTIONS);
        let refractory = (self.refractory_s * fs).round() as usize;
        let mut secs = [SosSection::<T>::default(); kernels::MAX_CHAIN_SECTIONS];
        for (dst, s) in secs.iter_mut().zip(bp.sections().iter()) {
            *dst = SosSection::from_f64(s.b, s.a);
        }
        let pad =
            lanes::lane_filtfilt_from_f64_in_ext(&secs[..bp.len()], windows, &mut scratch.ext);
        lanes::lane_qrs_energy_lanes_into(
            &scratch.ext[pad..pad + n],
            fs,
            win,
            &mut scratch.ring,
            &mut scratch.lane_mwi,
            &mut scratch.lane_filtered,
        );
        for (lane, out) in outs.iter_mut().enumerate() {
            local_maxima_into(
                &scratch.lane_mwi[lane],
                refractory.max(1),
                &mut scratch.peak_cand,
                &mut scratch.local_peaks,
                &mut scratch.peak_buckets,
            );
            self.decide_from_mwi(
                fs,
                win,
                min_len,
                &scratch.lane_mwi[lane],
                &scratch.lane_filtered[lane],
                &scratch.local_peaks,
                &mut scratch.qrs,
                &mut scratch.rr_recent,
                out,
            );
        }
        Ok(())
    }

    /// Pre-fusion reference detector: per-section filtfilt sweeps, three
    /// staged energy passes with full-signal intermediates, and the
    /// quadratic minimum-distance peak filter. Kept (on the shared
    /// [`DetectScratch`]) as the bit-identity reference for
    /// [`PanTompkins::detect_into`] and as the honest "f64 legacy" bench
    /// row.
    ///
    /// # Errors
    ///
    /// Same contract as [`PanTompkins::detect`]; on error `out` is left
    /// cleared.
    pub fn detect_into_reference(
        &self,
        ecg: &[f64],
        fs: f64,
        scratch: &mut DetectScratch,
        out: &mut QrsDetection,
    ) -> Result<(), DspError> {
        out.peaks.clear();
        let (min_len, win) = self.validate_and_cache(ecg, fs, scratch)?;
        // lint: allow(hot-panic) — `validate_and_cache` installed the
        // band-pass on the line above; absence is unreachable.
        let bp = &scratch.bandpass.as_ref().expect("cached band-pass").3;
        // 1) Band-pass, per-section sweeps with two buffer reversals.
        bp.filtfilt_into_reference(ecg, &mut scratch.filtfilt, &mut scratch.filtered);

        // 2) Derivative, 3) squaring, 4) moving-window integration.
        five_point_derivative_into(&scratch.filtered, fs, &mut scratch.deriv);
        scratch.squared.clear();
        scratch.squared.extend(scratch.deriv.iter().map(|v| v * v));
        moving_average_into(&scratch.squared, win, &mut scratch.mwi)?;

        // 5a) Local maxima, quadratic greedy distance filter.
        let refractory = (self.refractory_s * fs).round() as usize;
        local_maxima_into_reference(
            &scratch.mwi,
            refractory.max(1),
            &mut scratch.peak_cand,
            &mut scratch.local_peaks,
        );
        self.decide_from_mwi(
            fs,
            win,
            min_len,
            &scratch.mwi,
            &scratch.filtered,
            &scratch.local_peaks,
            &mut scratch.qrs,
            &mut scratch.rr_recent,
            out,
        );
        Ok(())
    }

    /// Validates inputs, refreshes the cached band-pass design and
    /// returns `(learning-phase length, integration window)`.
    fn validate_and_cache(
        &self,
        ecg: &[f64],
        fs: f64,
        scratch: &mut DetectScratch,
    ) -> Result<(usize, usize), DspError> {
        self.validate_and_cache_in(ecg.len(), fs, &mut scratch.bandpass)
    }

    /// [`PanTompkins::validate_and_cache`] against an arbitrary cache
    /// slot — shared by the scalar scratch and the lane scratches.
    fn validate_and_cache_in(
        &self,
        n: usize,
        fs: f64,
        cache: &mut Option<(f64, f64, f64, SosCascade)>,
    ) -> Result<(usize, usize), DspError> {
        if fs <= 0.0 {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: "must be positive",
            });
        }
        let min_len = (2.0 * fs) as usize;
        if n < min_len {
            return Err(DspError::TooShort {
                needed: min_len,
                got: n,
            });
        }
        let rebuild = match cache {
            Some((lo, hi, f, _)) => *lo != self.band_lo_hz || *hi != self.band_hi_hz || *f != fs,
            None => true,
        };
        if rebuild {
            let bp = SosCascade::butterworth_bandpass(self.band_lo_hz, self.band_hi_hz, fs, 1)?;
            *cache = Some((self.band_lo_hz, self.band_hi_hz, fs, bp));
        }
        let win = ((self.integration_window_s * fs).round() as usize).max(1);
        Ok((min_len, win))
    }

    /// Stages 5b–6, shared by every detector variant: adaptive dual
    /// thresholds with search-back over `local_peaks`/`mwi`, then peak
    /// refinement on the band-passed `filtered` signal. Generic over
    /// precision — threshold arithmetic runs in `T` (bit-identical to the
    /// historical `f64` code at `T = f64`), while RR/gap bookkeeping is
    /// index-derived and stays in `f64` so the search-back trigger logic
    /// is precision-independent.
    #[allow(clippy::too_many_arguments)]
    fn decide_from_mwi<T: kernels::Scalar>(
        &self,
        fs: f64,
        win: usize,
        min_len: usize,
        mwi: &[T],
        filtered: &[T],
        local_peaks: &[usize],
        qrs: &mut Vec<usize>,
        rr_recent: &mut Vec<f64>,
        out: &mut QrsDetection,
    ) {
        let refractory = (self.refractory_s * fs).round() as usize;
        let quarter = T::from_f64(0.25);
        let half_t = T::from_f64(0.5);
        let eighth = T::from_f64(0.125);
        let seven_eighths = T::from_f64(0.875);
        let three_quarters = T::from_f64(0.75);

        // Initialise thresholds from the first 2 s learning phase.
        let learn = &mwi[..min_len];
        let mut spki = max_t(learn) * quarter; // running signal peak
        let mut npki = mean_t(learn) * half_t; // running noise peak
        let mut threshold1 = npki + quarter * (spki - npki);

        qrs.clear();
        rr_recent.clear();
        let mut last_qrs_idx: Option<usize> = None;

        let mut i = 0usize;
        while i < local_peaks.len() {
            let p = local_peaks[i];
            let v = mwi[p];
            let since_last = last_qrs_idx.map(|l| p - l);
            let in_refractory = since_last.map(|d| d < refractory).unwrap_or(false);

            if !in_refractory && v > threshold1 {
                // Signal peak.
                if let Some(l) = last_qrs_idx {
                    // lint: allow(float-det) — exact integer→float cast (sample index).
                    let rr = (p - l) as f64 / fs;
                    rr_recent.push(rr);
                    if rr_recent.len() > 8 {
                        rr_recent.remove(0);
                    }
                }
                qrs.push(p);
                last_qrs_idx = Some(p);
                spki = eighth * v + seven_eighths * spki;
            } else if !in_refractory {
                // Noise peak.
                npki = eighth * v + seven_eighths * npki;
            }
            threshold1 = npki + quarter * (spki - npki);

            // Search-back: if too much time has elapsed without a QRS,
            // re-scan the gap with half threshold.
            if let (Some(l), false) = (last_qrs_idx, rr_recent.is_empty()) {
                let rr_avg = crate::stats::mean(rr_recent);
                // lint: allow(float-det) — exact integer→float cast (sample index).
                let gap = (p.saturating_sub(l)) as f64 / fs;
                if gap > self.searchback_factor * rr_avg {
                    let t2 = threshold1 * half_t;
                    // Find the biggest missed local peak strictly inside
                    // the gap that clears threshold2.
                    let cand = local_peaks
                        .iter()
                        .copied()
                        .filter(|&c| c > l + refractory && c + refractory < p)
                        .max_by(|&a, &b| mwi[a].total_cmp(&mwi[b]));
                    if let Some(c) = cand {
                        if mwi[c] > t2 {
                            // Insert in order.
                            qrs.push(c);
                            qrs.sort_unstable();
                            last_qrs_idx = qrs.last().copied();
                            spki = quarter * mwi[c] + three_quarters * spki;
                        }
                    }
                }
            }
            i += 1;
        }

        // 6) Refine peak positions on the band-passed signal: the MWI peak
        // lags the R wave by roughly the integration window; search a
        // window around each detection for the absolute maximum.
        let half = win;
        out.peaks.reserve(qrs.len());
        let mut last_index: Option<usize> = None;
        for &p in qrs.iter() {
            let lo = p.saturating_sub(half);
            let hi = (p + half / 2).min(filtered.len() - 1);
            // Conditional-move argmax: `best_v` always mirrors
            // `filtered[best]`, so the selection (strict `>`, earliest
            // index wins ties) is exactly the branchy scan's.
            let mut best = lo;
            let mut best_v = filtered[lo];
            for (off, &fj) in filtered[lo..=hi].iter().enumerate().skip(1) {
                let better = fj > best_v;
                best = if better { lo + off } else { best };
                best_v = if better { fj } else { best_v };
            }
            // De-duplicate refined peaks that collapse to the same R wave.
            if let Some(l) = last_index {
                if best <= l + refractory / 2 {
                    continue;
                }
            }
            last_index = Some(best);
            out.peaks.push(RPeak {
                index: best,
                // lint: allow(float-det) — exact integer→float cast (sample index).
                time_s: best as f64 / fs,
                amplitude: filtered[best].to_f64(),
            });
        }
    }
}

/// Sequential-fold mean in `T`, mirroring [`crate::stats::mean`]'s
/// accumulation order exactly (bit-identical at `T = f64`).
fn mean_t<T: kernels::Scalar>(x: &[T]) -> T {
    if x.is_empty() {
        return T::ZERO;
    }
    let mut s = T::ZERO;
    for &v in x {
        s += v;
    }
    // lint: allow(float-det) — exact integer→float cast (slice length).
    s / T::from_f64(x.len() as f64)
}

/// NaN-ignoring maximum in `T`, mirroring [`crate::stats::max`].
fn max_t<T: kernels::Scalar>(x: &[T]) -> T {
    x.iter().copied().fold(T::NEG_INFINITY, T::maxv)
}

/// Indices of strict local maxima separated by at least `min_dist` samples
/// (greedy, keeps the larger of two close peaks). One-shot wrapper over
/// [`local_maxima_into`], kept for the property tests.
#[cfg(test)]
fn local_maxima(x: &[f64], min_dist: usize) -> Vec<usize> {
    let mut cand = Vec::new();
    let mut kept = Vec::new();
    let mut buckets = Vec::new();
    local_maxima_into(x, min_dist, &mut cand, &mut kept, &mut buckets);
    kept
}

/// Scratch-reusing minimum-distance peak filter: `cand`/`buckets` are work
/// buffers, `kept` receives the result (all cleared first).
///
/// Exact-identical to [`local_maxima_into_reference`] but O(cand) instead
/// of O(cand × kept), with two constant-factor tricks on top:
///
/// - **Bitmask sweep.** The strict-maximum predicate is evaluated
///   branchlessly over 64-sample blocks into a peak bitmask (straight-line
///   compare/shift/or, amenable to vectorisation), then only the set bits
///   are walked — the sparse candidate hits (~10% of samples) never reach
///   the branch predictor as data-dependent branches.
/// - **Packed-key sort.** Candidates carry `(!value.sort_key(), index)`
///   packed into [`kernels::Scalar::Packed`] integers, whose ascending
///   order is exactly the reference's descending-`total_cmp` /
///   ascending-index stable sort — the sort compares registers instead of
///   re-reading `x` per comparison.
/// - **Roots first.** A candidate better than every other candidate
///   within `min_dist` cannot be suppressed, so the greedy keeps it, and
///   every candidate within `min_dist` of it is suppressed by it and,
///   never kept, suppresses nothing. Each of up to [`ROOT_ROUNDS`] linear
///   rounds keeps the roots among the remaining candidates (found on the
///   bucket grid: best of its bucket and better than both neighbouring
///   buckets' best) and drops their neighbours. What is left competes
///   only within itself, in the greedy's order, so only it is sorted —
///   a 3-min window's ~2 000 candidates made the full sort the
///   detector's costliest step.
///
/// The bucket grid then enforces the distance constraint: any already
/// kept peak within `min_dist` of candidate `c` lies in bucket
/// `c / min_dist ± 1`, and each bucket holds at most one kept peak (two
/// peaks in one bucket would be closer than `min_dist`), so acceptance
/// decisions agree with the reference candidate by candidate.
fn local_maxima_into<T: kernels::Scalar>(
    x: &[T],
    min_dist: usize,
    cand: &mut Vec<T::Packed>,
    kept: &mut Vec<usize>,
    buckets: &mut Vec<usize>,
) {
    kept.clear();
    let n = x.len();
    if n < 3 {
        return;
    }
    cand.clear();
    // Peak positions are 1..n-1; block k of the mask covers position
    // i + k. Candidate order (ascending index) matches the windows(3)
    // sweep exactly, so the packed-key sort below sees the same input.
    const BLOCK: usize = 64;
    let mut i = 1usize;
    while i + BLOCK < n {
        let w = &x[i - 1..i + BLOCK + 1];
        let mut mask = 0u64;
        for k in 0..BLOCK {
            mask |= u64::from((w[k + 1] > w[k]) & (w[k + 1] >= w[k + 2])) << k;
        }
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            cand.push(x[i + k].pack_desc(i + k));
        }
        i += BLOCK;
    }
    while i + 1 < n {
        let v = x[i];
        if (v > x[i - 1]) & (v >= x[i + 1]) {
            cand.push(v.pack_desc(i));
        }
        i += 1;
    }
    // Bucket grids are offset by one (candidate `c` lives in bucket
    // `c / min_dist + 1`) so both neighbours of every bucket exist.
    let nb = n / min_dist + 3;
    let bucket = |c: usize| c / min_dist + 1;
    // An empty bucket holds `usize::MAX`, which is never within
    // `min_dist` of a candidate, so the test needs no emptiness branch.
    let suppressed = |grid: &[usize], c: usize| {
        let b = bucket(c);
        let d = c
            .abs_diff(grid[b - 1])
            .min(c.abs_diff(grid[b]))
            .min(c.abs_diff(grid[b + 1]));
        d < min_dist
    };
    // `buckets` is the kept-peak grid; `kept` holds each bucket's best
    // remaining candidate (an index into `cand`) during the root rounds.
    buckets.clear();
    buckets.resize(nb, usize::MAX);
    for _ in 0..ROOT_ROUNDS {
        if cand.is_empty() {
            break;
        }
        kept.clear();
        kept.resize(nb, usize::MAX);
        for (j, &p) in cand.iter().enumerate() {
            let b = bucket(T::unpack_index(p));
            let better = kept[b] == usize::MAX || p < cand[kept[b]];
            kept[b] = if better { j } else { kept[b] };
        }
        let beats = |j: usize, k: usize| k == usize::MAX || cand[j] < cand[k];
        for b in 1..nb - 1 {
            let j = kept[b];
            if j != usize::MAX && beats(j, kept[b - 1]) && beats(j, kept[b + 1]) {
                buckets[b] = T::unpack_index(cand[j]);
            }
        }
        // Branch-free in-place compaction of the unresolved candidates.
        let mut left = 0;
        for r in 0..cand.len() {
            let p = cand[r];
            cand[left] = p;
            left += usize::from(!suppressed(buckets, T::unpack_index(p)));
        }
        cand.truncate(left);
    }
    cand.sort_unstable();
    for &p in cand.iter() {
        let c = T::unpack_index(p);
        if !suppressed(buckets, c) {
            buckets[bucket(c)] = c;
        }
    }
    // Each bucket holds at most one kept peak, so the grid read in bucket
    // order lists the kept peaks in ascending index order.
    kept.clear();
    kept.extend(buckets.iter().copied().filter(|&k| k != usize::MAX));
}

/// Root rounds of [`local_maxima_into`] before the leftover candidates
/// are sorted. Real ECG needs few (each round resolves the best of what
/// is left); the cap bounds the linear passes on adversarial inputs,
/// such as a ramp, where every round resolves only a handful.
const ROOT_ROUNDS: usize = 6;

/// Quadratic greedy reference for [`local_maxima_into`]: every candidate
/// is checked against every kept peak. Retained for
/// [`PanTompkins::detect_into_reference`] and the bucket-grid property
/// tests.
fn local_maxima_into_reference(
    x: &[f64],
    min_dist: usize,
    cand: &mut Vec<usize>,
    kept: &mut Vec<usize>,
) {
    cand.clear();
    cand.extend((1..x.len().saturating_sub(1)).filter(|&i| x[i] > x[i - 1] && x[i] >= x[i + 1]));
    // Enforce minimum distance, preferring larger peaks.
    cand.sort_by(|&a, &b| x[b].total_cmp(&x[a]));
    kept.clear();
    'outer: for &c in cand.iter() {
        for &k in kept.iter() {
            if c.abs_diff(k) < min_dist {
                continue 'outer;
            }
        }
        kept.push(c);
    }
    kept.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};
    use std::f64::consts::PI;

    /// Minimal synthetic ECG: Gaussian R spikes on a noisy wandering
    /// baseline, beats at the given times.
    fn synth_ecg(fs: f64, dur_s: f64, beat_times: &[f64]) -> Vec<f64> {
        let n = (fs * dur_s) as usize;
        let mut sig = vec![0.0f64; n];
        for (i, s) in sig.iter_mut().enumerate() {
            let t = i as f64 / fs;
            // Baseline wander + mild noise.
            *s += 0.15 * (2.0 * PI * 0.3 * t).sin();
            *s += 0.02 * (2.0 * PI * 17.3 * t).sin();
        }
        for &bt in beat_times {
            let centre = (bt * fs) as isize;
            for k in -20..=20isize {
                let idx = centre + k;
                if idx >= 0 && (idx as usize) < n {
                    let dt = k as f64 / fs;
                    // Narrow R wave (sigma ~ 12 ms) with small Q/S dips.
                    sig[idx as usize] += 1.0 * (-dt * dt / (2.0 * 0.012f64.powi(2))).exp();
                    sig[idx as usize] -=
                        0.15 * (-(dt - 0.035).powi(2) / (2.0 * 0.015f64.powi(2))).exp();
                }
            }
        }
        sig
    }

    fn regular_beats(start: f64, rr: f64, end: f64) -> Vec<f64> {
        let mut t = start;
        let mut v = Vec::new();
        while t < end {
            v.push(t);
            t += rr;
        }
        v
    }

    #[test]
    fn detects_regular_rhythm() {
        let fs = 128.0;
        let beats = regular_beats(0.5, 0.8, 29.5); // 75 bpm
        let ecg = synth_ecg(fs, 30.0, &beats);
        let det = PanTompkins::default().detect(&ecg, fs).unwrap();
        // Allow missing a couple at the edges.
        assert!(
            det.peaks.len() >= beats.len() - 2 && det.peaks.len() <= beats.len() + 1,
            "found {} of {}",
            det.peaks.len(),
            beats.len()
        );
        let hr = det.mean_heart_rate_bpm().unwrap();
        assert!((hr - 75.0).abs() < 3.0, "hr {hr}");
    }

    #[test]
    fn peak_positions_are_accurate() {
        let fs = 256.0;
        let beats = regular_beats(1.0, 1.0, 19.0);
        let ecg = synth_ecg(fs, 20.0, &beats);
        let det = PanTompkins::default().detect(&ecg, fs).unwrap();
        for p in &det.peaks {
            let nearest = beats
                .iter()
                .map(|b| (p.time_s - b).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.05, "peak at {} off by {nearest}", p.time_s);
        }
    }

    #[test]
    fn tracks_changing_rate() {
        let fs = 128.0;
        // 60 bpm then 120 bpm (ictal tachycardia pattern).
        let mut beats = regular_beats(0.5, 1.0, 15.0);
        beats.extend(regular_beats(15.3, 0.5, 29.5));
        let ecg = synth_ecg(fs, 30.0, &beats);
        let det = PanTompkins::default().detect(&ecg, fs).unwrap();
        let rr = det.rr_intervals();
        assert!(rr.len() > 30);
        let first: Vec<f64> = rr.iter().copied().filter(|&r| r > 0.75).collect();
        let second: Vec<f64> = rr.iter().copied().filter(|&r| r <= 0.75).collect();
        assert!(first.len() >= 10, "slow beats {}", first.len());
        assert!(second.len() >= 20, "fast beats {}", second.len());
    }

    #[test]
    fn amplitude_modulation_is_preserved() {
        // Modulate R amplitude at a respiratory rate; the detected
        // amplitudes should carry that modulation (the EDR principle).
        let fs = 128.0;
        let beats = regular_beats(0.5, 0.75, 59.0);
        let mut ecg = synth_ecg(fs, 60.0, &beats);
        for (i, s) in ecg.iter_mut().enumerate() {
            let t = i as f64 / fs;
            *s *= 1.0 + 0.25 * (2.0 * PI * 0.25 * t).sin();
        }
        let det = PanTompkins::default().detect(&ecg, fs).unwrap();
        let amps = det.amplitudes();
        let spread = crate::stats::max(&amps) - crate::stats::min(&amps);
        let m = crate::stats::mean(&amps);
        assert!(spread / m > 0.2, "relative spread {}", spread / m);
    }

    #[test]
    fn rejects_bad_input() {
        let p = PanTompkins::default();
        assert!(p.detect(&[0.0; 10], 128.0).is_err());
        assert!(p.detect(&[0.0; 1000], 0.0).is_err());
    }

    #[test]
    fn rr_interval_accessors() {
        let det = QrsDetection {
            peaks: vec![
                RPeak {
                    index: 0,
                    time_s: 0.0,
                    amplitude: 1.0,
                },
                RPeak {
                    index: 100,
                    time_s: 1.0,
                    amplitude: 1.1,
                },
                RPeak {
                    index: 180,
                    time_s: 1.8,
                    amplitude: 0.9,
                },
            ],
        };
        let rr = det.rr_intervals();
        assert!((rr[0] - 1.0).abs() < 1e-12 && (rr[1] - 0.8).abs() < 1e-12);
        assert_eq!(det.rr_times(), vec![1.0, 1.8]);
        assert_eq!(det.amplitudes(), vec![1.0, 1.1, 0.9]);
        let empty = QrsDetection::default();
        assert!(empty.mean_heart_rate_bpm().is_none());
    }

    #[test]
    fn detect_into_with_reused_scratch_is_bit_identical() {
        let fs = 128.0;
        let det = PanTompkins::default();
        let mut scratch = DetectScratch::default();
        let mut out = QrsDetection::default();
        // Different rhythms and lengths through ONE scratch: every result
        // must match a fresh one-shot detect bit for bit.
        for (rr, dur) in [(0.8, 30.0), (0.5, 20.0), (1.1, 25.0)] {
            let ecg = synth_ecg(fs, dur, &regular_beats(0.5, rr, dur - 0.5));
            det.detect_into(&ecg, fs, &mut scratch, &mut out).unwrap();
            let reference = det.detect(&ecg, fs).unwrap();
            assert_eq!(out, reference, "rr {rr}");
            for (a, b) in out.peaks.iter().zip(reference.peaks.iter()) {
                assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits());
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            }
        }
        // Errors leave the output cleared.
        assert!(det
            .detect_into(&[0.0; 10], fs, &mut scratch, &mut out)
            .is_err());
        assert!(out.peaks.is_empty());
    }

    #[test]
    fn local_maxima_respects_distance() {
        let x = [0.0, 3.0, 0.0, 2.9, 0.0, 5.0, 0.0];
        let peaks = local_maxima(&x, 3);
        assert!(peaks.contains(&5));
        assert!(peaks.contains(&1));
        assert!(!peaks.contains(&3)); // too close to index 1 or 5, smaller
    }

    /// Deterministic uniform stream in [0, 1).
    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn bucketed_local_maxima_matches_greedy_reference() {
        let mut cand = Vec::new();
        let mut kept = Vec::new();
        let mut buckets = Vec::new();
        let mut cand_ref = Vec::new();
        let mut kept_ref = Vec::new();
        for seed in [1u64, 42, 9_000_001] {
            for n in [3usize, 10, 257, 2048] {
                let noise = uniform_stream(seed, n);
                // Values on a coarse grid (equal-valued candidates must
                // resolve by index), and a ramp under the noise (long
                // chains of ever-better neighbours, few roots).
                let coarse: Vec<f64> = noise.iter().map(|v| (v * 8.0).floor()).collect();
                let ramp: Vec<f64> = noise
                    .iter()
                    .enumerate()
                    .map(|(i, v)| i as f64 * 0.01 + 0.5 * v)
                    .collect();
                for x in [&noise, &coarse, &ramp] {
                    for min_dist in [1usize, 2, 5, 26, 100, 3000] {
                        local_maxima_into(
                            x.as_slice(),
                            min_dist,
                            &mut cand,
                            &mut kept,
                            &mut buckets,
                        );
                        local_maxima_into_reference(x, min_dist, &mut cand_ref, &mut kept_ref);
                        assert_eq!(kept, kept_ref, "seed {seed} n {n} min_dist {min_dist}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_detect_matches_reference_bitwise() {
        let fs = 128.0;
        let det = PanTompkins::default();
        let mut scratch = DetectScratch::default();
        let mut fused = QrsDetection::default();
        let mut reference = QrsDetection::default();
        for (rr, dur) in [(0.8, 30.0), (0.5, 20.0), (1.1, 25.0)] {
            let ecg = synth_ecg(fs, dur, &regular_beats(0.5, rr, dur - 0.5));
            det.detect_into(&ecg, fs, &mut scratch, &mut fused).unwrap();
            det.detect_into_reference(&ecg, fs, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(fused.peaks.len(), reference.peaks.len(), "rr {rr}");
            for (a, b) in fused.peaks.iter().zip(reference.peaks.iter()) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits());
            }
        }
    }

    #[test]
    fn lane_detection_matches_scalar_bitwise() {
        let fs = 128.0;
        let det = PanTompkins::default();
        let mut scratch = DetectScratch::default();
        let mut lanes4 = LaneDetectScratch::<f64, 4>::default();
        let mut outs = vec![QrsDetection::default(); 4];
        let ecgs: Vec<Vec<f64>> = [0.8, 0.5, 1.1, 0.7]
            .iter()
            .map(|&rr| synth_ecg(fs, 30.0, &regular_beats(0.5, rr, 29.5)))
            .collect();
        let windows: Vec<&[f64]> = ecgs.iter().map(|e| e.as_slice()).collect();
        det.detect_lanes_into(&windows, fs, &mut lanes4, &mut outs)
            .unwrap();
        let mut reference = QrsDetection::default();
        for (w, out) in windows.iter().zip(outs.iter()) {
            det.detect_into(w, fs, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(out.peaks.len(), reference.peaks.len());
            for (a, b) in out.peaks.iter().zip(reference.peaks.iter()) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits());
            }
        }
        // A too-short group fails as a whole with every output cleared.
        let short = vec![0.0; 10];
        let sw: Vec<&[f64]> = (0..4).map(|_| short.as_slice()).collect();
        assert!(det
            .detect_lanes_into(&sw, fs, &mut lanes4, &mut outs)
            .is_err());
        assert!(outs.iter().all(|o| o.peaks.is_empty()));
    }
}
