//! Interpolation and resampling of (possibly unevenly sampled) series.

use crate::error::DspError;

/// Linear interpolation of `(xs, ys)` at query point `x`.
///
/// Outside the support, the nearest endpoint value is returned (constant
/// extrapolation), which is the desired behaviour when regularising a
/// tachogram whose first/last beats do not align with the window edges.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when `xs` is empty and
/// [`DspError::LengthMismatch`] when `xs` and `ys` differ.
pub fn interp_linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, DspError> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if xs.len() != ys.len() {
        return Err(DspError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if x <= xs[0] {
        return Ok(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Ok(ys[ys.len() - 1]);
    }
    // Binary search for the bracketing interval.
    let idx = xs.partition_point(|&v| v < x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    if x1 == x0 {
        return Ok(y0);
    }
    Ok(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
}

/// Resamples an unevenly sampled series `(t, y)` onto a uniform grid at
/// `fs` Hz spanning `[t[0], t[last]]`.
///
/// # Errors
///
/// Returns [`DspError::TooShort`] for fewer than 2 samples,
/// [`DspError::LengthMismatch`] for unequal inputs and
/// [`DspError::InvalidParameter`] for non-positive `fs` or non-increasing
/// time stamps.
pub fn resample_uniform(t: &[f64], y: &[f64], fs: f64) -> Result<Vec<f64>, DspError> {
    if t.len() != y.len() {
        return Err(DspError::LengthMismatch {
            left: t.len(),
            right: y.len(),
        });
    }
    if t.len() < 2 {
        return Err(DspError::TooShort {
            needed: 2,
            got: t.len(),
        });
    }
    if fs <= 0.0 {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: "must be positive",
        });
    }
    if t.windows(2).any(|w| w[1] <= w[0]) {
        return Err(DspError::InvalidParameter {
            name: "t",
            reason: "time stamps must be strictly increasing",
        });
    }
    let span = t[t.len() - 1] - t[0];
    let n = (span * fs).floor() as usize + 1;
    let mut out = Vec::with_capacity(n);
    let last = t.len() - 1;
    // The grid only moves forward, so the bracketing interval that
    // `interp_linear` binary-searches per point is tracked by a cursor
    // instead: the same interval and the same arithmetic, in O(n + len).
    let mut idx = 0;
    for i in 0..n {
        let x = t[0] + i as f64 / fs;
        let v = if x <= t[0] {
            y[0]
        } else if x >= t[last] {
            y[last]
        } else {
            // `idx` becomes the partition point of `t < x`.
            while t[idx] < x {
                idx += 1;
            }
            let (x0, x1) = (t[idx - 1], t[idx]);
            let (y0, y1) = (y[idx - 1], y[idx]);
            if x1 == x0 {
                y0
            } else {
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        };
        out.push(v);
    }
    Ok(out)
}

/// Integer-factor decimation: keeps every `factor`-th sample after a
/// moving-average anti-aliasing pre-filter of the same length.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `factor == 0`.
pub fn decimate(x: &[f64], factor: usize) -> Result<Vec<f64>, DspError> {
    if factor == 0 {
        return Err(DspError::InvalidParameter {
            name: "factor",
            reason: "must be >= 1",
        });
    }
    if factor == 1 {
        return Ok(x.to_vec());
    }
    let smoothed = crate::filter::moving_average(x, factor)?;
    Ok(smoothed.into_iter().step_by(factor).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_resampling_matches_pointwise_interpolation_bitwise() {
        // Uneven, strictly increasing stamps (a jittered tachogram) on
        // a grid that starts, ends and lands exactly on stamps.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t = vec![0.0];
        for _ in 0..300 {
            let step = 0.25 + next();
            t.push(t[t.len() - 1] + step);
        }
        t.push(t[t.len() - 1] + 0.25); // lands on the 4 Hz grid
        let y: Vec<f64> = t.iter().map(|&x| (0.7 * x).sin() + next()).collect();
        for fs in [4.0, 3.3, 128.0] {
            let got = resample_uniform(&t, &y, fs).unwrap();
            for (i, v) in got.iter().enumerate() {
                let want = interp_linear(&t, &y, t[0] + i as f64 / fs).unwrap();
                assert_eq!(v.to_bits(), want.to_bits(), "fs {fs} sample {i}");
            }
        }
    }

    #[test]
    fn interp_hits_knots_and_midpoints() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert_eq!(interp_linear(&xs, &ys, 1.0).unwrap(), 10.0);
        assert_eq!(interp_linear(&xs, &ys, 0.5).unwrap(), 5.0);
        assert_eq!(interp_linear(&xs, &ys, 1.5).unwrap(), 5.0);
    }

    #[test]
    fn interp_extrapolates_constant() {
        let xs = [1.0, 2.0];
        let ys = [3.0, 7.0];
        assert_eq!(interp_linear(&xs, &ys, 0.0).unwrap(), 3.0);
        assert_eq!(interp_linear(&xs, &ys, 5.0).unwrap(), 7.0);
    }

    #[test]
    fn interp_validates() {
        assert!(interp_linear(&[], &[], 0.0).is_err());
        assert!(interp_linear(&[1.0], &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn resample_linear_ramp_exactly() {
        // y = 2t sampled unevenly; linear interpolation recovers it exactly.
        let t = [0.0, 0.3, 1.1, 2.0, 3.0];
        let y: Vec<f64> = t.iter().map(|v| 2.0 * v).collect();
        let out = resample_uniform(&t, &y, 4.0).unwrap();
        assert_eq!(out.len(), 13); // 3 s * 4 Hz + 1
        for (i, v) in out.iter().enumerate() {
            let expect = 2.0 * (i as f64 / 4.0);
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_validates() {
        assert!(resample_uniform(&[0.0], &[1.0], 4.0).is_err());
        assert!(resample_uniform(&[0.0, 1.0], &[1.0], 4.0).is_err());
        assert!(resample_uniform(&[0.0, 1.0], &[1.0, 2.0], 0.0).is_err());
        assert!(resample_uniform(&[1.0, 1.0], &[1.0, 2.0], 4.0).is_err());
        assert!(resample_uniform(&[2.0, 1.0], &[1.0, 2.0], 4.0).is_err());
    }

    #[test]
    fn decimate_reduces_length() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y = decimate(&x, 4).unwrap();
        assert_eq!(y.len(), 25);
        assert!(decimate(&x, 0).is_err());
        assert_eq!(decimate(&x, 1).unwrap(), x);
    }

    #[test]
    fn decimate_antialiases() {
        // A tone right at the decimated Nyquist is attenuated by the MA.
        let fs = 64.0;
        let f = 30.0;
        let x: Vec<f64> = (0..512)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let y = decimate(&x, 8).unwrap();
        assert!(crate::stats::rms(&y[4..]) < 0.2);
    }
}
