#![forbid(unsafe_code)]
//! # ecg-features — the 53-feature set of Forooghifar et al. \[6\]
//!
//! Feature extraction for ECG-based seizure detection, matching the layout
//! the DATE 2019 paper starts from:
//!
//! | Indices (0-based) | Family | Source |
//! |---|---|---|
//! | 0–7   | HRV time-domain statistics | RR tachogram |
//! | 8–14  | Lorentz (Poincaré) plot geometry | RR tachogram |
//! | 15–23 | AR(9) linear coefficients | EDR series |
//! | 24–52 | Spectral band powers (29 bands) | EDR series |
//!
//! The extraction front end is Pan–Tompkins QRS detection
//! ([`biodsp::qrs`]); EDR (ECG-derived respiration) is recovered from
//! R-wave amplitude modulation.
//!
//! ## Example
//!
//! ```
//! use ecg_features::extract::{WindowExtractor, N_FEATURES};
//!
//! let fs = 128.0;
//! // 60 s of trivially synthetic ECG: 1 Hz Gaussian R spikes.
//! let ecg: Vec<f64> = (0..(60.0 * fs) as usize)
//!     .map(|i| {
//!         let t = i as f64 / fs;
//!         let dt = t - t.round();
//!         (-dt * dt / (2.0 * 0.012f64.powi(2))).exp()
//!     })
//!     .collect();
//! let x = WindowExtractor::new(fs).extract(&ecg)?;
//! assert_eq!(x.len(), N_FEATURES);
//! # Ok::<(), ecg_features::FeatureError>(())
//! ```

pub mod ar_feats;
pub mod edr;
pub mod error;
pub mod extract;
pub mod hrv;
pub mod lorenz;
pub mod matrix;
pub mod psd_feats;

pub use error::FeatureError;
pub use extract::{ExtractScratch, FeatureFamily, WindowExtractor, N_FEATURES};
pub use matrix::{DenseMatrix, FeatureMatrix};
