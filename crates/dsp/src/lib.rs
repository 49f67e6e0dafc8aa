//! # biodsp — bio-signal DSP substrate
//!
//! Signal-processing building blocks used by the ECG-based epilepsy-monitor
//! reproduction (Ferretti et al., DATE 2019): FFT and spectral estimation,
//! auto-regressive modelling, IIR/FIR filtering, QRS detection
//! (Pan–Tompkins) and descriptive statistics.
//!
//! Everything is implemented from scratch on `f64` slices; no external
//! numeric dependencies.
//!
//! ## Example
//!
//! ```
//! use biodsp::fft::{fft, Complex};
//!
//! // Spectrum of a pure tone lands in a single bin.
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|i| Complex::new((2.0 * std::f64::consts::PI * 8.0 * i as f64 / n as f64).cos(), 0.0))
//!     .collect();
//! let spec = fft(&tone);
//! let peak = (0..n / 2).max_by(|&a, &b| spec[a].norm().total_cmp(&spec[b].norm())).unwrap();
//! assert_eq!(peak, 8);
//! ```

pub mod ar;
pub mod detrend;
pub mod error;
pub mod fft;
pub mod filter;
pub mod kernels;
pub mod lanes;
pub mod psd;
pub mod qrs;
pub mod resample;
pub mod stats;
pub mod stream;
pub mod window;

pub use error::DspError;
pub use kernels::ExtractPrecision;
