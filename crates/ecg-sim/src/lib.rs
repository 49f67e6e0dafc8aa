//! # ecg-sim — synthetic ECG dataset generator
//!
//! Stand-in for the clinical cohort used by Ferretti et al. (DATE 2019):
//! 7 patients with refractory epilepsy, 24 recording sessions, 34 annotated
//! focal seizures. Real recordings cannot be redistributed, so this crate
//! synthesises physiologically-grounded ECG with the properties the paper's
//! pipeline actually consumes:
//!
//! * an autonomic RR-interval process with LF (Mayer-wave) and HF
//!   (respiratory sinus arrhythmia) components,
//! * an ECGSYN-style phase-domain PQRST waveform whose R-wave amplitude is
//!   modulated by respiration (the physical basis of EDR),
//! * peri-ictal autonomic programs — pre-ictal heart-rate ramp, ictal
//!   tachycardia with HRV suppression and respiration changes, post-ictal
//!   recovery,
//! * per-patient variability and realistic sensor noise.
//!
//! ## Example
//!
//! ```
//! use ecg_sim::dataset::{DatasetSpec, Scale};
//!
//! let spec = DatasetSpec::new(Scale::Tiny, 42);
//! assert_eq!(spec.sessions.len(), 6);
//! let rec = spec.sessions[0].synthesize();
//! assert!(rec.ecg.len() > 1000);
//! ```

pub mod dataset;
pub mod heart;
pub mod noise;
pub mod patient;
pub mod respiration;
pub mod rng;
pub mod seizure;
pub mod session;
pub mod waveform;

pub use dataset::{DatasetSpec, Scale};
pub use session::{SessionRecording, SessionSpec, WindowLabel};
