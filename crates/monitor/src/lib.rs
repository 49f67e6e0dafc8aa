//! # epilepsy-monitor — facade crate
//!
//! One-stop re-export of the full reproduction stack for *Tailoring SVM
//! Inference for Resource-Efficient ECG-Based Epilepsy Monitors*
//! (Ferretti et al., DATE 2019):
//!
//! * [`dsp`] — signal-processing substrate ([`biodsp`]),
//! * [`sim`] — synthetic clinical cohort ([`ecg_sim`]),
//! * [`features`] — the 53-feature extraction of ref \[6\]
//!   ([`ecg_features`]),
//! * [`ml`] — from-scratch SMO support vector machine ([`svm`]),
//! * [`fx`] — fixed-point quantisation ([`fixedpoint`]),
//! * [`hw`] — 40 nm accelerator cost model ([`hwmodel`]),
//! * [`core`] — the paper's contribution: the tailored inference engine
//!   and its three approximation passes ([`seizure_core`]),
//! * [`fleet`] — the serving facade ([`fleet::FleetMonitor`]):
//!   thousands of concurrent patient streams multiplexed over one
//!   engine, ready windows micro-batched across patients into single
//!   batch-kernel calls, with cohort alarm reports. A single patient
//!   stream needs no facade: a
//!   [`core::stream::StreamingSession`] takes chunked ECG in and
//!   hands per-window decisions out, bit-identical to the batch path
//!   for every [`svm::ClassifierEngine`] backend.
//!
//! ## Quick start
//!
//! ```no_run
//! use epilepsy_monitor::prelude::*;
//!
//! // Generate a small synthetic cohort and evaluate the float detector.
//! let spec = DatasetSpec::new(Scale::Tiny, 42);
//! let matrix = build_feature_matrix(&spec);
//! let result = loso_evaluate(&matrix, &FitConfig::default());
//! println!("GM = {:.1}%", 100.0 * result.mean_gm);
//! ```
//!
//! See `examples/` for end-to-end scenarios (quick start, on-node patient
//! monitoring, design-space exploration, hardware co-design).

pub use biodsp as dsp;
pub use ecg_features as features;
pub use ecg_sim as sim;
pub use fixedpoint as fx;
pub use hwmodel as hw;
pub use seizure_core as core;
pub use svm as ml;

pub mod fleet;

/// Most-used items in one import.
pub mod prelude {
    pub use crate::fleet::{FleetAlarmReport, FleetMonitor};
    pub use ecg_features::{DenseMatrix, FeatureMatrix};
    pub use ecg_sim::dataset::{DatasetSpec, Scale};
    pub use hwmodel::pipeline::AcceleratorConfig;
    pub use hwmodel::TechParams;
    pub use seizure_core::alarm::{AlarmConfig, AlarmEvent, EventMetrics};
    pub use seizure_core::assemble::build_feature_matrix;
    pub use seizure_core::config::FitConfig;
    pub use seizure_core::engine::{BitConfig, QuantizedEngine};
    pub use seizure_core::eval::{loso_evaluate, loso_evaluate_events, loso_evaluate_serial};
    pub use seizure_core::fleet::{FleetConfig, FleetScheduler, FleetStats, OverloadPolicy};
    pub use seizure_core::stream::{StreamConfig, StreamStats, StreamingSession, WindowDecision};
    pub use seizure_core::trained::FloatPipeline;
    pub use seizure_core::ExtractPrecision;
    pub use svm::{decision_is_seizure, ClassifierEngine, Kernel};
}
