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
//!   and its three approximation passes ([`seizure_core`]), plus the
//!   serving stack: a [`core::stream::StreamingSession`] takes one
//!   patient's chunked ECG in and hands per-window decisions out, and a
//!   [`core::fleet::FleetScheduler`] multiplexes thousands of such
//!   streams over one engine, micro-batching ready windows across
//!   patients into single batch-kernel calls and scoring cohort alarms
//!   against ground truth ([`core::fleet::FleetScheduler::event_metrics`]).
//!   Both are bit-identical to the batch path for every
//!   [`svm::ClassifierEngine`] backend,
//! * [`load_engine`] — restores a serving engine from a persisted
//!   pipeline.
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

use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::error::CoreError;
use seizure_core::stream::SharedEngine;
use seizure_core::trained::FloatPipeline;
use std::sync::Arc;

/// Rebuilds a shared engine from pipeline text persisted with
/// [`FloatPipeline::to_text`]: the float pipeline directly, or — with
/// `bits` — the bit-accurate quantised engine on top. Persistence is
/// bit-exact, so a [`seizure_core::fleet::FleetScheduler`] (or a solo
/// [`seizure_core::stream::StreamingSession`]) restarted from the text
/// produces decisions bit-identical to the original's.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] (or a wrapped [`svm::SvmError`])
/// for malformed text, a pipeline whose selected features exceed what
/// extraction produces, or a quantised engine that cannot be built.
pub fn load_engine(
    pipeline_text: &str,
    bits: Option<BitConfig>,
) -> Result<SharedEngine, CoreError> {
    let p = FloatPipeline::from_text(pipeline_text)?;
    // `from_text` cannot bound the selected indices (a pipeline does
    // not record its raw input width), but monitors feed 53-feature
    // rows — reject a corrupt file here, at load time, instead of
    // panicking on the first window.
    let n = ecg_features::N_FEATURES;
    if let Some(&bad) = p.feature_indices().iter().find(|&&j| j >= n) {
        return Err(CoreError::InvalidConfig(format!(
            "persisted pipeline selects feature {bad} but extraction produces {n} features"
        )));
    }
    Ok(match bits {
        Some(b) => Arc::new(QuantizedEngine::from_pipeline(&p, b)?),
        None => Arc::new(p),
    })
}

/// Most-used items in one import.
pub mod prelude {
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
    pub use svm::{decision_is_seizure, ClassifierEngine, Kernel};
}
