//! # seizure-core — tailored SVM inference for ECG-based epilepsy monitors
//!
//! The primary contribution of Ferretti et al. (DATE 2019), reproduced in
//! full: a quadratic-kernel SVM seizure detector whose inference engine is
//! tailored along three composable approximation axes, each trading a
//! small amount of classification performance (geometric mean of
//! sensitivity and specificity) for large energy/area savings in the
//! accelerator of Fig 2:
//!
//! 1. **Feature-set reduction** ([`featsel`]) — Pearson-correlation-driven
//!    iterative removal of redundant features (paper Fig 3/4);
//! 2. **Support-vector budgeting** ([`budget`]) — Eq 5 norm-based removal
//!    of insignificant SVs with re-training (Fig 5);
//! 3. **Bitwidth tailoring** ([`bitwidth`], [`engine`]) — per-feature
//!    power-of-two ranges (Eq 6) with `D_bits` feature / `A_bits`
//!    coefficient quantisation and LSB truncation after the dot product
//!    and the squarer (Fig 6);
//!
//! plus their sequential combination (Fig 7) in [`combine`].
//!
//! ## Data layout and execution model
//!
//! Every layer operates on the workspace-wide dense row-major
//! [`DenseMatrix`](ecg_features::DenseMatrix) container — feature blocks,
//! normalised training sets, SV memories and quantised SV code images are
//! all single contiguous allocations. Every inference backend
//! ([`svm::SvmModel`], [`trained::FloatPipeline`],
//! [`engine::QuantizedEngine`]) implements the unified
//! [`svm::ClassifierEngine`] trait, whose batch entry points
//! (`decision_batch` / `classify_batch`) stream whole test batches over
//! contiguous rows instead of dispatching row by row — and whose row
//! entry points drive the streaming subsystem ([`stream`]), where chunked
//! samples become per-window decisions bit-identical to the batch path.
//!
//! On top of that layout sits the parallel evaluation layer
//! ([`parallel`]): leave-one-session-out folds ([`eval`]), design-space
//! sweep points ([`explore`]), bit-grid folds ([`bitwidth`]) and the
//! Fig 7 stages ([`combine`]) fan out across scoped OS threads, in safe
//! code like the rest of the workspace. Folds and points are independent
//! and aggregation order is fixed, so every parallel path is
//! bit-identical to its sequential twin ([`eval::loso_evaluate`] vs
//! [`eval::loso_evaluate_serial`] — pinned by the test suite).
//!
//! ## Module map
//!
//! * [`assemble`] — synthetic cohort ([`ecg_sim`]) → labelled 53-feature
//!   dataset ([`ecg_features`]);
//! * [`trained`] — the float reference pipeline ([`trained::FloatPipeline`]);
//! * [`engine`] — its bit-accurate integer twin
//!   ([`engine::QuantizedEngine`]) that [`hwmodel`] prices in 40 nm;
//! * [`eval`] — paper Eq 2 metrics under parallel LOSO cross-validation;
//! * [`explore`], [`bitwidth`], [`combine`] — the Figs 4–7 design-space
//!   machinery;
//! * [`parallel`] — the deterministic scoped-thread fan-out substrate;
//! * [`stream`] — incremental inference: ring buffer → window scheduler →
//!   scratch-reusing extraction → any [`svm::ClassifierEngine`], with
//!   per-window latency histograms, an optional online alarm stage and
//!   parallel multi-patient fan-out;
//! * [`fleet`] — fleet-scale session multiplexing: N per-patient
//!   sessions behind one scheduler, ready feature rows micro-batched
//!   across patients into single `decision_batch` calls, with an
//!   explicit overload/backpressure policy (including watermark
//!   admission with per-patient fair shedding);
//! * [`clock`] — the serving clock: [`clock::FleetClock`] tick driver
//!   (fixed flush cadence over a wall or deterministic virtual time
//!   source, per-tick deadline accounting) and the allocation-free
//!   log-bucketed [`clock::LatencyHistogram`] behind every latency
//!   stat;
//! * [`alarm`] — the event-level alarm subsystem: k-of-n alarm state
//!   machine with refractory hold-off, ground-truth event extraction and
//!   event metrics (event sensitivity, FA/24h, detection latency), all on
//!   the single shared [`alarm::decision_is_seizure`] boundary;
//! * [`quickfeat`] — fast synthetic feature matrices for tests/benches.
//!
//! ## Example
//!
//! ```no_run
//! use ecg_sim::dataset::{DatasetSpec, Scale};
//! use seizure_core::assemble::build_feature_matrix;
//! use seizure_core::config::FitConfig;
//! use seizure_core::eval::loso_evaluate;
//!
//! let spec = DatasetSpec::new(Scale::Tiny, 42);
//! let matrix = build_feature_matrix(&spec);
//! // Folds run in parallel; the result is bit-identical to
//! // `loso_evaluate_serial`.
//! let result = loso_evaluate(&matrix, &FitConfig::default());
//! println!("GM = {:.1}%", result.mean_gm * 100.0);
//! ```

pub mod alarm;
pub mod assemble;
pub mod bitwidth;
pub mod budget;
pub mod clock;
pub mod combine;
pub mod config;
pub mod engine;
pub mod error;
pub mod eval;
pub mod explore;
pub mod featsel;
pub mod fleet;
pub mod kernels;
pub mod parallel;
pub mod quickfeat;
pub mod stream;
pub mod trained;

pub use alarm::{
    decision_is_seizure, AlarmConfig, AlarmEvent, AlarmStateMachine, DroppedPolicy, EventMetrics,
    EventScoring, TruthEvent,
};
pub use biodsp::ExtractPrecision;
pub use clock::{ClockSource, FleetClock, LatencyHistogram, TickConfig, TickOutcome};
pub use config::FitConfig;
pub use engine::{BitConfig, QuantizedEngine};
pub use error::CoreError;
pub use eval::{
    loso_evaluate, loso_evaluate_events, loso_evaluate_serial, LosoEventResult, LosoResult, Metrics,
};
pub use fleet::{
    FleetConfig, FleetDecision, FleetFlush, FleetScheduler, FleetStats, OverloadPolicy, PatientId,
    Watermarks,
};
pub use stream::{StreamConfig, StreamStats, StreamingSession, WindowDecision};
pub use trained::FloatPipeline;
