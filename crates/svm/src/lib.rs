//! # svm — from-scratch C-SVC support vector machine
//!
//! A dependency-free implementation of the soft-margin support vector
//! classifier used throughout the DATE 2019 reproduction:
//!
//! * [`kernel::Kernel`] — linear, polynomial `(x·y + 1)^d` (the paper's
//!   quadratic/cubic kernels) and Gaussian RBF;
//! * [`smo::SmoTrainer`] — Platt's Sequential Minimal Optimization with an
//!   error cache, per-class cost weighting (for the heavily imbalanced
//!   seizure/non-seizure problem) and a precomputed Gram matrix;
//! * [`model::SvmModel`] — the trained decision function
//!   `f(x) = Σ αᵢyᵢ k(x, xᵢ) + b` (Eq 1 of the paper), exposing support
//!   vectors and weights so the budgeting pass (Eq 5) can prune them;
//! * [`scale::Standardizer`] — per-feature standardisation fitted on
//!   training folds only;
//! * [`cv`] — fold construction (k-fold and leave-one-group-out).
//!
//! Training and inference run over the workspace-wide dense row-major
//! [`DenseMatrix`] container (re-exported from [`ecg_features`]): the
//! trainer consumes a dense sample block, the model stores its support
//! vectors contiguously, and the [`classifier::ClassifierEngine`] trait's
//! `predict_batch` / `decision_batch` stream whole batches without
//! per-row dispatch. Every inference backend in the workspace (the bare
//! [`SvmModel`], the float reference pipeline, the quantised engine)
//! implements [`ClassifierEngine`], so they are interchangeable behind
//! `dyn ClassifierEngine` — the seam the batch evaluators and the
//! streaming monitor are built on. Models persist to versioned plain
//! text ([`persist`]) with bit-exact round trips.
//!
//! ## Example
//!
//! ```
//! use svm::kernel::Kernel;
//! use svm::smo::{SmoConfig, SmoTrainer};
//! use svm::DenseMatrix;
//!
//! // Tiny XOR-like problem: not linearly separable, quadratic kernel is.
//! let x = DenseMatrix::from_rows(&[
//!     [0.0, 0.0], [1.0, 1.0], // class -1
//!     [0.0, 1.0], [1.0, 0.0], // class +1
//! ]);
//! let y = vec![-1.0, -1.0, 1.0, 1.0];
//! let cfg = SmoConfig { c: 10.0, kernel: Kernel::Polynomial { degree: 2 }, ..Default::default() };
//! let model = SmoTrainer::new(cfg).train(&x, &y)?;
//! assert_eq!(model.predict(&[0.9, 0.1]), 1.0);
//! assert_eq!(model.predict(&[0.9, 0.9]), -1.0);
//! // Batch inference over a contiguous block (trait method):
//! use svm::ClassifierEngine;
//! assert_eq!(model.classify_batch(&x), vec![-1.0, -1.0, 1.0, 1.0]);
//! # Ok::<(), svm::SvmError>(())
//! ```

pub mod classifier;
pub mod cv;
pub mod error;
pub mod kernel;
pub mod model;
pub mod persist;
pub mod scale;
pub mod smo;

pub use classifier::{class_of_decision, decision_is_seizure, ClassifierEngine, EngineInfo};
pub use ecg_features::DenseMatrix;
pub use error::SvmError;
pub use kernel::Kernel;
pub use model::SvmModel;
pub use smo::{SmoConfig, SmoTrainer};
