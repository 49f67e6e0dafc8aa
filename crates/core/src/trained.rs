//! The float reference pipeline: feature selection → power-of-two range
//! normalisation → SMO training.
//!
//! The deployed accelerator consumes *raw* features scaled by per-feature
//! power-of-two shifts (paper Section III, "Reducing bitwidths"); the SVM
//! is therefore trained on exactly those shift-normalised features so the
//! float model and its quantised twin ([`crate::engine::QuantizedEngine`])
//! share one parameterisation.
//!
//! The paper calibrates Eq 6 statistics over the SV set; we calibrate over
//! the training rows (a superset with the same statistics), which avoids a
//! second training pass — the resulting exponents differ only on
//! degenerate folds.

use std::cell::RefCell;

use crate::config::FitConfig;
use crate::error::CoreError;
use ecg_features::{DenseMatrix, FeatureMatrix};
use fixedpoint::FeatureScales;
use svm::classifier::{ClassifierEngine, EngineInfo};
use svm::smo::{SmoConfig, SmoTrainer};
use svm::SvmModel;

thread_local! {
    /// Reusable panel + decision-value buffers for
    /// [`FloatPipeline::decision_rows_into`] (same idiom as the quantised
    /// engine's `CODE_SCRATCH`): steady-state fleet flushes stop
    /// allocating per panel once the buffers hit their high-water mark.
    static PANEL_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A trained float pipeline over a (possibly reduced) feature set.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatPipeline {
    feature_indices: Vec<usize>,
    scales: FeatureScales,
    model: SvmModel,
    guard: i32,
    /// Cached per-feature divisors `2^{R_j + G}` (derived from `scales`
    /// and `guard`), so the panel-serving path does not rebuild them on
    /// every flush.
    divisors: Vec<f64>,
}

/// Per-feature divisors `2^{R_j + G}` for the shift-normalisation.
fn divisors_for(scales: &FeatureScales, guard: i32) -> Vec<f64> {
    scales
        .r
        .iter()
        .map(|&r| ((r + guard) as f64).exp2())
        .collect()
}

/// Global guard shift (bits) applied on top of the per-feature range
/// exponents, sized so the 53-term dot product of Eq 3 stays comparable
/// to the kernel's `+1` constant (`2^3 ≈ √53`). Without it the quadratic
/// kernel degenerates to `(x·y)²` and the soft-margin box never binds.
/// Being a power of two, it is one extra shift in hardware — exactly the
/// scaling mechanism the paper's Section III allows.
pub const DOT_GUARD_SHIFT: i32 = 3;

/// Shift-normalises one already-selected row: `x_j / 2^{R_j + G}`,
/// saturated to `[-2^-G, 2^-G]` as the paper's range saturation
/// prescribes. `guard` is [`DOT_GUARD_SHIFT`] for tailored pipelines and
/// 0 for homogeneous ones (whose single global scale already absorbs any
/// constant shift).
pub(crate) fn normalize_row(row: &[f64], scales: &FeatureScales, guard: i32) -> Vec<f64> {
    let bound = (-guard as f64).exp2();
    row.iter()
        .zip(scales.r.iter())
        .map(|(&v, &r)| (v / ((r + guard) as f64).exp2()).clamp(-bound, bound))
        .collect()
}

/// Shift-normalises a whole block of already-selected rows into a new
/// dense block (the batch twin of [`normalize_row`]).
pub(crate) fn normalize_block(
    rows: &DenseMatrix<f64>,
    scales: &FeatureScales,
    guard: i32,
) -> DenseMatrix<f64> {
    let bound = (-guard as f64).exp2();
    let divisors: Vec<f64> = scales
        .r
        .iter()
        .map(|&r| ((r + guard) as f64).exp2())
        .collect();
    let mut data = Vec::with_capacity(rows.n_rows() * rows.n_cols());
    for row in rows.rows() {
        data.extend(
            row.iter()
                .zip(divisors.iter())
                .map(|(&v, &d)| (v / d).clamp(-bound, bound)),
        );
    }
    DenseMatrix::from_flat(data, rows.n_cols())
}

impl FloatPipeline {
    /// Fits the pipeline on a training matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range feature
    /// indices or an SV budget smaller than 2, [`CoreError::Dataset`] for
    /// empty/single-class training data and [`CoreError::Svm`] when the
    /// solver fails.
    pub fn fit(train: &FeatureMatrix, cfg: &FitConfig) -> Result<Self, CoreError> {
        if train.n_rows() == 0 {
            return Err(CoreError::Dataset("empty training set".into()));
        }
        let n_cols = train.n_cols();
        let feature_indices: Vec<usize> = match &cfg.features {
            Some(f) => {
                if f.is_empty() {
                    return Err(CoreError::InvalidConfig("empty feature subset".into()));
                }
                if f.iter().any(|&j| j >= n_cols) {
                    return Err(CoreError::InvalidConfig(format!(
                        "feature index out of range (n_cols = {n_cols})"
                    )));
                }
                f.clone()
            }
            None => (0..n_cols).collect(),
        };
        let sub = train.select_columns(&feature_indices);
        let mut scales = FeatureScales::calibrate(sub.features.rows());
        // Homogeneous designs have exactly one global scale parameter, so
        // the dot-product guard shift is not separately available to them.
        let guard = if cfg.homogeneous_scale {
            0
        } else {
            DOT_GUARD_SHIFT
        };
        if cfg.homogeneous_scale {
            scales = scales.homogenize();
        }
        let x = normalize_block(&sub.features, &scales, guard);
        let y: Vec<f64> = sub
            .labels
            .iter()
            .map(|&l| if l > 0 { 1.0 } else { -1.0 })
            .collect();
        let n_pos = y.iter().filter(|&&v| v > 0.0).count();
        if n_pos == 0 || n_pos == y.len() {
            return Err(CoreError::Dataset(
                "training fold contains a single class".into(),
            ));
        }
        let smo_cfg = SmoConfig {
            c: cfg.c,
            kernel: cfg.kernel,
            ..Default::default()
        };
        let model = match cfg.sv_budget {
            Some(budget) => crate::budget::train_budgeted(&x, &y, &smo_cfg, budget)?.0,
            None => SmoTrainer::new(smo_cfg).train(&x, &y)?,
        };
        let divisors = divisors_for(&scales, guard);
        Ok(FloatPipeline {
            feature_indices,
            scales,
            model,
            guard,
            divisors,
        })
    }

    /// Guard shift in effect ([`DOT_GUARD_SHIFT`] or 0 for homogeneous).
    pub fn guard(&self) -> i32 {
        self.guard
    }

    /// Original-index feature subset this pipeline consumes.
    pub fn feature_indices(&self) -> &[usize] {
        &self.feature_indices
    }

    /// Per-feature power-of-two scales (Eq 6), aligned with
    /// [`FloatPipeline::feature_indices`].
    pub fn scales(&self) -> &FeatureScales {
        &self.scales
    }

    /// The trained SVM over normalised features.
    pub fn model(&self) -> &SvmModel {
        &self.model
    }

    /// Selects and normalises a raw full-width feature row.
    ///
    /// # Panics
    ///
    /// Panics if `raw_row` is narrower than the largest selected index.
    pub fn normalize(&self, raw_row: &[f64]) -> Vec<f64> {
        let selected: Vec<f64> = self.feature_indices.iter().map(|&j| raw_row[j]).collect();
        normalize_row(&selected, &self.scales, self.guard)
    }

    /// Selects and normalises a whole block of raw full-width rows into
    /// one contiguous normalised batch.
    ///
    /// # Panics
    ///
    /// Panics if the block is narrower than the largest selected index.
    pub fn normalize_batch(&self, raw: &DenseMatrix<f64>) -> DenseMatrix<f64> {
        let selected = raw.select_columns(&self.feature_indices);
        normalize_block(&selected, &self.scales, self.guard)
    }

    /// Decision value `f(x)` on a raw feature row.
    pub fn decision_value(&self, raw_row: &[f64]) -> f64 {
        self.model.decision_value(&self.normalize(raw_row))
    }

    /// Predicted class (±1) on a raw feature row.
    ///
    /// Batch variants (`decision_batch` / `predict_batch`-style) live on
    /// the [`ClassifierEngine`] trait this pipeline implements.
    pub fn predict(&self, raw_row: &[f64]) -> f64 {
        self.model.predict(&self.normalize(raw_row))
    }

    /// Serialises the trained pipeline (selection, scales, guard and the
    /// embedded SVM) as versioned plain text; round-trips bit-exactly so
    /// a monitor restarted from disk classifies bit-identically. See
    /// [`svm::persist`] for the field encoding.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("floatpipeline v{PIPELINE_FORMAT_VERSION}\n"));
        out.push_str(&format!("guard {}\n", self.guard));
        out.push_str("features");
        for &j in &self.feature_indices {
            out.push_str(&format!(" {j}"));
        }
        out.push('\n');
        out.push_str("scales");
        for &r in &self.scales.r {
            out.push_str(&format!(" {r}"));
        }
        out.push('\n');
        out.push_str(&self.model.to_text());
        out
    }

    /// Parses a pipeline previously written by [`FloatPipeline::to_text`].
    ///
    /// A pipeline does not record the width of the raw rows it was fitted
    /// against, so the selected feature indices cannot be bounds-checked
    /// here; consumers that know their row width validate on top (the
    /// streaming monitor rejects indices `>= N_FEATURES` at load time),
    /// and [`FloatPipeline::normalize`] documents the panic otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a wrong header/version or
    /// malformed/missing fields, and wraps [`svm::SvmError`] for problems
    /// inside the embedded model block.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::InvalidConfig(format!("persisted pipeline: {msg}"));
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| bad("empty text".into()))?;
        if header.trim() != format!("floatpipeline v{PIPELINE_FORMAT_VERSION}") {
            return Err(bad(format!("unsupported header `{header}`")));
        }
        let mut guard = None;
        let mut feature_indices = None;
        let mut scales = None;
        let mut model_text = String::new();
        let mut in_model = false;
        for line in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if in_model {
                model_text.push_str(line);
                model_text.push('\n');
                continue;
            }
            match parts.as_slice() {
                ["guard", v] => {
                    guard = Some(
                        v.parse::<i32>()
                            .map_err(|_| bad(format!("bad guard field `{v}`")))?,
                    );
                }
                ["features", rest @ ..] => {
                    feature_indices = Some(
                        rest.iter()
                            .map(|v| {
                                v.parse::<usize>()
                                    .map_err(|_| bad(format!("bad feature index `{v}`")))
                            })
                            .collect::<Result<Vec<usize>, _>>()?,
                    );
                }
                ["scales", rest @ ..] => {
                    scales = Some(FeatureScales {
                        r: rest
                            .iter()
                            .map(|v| {
                                v.parse::<i32>()
                                    .map_err(|_| bad(format!("bad scale exponent `{v}`")))
                            })
                            .collect::<Result<Vec<i32>, _>>()?,
                    });
                }
                ["svmmodel", ..] => {
                    in_model = true;
                    model_text.push_str(line);
                    model_text.push('\n');
                }
                _ => return Err(bad(format!("unrecognised line `{line}`"))),
            }
        }
        let feature_indices = feature_indices.ok_or_else(|| bad("missing features".into()))?;
        let scales = scales.ok_or_else(|| bad("missing scales".into()))?;
        if feature_indices.len() != scales.len() {
            return Err(bad(format!(
                "{} feature indices but {} scales",
                feature_indices.len(),
                scales.len()
            )));
        }
        let model = SvmModel::from_text(&model_text)?;
        if model.n_features() != feature_indices.len() {
            return Err(bad(format!(
                "model width {} does not match the {} selected features",
                model.n_features(),
                feature_indices.len()
            )));
        }
        let guard = guard.ok_or_else(|| bad("missing guard".into()))?;
        let divisors = divisors_for(&scales, guard);
        Ok(FloatPipeline {
            feature_indices,
            scales,
            model,
            guard,
            divisors,
        })
    }
}

/// Format version written by [`FloatPipeline::to_text`].
pub const PIPELINE_FORMAT_VERSION: u32 = 1;

/// The reference pipeline is an engine over **raw** full-width feature
/// rows: selection and shift-normalisation happen inside, so it is
/// drop-in interchangeable with the quantised engine behind
/// `dyn ClassifierEngine`.
impl ClassifierEngine for FloatPipeline {
    fn decision(&self, row: &[f64]) -> f64 {
        self.decision_value(row)
    }

    fn classify(&self, row: &[f64]) -> f64 {
        self.predict(row)
    }

    /// Normalises the block once, then streams it through the model.
    fn decision_batch(&self, rows: &DenseMatrix<f64>) -> Vec<f64> {
        self.model.decision_batch(&self.normalize_batch(rows))
    }

    /// Normalises the block once, then streams it through the model.
    fn classify_batch(&self, rows: &DenseMatrix<f64>) -> Vec<f64> {
        self.model.classify_batch(&self.normalize_batch(rows))
    }

    /// Selects and shift-normalises straight from the borrowed rows into
    /// one dense panel (same divide-then-clamp per element as
    /// `normalize_block`, so bit-identical to `decision_batch` on a
    /// gathered copy), then streams the panel through the model's tiled
    /// batch kernel. Panel and decision-value buffers are thread-local
    /// scratch recycled across calls, so steady-state fleet flushes are
    /// allocation-free on this path.
    fn decision_rows_into(&self, rows: &[&[f64]], out: &mut Vec<f64>) {
        let k = self.feature_indices.len();
        let bound = (-self.guard as f64).exp2();
        PANEL_SCRATCH.with(|scratch| {
            let (mut data, mut vals) = scratch.take();
            data.clear();
            data.reserve(rows.len() * k);
            for row in rows {
                data.extend(
                    self.feature_indices
                        .iter()
                        .zip(self.divisors.iter())
                        .map(|(&j, &d)| (row[j] / d).clamp(-bound, bound)),
                );
            }
            let panel = DenseMatrix::from_flat(data, k);
            svm::kernel::block::decision_batch_into(
                self.model.kernel(),
                &panel,
                self.model.support_vectors(),
                self.model.sv_sq_norms(),
                self.model.alpha_y(),
                self.model.bias(),
                &mut vals,
            );
            out.extend_from_slice(&vals);
            scratch.replace((panel.into_flat(), vals));
        });
    }

    fn n_features(&self) -> usize {
        self.feature_indices.len()
    }

    fn info(&self) -> EngineInfo {
        EngineInfo {
            kind: "float-pipeline",
            n_support_vectors: self.model.n_support_vectors(),
            n_features: self.feature_indices.len(),
            d_bits: None,
            a_bits: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quickfeat::{synthetic_matrix, QuickFeatConfig};
    use svm::Kernel;

    fn matrix() -> FeatureMatrix {
        synthetic_matrix(&QuickFeatConfig {
            n_sessions: 4,
            windows_per_session: 40,
            ..Default::default()
        })
    }

    #[test]
    fn fit_and_training_accuracy() {
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        assert_eq!(p.feature_indices().len(), 53);
        assert_eq!(p.scales().len(), 53);
        assert!(p.model().n_support_vectors() > 0);
        // Training accuracy should be well above chance.
        let correct = m
            .rows()
            .zip(m.labels.iter())
            .filter(|(r, &l)| p.predict(r) == f64::from(l))
            .count();
        assert!(correct as f64 / m.n_rows() as f64 > 0.85);
    }

    #[test]
    fn rows_into_matches_decision_batch_bitwise() {
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        let raw: Vec<Vec<f64>> = m.rows().take(9).map(<[f64]>::to_vec).collect();
        let refs: Vec<&[f64]> = raw.iter().map(Vec::as_slice).collect();
        let batch = DenseMatrix::from_rows(&raw);
        let expect = ClassifierEngine::decision_batch(&p, &batch);
        let mut got = Vec::new();
        p.decision_rows_into(&refs, &mut got);
        assert_eq!(got.len(), expect.len());
        for (g, w) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn normalized_features_are_in_unit_range() {
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        for row in m.rows() {
            let n = p.normalize(row);
            assert!(n.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn feature_subset_restricts_model_width() {
        let m = matrix();
        let cfg = FitConfig::default().with_features(vec![0, 1, 2, 3, 4, 5]);
        let p = FloatPipeline::fit(&m, &cfg).unwrap();
        assert_eq!(p.model().n_features(), 6);
        assert_eq!(p.feature_indices(), &[0, 1, 2, 3, 4, 5]);
        let _ = p.predict(m.row(0)); // consumes full-width rows
    }

    #[test]
    fn budget_limits_sv_count() {
        let m = matrix();
        let free = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        let budget = (free.model().n_support_vectors() / 2).max(4);
        let cfg = FitConfig::default().with_sv_budget(budget);
        let p = FloatPipeline::fit(&m, &cfg).unwrap();
        assert!(
            p.model().n_support_vectors() <= budget,
            "{} > {budget}",
            p.model().n_support_vectors()
        );
    }

    #[test]
    fn homogeneous_scale_uses_single_exponent() {
        let m = matrix();
        let cfg = FitConfig {
            homogeneous_scale: true,
            ..Default::default()
        };
        let p = FloatPipeline::fit(&m, &cfg).unwrap();
        let r0 = p.scales().r[0];
        assert!(p.scales().r.iter().all(|&r| r == r0));
    }

    #[test]
    fn invalid_configs_error() {
        let m = matrix();
        assert!(matches!(
            FloatPipeline::fit(&m, &FitConfig::default().with_features(vec![99])),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            FloatPipeline::fit(&m, &FitConfig::default().with_features(vec![])),
            Err(CoreError::InvalidConfig(_))
        ));
        let empty = FeatureMatrix::default();
        assert!(matches!(
            FloatPipeline::fit(&empty, &FitConfig::default()),
            Err(CoreError::Dataset(_))
        ));
    }

    #[test]
    fn single_class_fold_errors() {
        let mut m = matrix();
        for l in &mut m.labels {
            *l = -1;
        }
        assert!(matches!(
            FloatPipeline::fit(&m, &FitConfig::default()),
            Err(CoreError::Dataset(_))
        ));
    }

    #[test]
    fn batch_inference_matches_per_row_bitwise() {
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        let dec = p.decision_batch(&m.features);
        let pred = p.classify_batch(&m.features);
        for (i, row) in m.rows().enumerate() {
            assert_eq!(dec[i].to_bits(), p.decision_value(row).to_bits());
            assert_eq!(pred[i], p.predict(row));
        }
    }

    #[test]
    fn engine_trait_routes_to_pipeline_semantics() {
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        let e: &dyn ClassifierEngine = &p;
        assert_eq!(ClassifierEngine::n_features(&p), 53);
        let info = e.info();
        assert_eq!(info.kind, "float-pipeline");
        assert_eq!(info.n_support_vectors, p.model().n_support_vectors());
        assert_eq!(info.d_bits, None);
        for row in m.rows().take(20) {
            assert_eq!(e.decision(row).to_bits(), p.decision_value(row).to_bits());
            assert_eq!(e.classify(row), p.predict(row));
        }
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let m = matrix();
        let p = FloatPipeline::fit(
            &m,
            &FitConfig::default().with_features(vec![0, 3, 5, 11, 40]),
        )
        .unwrap();
        let text = p.to_text();
        let back = FloatPipeline::from_text(&text).unwrap();
        assert_eq!(p, back);
        for row in m.rows().take(25) {
            assert_eq!(
                p.decision_value(row).to_bits(),
                back.decision_value(row).to_bits()
            );
        }
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn malformed_pipeline_text_is_rejected() {
        assert!(FloatPipeline::from_text("").is_err());
        assert!(FloatPipeline::from_text("floatpipeline v99\n").is_err());
        let m = matrix();
        let p = FloatPipeline::fit(&m, &FitConfig::default()).unwrap();
        let good = p.to_text();
        assert!(FloatPipeline::from_text(&good.replace("guard 3", "guard x")).is_err());
        // Scale count must match the feature subset.
        assert!(FloatPipeline::from_text(&good.replacen("scales ", "scales 0 ", 1)).is_err());
        // A missing model block is rejected.
        let no_model: String = good
            .lines()
            .take_while(|l| !l.starts_with("svmmodel"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(FloatPipeline::from_text(&no_model).is_err());
    }

    /// Deterministic corpus of corrupted pipeline texts: every entry must
    /// come back as an error — never a panic, never `Ok`.
    #[test]
    fn corrupted_pipeline_corpus_never_panics() {
        let m = matrix();
        let p = FloatPipeline::fit(
            &m,
            &FitConfig::default().with_features(vec![0, 3, 5, 11, 40]),
        )
        .unwrap();
        let good = p.to_text();
        let mut corpus: Vec<String> = vec![
            String::new(),
            "floatpipeline".into(),
            "floatpipeline v1".into(), // header only
            "floatpipeline v9\n".into(),
            "not a pipeline\n".into(),
            good.replace("guard 3", "guard 3.5"), // non-integer guard
            good.replace("guard 3", "guard"),     // empty guard
            good.replacen("features", "festures", 1), // misspelt key
            good.replacen("features 0 ", "features zero ", 1), // bad index
            good.replacen("scales ", "scales x ", 1), // bad exponent
            good.replacen("scales ", "scales 0 ", 1), // count mismatch
            good.replace("n_feat 5", "n_feat 0"), // zero-width model
            good.replace("n_feat 5", "n_feat 6"), // width mismatch
            good.replace("svmmodel v1", "svmmodel v7"), // bad inner header
        ];
        // Truncations at every line boundary (all but the full text).
        let lines: Vec<&str> = good.lines().collect();
        for cut in 0..lines.len() {
            corpus.push(
                lines[..cut]
                    .iter()
                    .map(|l| format!("{l}\n"))
                    .collect::<String>(),
            );
        }
        for (i, text) in corpus.iter().enumerate() {
            assert!(
                FloatPipeline::from_text(text).is_err(),
                "corpus entry {i} must be rejected:\n{text}"
            );
        }
        assert!(FloatPipeline::from_text(&good).is_ok());
    }

    #[test]
    fn linear_kernel_fits_too() {
        let m = matrix();
        let cfg = FitConfig::default().with_kernel(Kernel::Linear);
        let p = FloatPipeline::fit(&m, &cfg).unwrap();
        assert_eq!(p.model().kernel(), Kernel::Linear);
    }
}
