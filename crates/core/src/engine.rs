//! Bit-accurate quantised inference engine — the integer twin of the
//! Fig 2 accelerator.
//!
//! Numerical plan (all power-of-two scales, so every rescaling is a
//! shift):
//!
//! * feature codes: `D_bits` signed, LSB `2^-(D_bits-1)` after per-feature
//!   range shift (`x / 2^{R_j}`, saturated);
//! * MAC1 accumulates test×SV products (scale `2^-2(D-1)`), adds the `+1`
//!   constant at that scale, then discards `t₁` LSBs;
//! * SQ squares, then discards `t₂` LSBs;
//! * αᵢyᵢ are normalised by `s = max|αᵢyᵢ|` (sign-preserving) and encoded
//!   on `A_bits`; the bias is encoded at the MAC2 accumulator scale;
//! * the predicted class is the sign bit of the final accumulator.
//!
//! Exact integer arithmetic is used up to `D_bits = 26` (worst-case widths
//! stay under `i128`); wider datapaths (the 32/64-bit homogeneous
//! reference pipelines) switch to a float-backed simulation in which only
//! the operand quantisation is modelled — at ≥ 32 fractional bits the
//! truncation noise is far below the decision margin, exactly the paper's
//! "64-bit has the same accuracy as floating point" observation.

use crate::error::CoreError;
use crate::kernels;
use crate::trained::FloatPipeline;
use ecg_features::DenseMatrix;
use fixedpoint::quantize::Quantizer;
use fixedpoint::FeatureScales;
use hwmodel::pipeline::AcceleratorConfig;
use std::cell::RefCell;
use svm::classifier::{ClassifierEngine, EngineInfo};
use svm::Kernel;

thread_local! {
    /// Per-thread feature-code scratch for the row entry points, so the
    /// streaming hot loop (`engine.decision(row)` per window) encodes
    /// without a heap allocation per call.
    static CODE_SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// Bit-level configuration of the tailored pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitConfig {
    /// Feature word width (`D_bits`).
    pub d_bits: u32,
    /// Coefficient word width (`A_bits`).
    pub a_bits: u32,
    /// LSBs discarded after the dot product (paper: 10).
    pub post_dot_truncate: u32,
    /// LSBs discarded after the squarer (paper: 10).
    pub post_square_truncate: u32,
}

impl BitConfig {
    /// Tailored configuration with the paper's 10+10 LSB truncations.
    pub fn new(d_bits: u32, a_bits: u32) -> Self {
        BitConfig {
            d_bits,
            a_bits,
            post_dot_truncate: 10,
            post_square_truncate: 10,
        }
    }

    /// Homogeneous-width configuration without truncation (the 64/32/16-
    /// bit reference pipelines of Fig 7).
    pub fn uniform(bits: u32) -> Self {
        BitConfig {
            d_bits: bits,
            a_bits: bits,
            post_dot_truncate: 0,
            post_square_truncate: 0,
        }
    }

    /// The paper's chosen point: 9 feature bits, 15 coefficient bits.
    pub fn paper_choice() -> Self {
        BitConfig::new(9, 15)
    }

    /// Serialises the bit configuration as versioned plain text, the
    /// companion block to a persisted [`FloatPipeline`] so a quantised
    /// engine can be rebuilt from disk without retraining.
    pub fn to_text(&self) -> String {
        format!(
            "bitconfig v1\nd_bits {}\na_bits {}\npost_dot_truncate {}\npost_square_truncate {}\n",
            self.d_bits, self.a_bits, self.post_dot_truncate, self.post_square_truncate
        )
    }

    /// Parses a configuration previously written by
    /// [`BitConfig::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a wrong header/version or
    /// malformed/missing fields.
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::InvalidConfig(format!("persisted bitconfig: {msg}"));
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| bad("empty text".into()))?;
        if header.trim() != "bitconfig v1" {
            return Err(bad(format!("unsupported header `{header}`")));
        }
        let mut fields = [None::<u32>; 4];
        const NAMES: [&str; 4] = [
            "d_bits",
            "a_bits",
            "post_dot_truncate",
            "post_square_truncate",
        ];
        for line in lines {
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [key, v] => {
                    let slot = NAMES
                        .iter()
                        .position(|n| n == key)
                        .ok_or_else(|| bad(format!("unknown field `{key}`")))?;
                    fields[slot] = Some(v.parse().map_err(|_| bad(format!("bad {key} `{v}`")))?);
                }
                _ => return Err(bad(format!("unrecognised line `{line}`"))),
            }
        }
        let get = |i: usize| fields[i].ok_or_else(|| bad(format!("missing {}", NAMES[i])));
        Ok(BitConfig {
            d_bits: get(0)?,
            a_bits: get(1)?,
            post_dot_truncate: get(2)?,
            post_square_truncate: get(3)?,
        })
    }
}

impl Default for BitConfig {
    fn default() -> Self {
        BitConfig::paper_choice()
    }
}

/// Largest `D_bits` for which the exact integer path is used.
const MAX_EXACT_D_BITS: u32 = 26;

/// The hardware sign-bit convention on an accumulator code: ties
/// positive — the integer image of [`svm::decision_is_seizure`]
/// (`code as f64` is sign-exact, so the two can never disagree).
fn sign_of_code(code: i128) -> f64 {
    svm::class_of_decision(code as f64)
}

/// The quantised inference engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedEngine {
    bits: BitConfig,
    guard: i32,
    feature_indices: Vec<usize>,
    scales: FeatureScales,
    /// Quantised SV feature codes (exact path), one contiguous row-major
    /// `n_sv × n_feat` block — the software image of the SV memory.
    sv_codes: DenseMatrix<i64>,
    /// Quantised αy codes (after max-normalisation).
    alpha_codes: Vec<i64>,
    /// Bias code at the MAC2 accumulator scale (exact path).
    bias_code: i128,
    /// Float-sim mirrors (used when `D_bits > MAX_EXACT_D_BITS`).
    sv_values: DenseMatrix<f64>,
    alpha_values: Vec<f64>,
    bias_value: f64,
    /// Whether the exact path runs the i64 micro-kernel
    /// ([`kernels::quant_dot_fits_i64`] at this engine's shape).
    fast_i64: bool,
    /// Cached feature quantiser (exact path).
    feat_q: Quantizer,
    /// Cached per-feature scale reciprocals `2^-(R_j + G)` — multiplying
    /// by an exact power of two is bit-identical to the division it
    /// replaces, without the per-element `exp2`.
    inv_div: Vec<f64>,
    /// Cached reciprocal of the feature LSB (`2^-lsb_exp`).
    inv_lsb: f64,
    /// Cached saturation bound `2^-G`.
    bound: f64,
}

impl QuantizedEngine {
    /// Builds the engine from a trained float pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the pipeline's kernel is
    /// not the quadratic polynomial the accelerator implements (Eq 3),
    /// when widths are out of range (`2..=63`), or when the model has no
    /// support vectors.
    pub fn from_pipeline(p: &FloatPipeline, bits: BitConfig) -> Result<Self, CoreError> {
        if p.model().kernel() != (Kernel::Polynomial { degree: 2 }) {
            return Err(CoreError::InvalidConfig(
                "the accelerator implements the quadratic kernel (Eq 3) only".into(),
            ));
        }
        // Widths above 63 (e.g. the 64-bit homogeneous reference) clamp to
        // 63: quantisation codes live in i64, and above ~53 fractional
        // bits the operand quantisation is below f64 resolution anyway, so
        // 63- and 64-bit pipelines are numerically identical.
        let bits = BitConfig {
            d_bits: bits.d_bits.min(63),
            a_bits: bits.a_bits.min(63),
            ..bits
        };
        if bits.d_bits < 2 || bits.a_bits < 2 {
            return Err(CoreError::InvalidConfig(
                "bit widths must be at least 2".into(),
            ));
        }
        let model = p.model();
        if model.n_support_vectors() == 0 {
            return Err(CoreError::InvalidConfig(
                "model has no support vectors".into(),
            ));
        }
        let guard = p.guard();
        let feat_q = Quantizer::for_range_exponent(-guard, bits.d_bits);
        let svs = model.support_vectors();
        let sv_codes = DenseMatrix::from_flat(
            svs.as_slice().iter().map(|&v| feat_q.encode(v)).collect(),
            svs.n_cols(),
        );
        let sv_values = DenseMatrix::from_flat(
            sv_codes
                .as_slice()
                .iter()
                .map(|&c| feat_q.decode(c))
                .collect(),
            sv_codes.n_cols(),
        );

        // Normalise αy into [-1, 1] by the max magnitude: the sign of the
        // decision function is invariant under positive scaling.
        let alpha_y = model.alpha_y();
        let s = alpha_y
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let alpha_q = Quantizer::for_alpha(bits.a_bits);
        let alpha_codes: Vec<i64> = alpha_y.iter().map(|&v| alpha_q.encode(v / s)).collect();
        let alpha_values: Vec<f64> = alpha_codes.iter().map(|&c| alpha_q.decode(c)).collect();
        let bias_value = model.bias() / s;

        // Exact-path bias at the MAC2 accumulator scale.
        let d = bits.d_bits as i32;
        let a = bits.a_bits as i32;
        let lsb_f = -(guard + d - 1); // feature LSB exponent
        let s1 = 2 * lsb_f + bits.post_dot_truncate as i32;
        let s2 = 2 * s1 + bits.post_square_truncate as i32;
        let acc2_exp = s2 - (a - 1);
        let bias_code = {
            let v = bias_value / (acc2_exp as f64).exp2();
            if v.is_finite() {
                v.round() as i128
            } else {
                0
            }
        };

        let feature_indices = p.feature_indices().to_vec();
        let scales = p.scales().clone();
        let fast_i64 = kernels::quant_dot_fits_i64(guard, bits.d_bits, feature_indices.len());
        let inv_div: Vec<f64> = scales
            .r
            .iter()
            .map(|&r| (-(r + guard) as f64).exp2())
            .collect();
        Ok(QuantizedEngine {
            bits,
            guard,
            feature_indices,
            scales,
            sv_codes,
            alpha_codes,
            bias_code,
            sv_values,
            alpha_values,
            bias_value,
            fast_i64,
            feat_q,
            inv_div,
            inv_lsb: (-feat_q.lsb_exp as f64).exp2(),
            bound: (-guard as f64).exp2(),
        })
    }

    /// Bit configuration.
    pub fn bits(&self) -> BitConfig {
        self.bits
    }

    /// Number of support vectors in the engine memory.
    pub fn n_support_vectors(&self) -> usize {
        self.sv_codes.n_rows()
    }

    /// The quantised SV code image (exact path) — the software mirror of
    /// the accelerator's SV memory, exposed read-only for inspection,
    /// benches and hardware export.
    pub fn sv_codes(&self) -> &DenseMatrix<i64> {
        &self.sv_codes
    }

    /// The quantised `αᵢyᵢ` code memory (exact path).
    pub fn alpha_codes(&self) -> &[i64] {
        &self.alpha_codes
    }

    /// The bias code at the MAC2 accumulator scale (exact path).
    pub fn bias_code(&self) -> i128 {
        self.bias_code
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.scales.len()
    }

    /// The matching hardware design point for the cost model.
    pub fn accelerator_config(&self) -> AcceleratorConfig {
        AcceleratorConfig {
            n_sv: self.n_support_vectors(),
            n_feat: self.n_features(),
            d_bits: self.bits.d_bits,
            a_bits: self.bits.a_bits,
            post_dot_truncate: self.bits.post_dot_truncate,
            post_square_truncate: self.bits.post_square_truncate,
            lanes: 1,
        }
    }

    /// Encodes a raw full-width feature row into feature codes
    /// (select → shift by `2^{R_j}` → saturating quantisation).
    pub fn encode_features(&self, raw_row: &[f64]) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.feature_indices.len());
        self.encode_features_into(raw_row, &mut out);
        out
    }

    /// In-place variant of [`QuantizedEngine::encode_features`]: clears
    /// and refills `out`, so batch loops reuse one code buffer instead of
    /// allocating per row.
    ///
    /// The hot-loop form of select → shift → saturating round: all scale
    /// factors are cached powers of two, so the multiplications are
    /// bit-identical to the `exp2`-and-divide reference (pinned by the
    /// `encode_matches_quantizer_reference` test).
    pub fn encode_features_into(&self, raw_row: &[f64], out: &mut Vec<i64>) {
        let max_code = self.feat_q.max_code();
        let min_code = self.feat_q.min_code();
        out.clear();
        out.extend(
            self.feature_indices
                .iter()
                .zip(self.inv_div.iter())
                .map(|(&j, &inv)| {
                    let norm = (raw_row[j] * inv).clamp(-self.bound, self.bound);
                    let q = (norm * self.inv_lsb).round();
                    if q >= max_code as f64 {
                        max_code
                    } else if q <= min_code as f64 {
                        min_code
                    } else {
                        // NaN input falls through here and casts to 0,
                        // matching `Quantizer::encode`.
                        q as i64
                    }
                }),
        );
    }

    /// Classifies a raw feature row: `+1.0` (seizure) or `-1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `raw_row` is narrower than the largest selected feature
    /// index.
    pub fn classify(&self, raw_row: &[f64]) -> f64 {
        if self.bits.d_bits <= MAX_EXACT_D_BITS {
            self.classify_exact(raw_row)
        } else {
            self.classify_float_sim(raw_row)
        }
    }

    /// Decision value as an `f64`: the exact path's accumulator code cast
    /// to float (sign-exact — no nonzero integer rounds across zero), the
    /// wide path's float accumulator. This is the value the
    /// [`ClassifierEngine`] trait exposes; its sign always agrees with
    /// [`QuantizedEngine::classify`].
    pub fn decision_value(&self, raw_row: &[f64]) -> f64 {
        if self.bits.d_bits <= MAX_EXACT_D_BITS {
            self.decision_code(raw_row) as f64
        } else {
            self.decision_float_sim(raw_row)
        }
    }

    /// Decision value in accumulator LSBs (exact path) — exposed so tests
    /// and the Fig 6 exploration can inspect quantisation margins. Uses a
    /// thread-local code scratch, so per-row streaming calls stay
    /// allocation-free.
    pub fn decision_code(&self, raw_row: &[f64]) -> i128 {
        CODE_SCRATCH.with(|scratch| {
            let mut codes = scratch.borrow_mut();
            self.encode_features_into(raw_row, &mut codes);
            self.decision_code_of(&codes)
        })
    }

    /// Whether the exact integer path ([`QuantizedEngine::decision_code`])
    /// runs on the i64 micro-kernel, i.e.
    /// [`kernels::quant_dot_fits_i64`] holds at this engine's shape —
    /// exactly the dispatch `decision_code_of` performs. Note the
    /// [`ClassifierEngine`] entry points only *consume* the exact path up
    /// to `D_bits = 26`; wider configs classify through the float
    /// simulation regardless of this flag.
    pub fn uses_i64_fast_path(&self) -> bool {
        self.fast_i64
    }

    /// Exponent of the kernel's `+1` constant at product scale.
    fn one_exp(&self) -> u32 {
        (2 * (self.guard + self.bits.d_bits as i32 - 1)) as u32
    }

    /// Exact-path decision value from already-encoded feature codes:
    /// the i64 micro-kernel under the threshold rule, the i128 reference
    /// above it — bit-identical by construction.
    fn decision_code_of(&self, codes: &[i64]) -> i128 {
        if self.fast_i64 {
            kernels::decision_code_i64(
                codes,
                &self.sv_codes,
                &self.alpha_codes,
                1i64 << self.one_exp(),
                self.bits.post_dot_truncate,
                self.bits.post_square_truncate,
                self.bias_code,
            )
        } else {
            self.decision_code_of_i128(codes)
        }
    }

    /// The i128 reference accumulator, unconditionally.
    fn decision_code_of_i128(&self, codes: &[i64]) -> i128 {
        kernels::decision_code_i128(
            codes,
            &self.sv_codes,
            &self.alpha_codes,
            1i128 << self.one_exp(),
            self.bits.post_dot_truncate,
            self.bits.post_square_truncate,
            self.bias_code,
        )
    }

    /// Batch classification forced onto the exact i128 reference
    /// accumulator (the pre-micro-kernel datapath), regardless of the
    /// threshold rule — the oracle the equivalence tests and the kernel
    /// bench compare the fast path against. Float-sim configs
    /// (`D_bits > 26`) fall back to the same float simulation as
    /// `classify_batch`.
    pub fn classify_batch_i128_reference(&self, rows: &DenseMatrix<f64>) -> Vec<f64> {
        self.batch_with(
            rows,
            |e, codes| e.decision_code_of_i128(codes),
            sign_of_code,
            |e, row| e.classify_float_sim(row),
        )
    }

    /// Shared batch skeleton: on the exact path, encodes every row into
    /// the same thread-local code scratch the per-row path uses (so
    /// panel serving is allocation-free per call and each executor
    /// thread keeps its own buffer) and maps its decision code through
    /// `map_code`; wide configs run `float_sim` per row. All batch
    /// entry points (decision, classify, i128 reference, row panels)
    /// are instances. The `code_of` callbacks must not touch
    /// `CODE_SCRATCH` themselves (the decision-code kernels do not) —
    /// the scratch is borrowed across the whole batch.
    fn batch_with(
        &self,
        rows: &DenseMatrix<f64>,
        code_of: impl Fn(&Self, &[i64]) -> i128,
        map_code: impl Fn(i128) -> f64,
        float_sim: impl Fn(&Self, &[f64]) -> f64,
    ) -> Vec<f64> {
        if self.bits.d_bits <= MAX_EXACT_D_BITS {
            CODE_SCRATCH.with(|scratch| {
                let mut codes = scratch.borrow_mut();
                rows.rows()
                    .map(|row| {
                        self.encode_features_into(row, &mut codes);
                        map_code(code_of(self, &codes))
                    })
                    .collect()
            })
        } else {
            rows.rows().map(|row| float_sim(self, row)).collect()
        }
    }

    fn classify_exact(&self, raw_row: &[f64]) -> f64 {
        sign_of_code(self.decision_code(raw_row))
    }

    /// Wide-datapath simulation accumulator: quantised operands, float
    /// arithmetic.
    fn decision_float_sim(&self, raw_row: &[f64]) -> f64 {
        let q = Quantizer::for_range_exponent(-self.guard, self.bits.d_bits);
        let bound = (-self.guard as f64).exp2();
        let x: Vec<f64> = self
            .feature_indices
            .iter()
            .zip(self.scales.r.iter())
            .map(|(&j, &r)| {
                q.quantize((raw_row[j] / ((r + self.guard) as f64).exp2()).clamp(-bound, bound))
            })
            .collect();
        let mut acc = self.bias_value;
        for (sv, &a) in self.sv_values.rows().zip(self.alpha_values.iter()) {
            let dot: f64 = x.iter().zip(sv.iter()).map(|(p, q)| p * q).sum();
            let k = (dot + 1.0) * (dot + 1.0);
            acc += a * k;
        }
        acc
    }

    fn classify_float_sim(&self, raw_row: &[f64]) -> f64 {
        svm::class_of_decision(self.decision_float_sim(raw_row))
    }
}

/// The quantised engine consumes the same raw full-width rows as the
/// float pipeline it was built from (selection, shifting and quantisation
/// happen inside), so the two are drop-in interchangeable behind
/// `dyn ClassifierEngine`.
impl ClassifierEngine for QuantizedEngine {
    fn decision(&self, row: &[f64]) -> f64 {
        self.decision_value(row)
    }

    fn classify(&self, row: &[f64]) -> f64 {
        QuantizedEngine::classify(self, row)
    }

    /// Bit-identical to mapping `decision` over the rows; the exact path
    /// reuses one feature-code buffer across the whole batch.
    fn decision_batch(&self, rows: &DenseMatrix<f64>) -> Vec<f64> {
        self.batch_with(
            rows,
            |e, codes| e.decision_code_of(codes),
            |code| code as f64,
            |e, row| e.decision_float_sim(row),
        )
    }

    /// Borrowed-row panels skip the dense gather entirely: each row ref
    /// is encoded straight into the thread-local code scratch and
    /// decided — bit-identical to `decision_batch` on a gathered copy,
    /// with zero copies and zero allocations on the exact path.
    fn decision_rows_into(&self, rows: &[&[f64]], out: &mut Vec<f64>) {
        if self.bits.d_bits <= MAX_EXACT_D_BITS {
            CODE_SCRATCH.with(|scratch| {
                let mut codes = scratch.borrow_mut();
                out.extend(rows.iter().map(|row| {
                    self.encode_features_into(row, &mut codes);
                    self.decision_code_of(&codes) as f64
                }));
            });
        } else {
            out.extend(rows.iter().map(|row| self.decision_float_sim(row)));
        }
    }

    /// Bit-identical to mapping [`QuantizedEngine::classify`] over the
    /// rows; the exact path reuses one feature-code buffer across the
    /// whole batch and streams the contiguous SV-code block per row.
    fn classify_batch(&self, rows: &DenseMatrix<f64>) -> Vec<f64> {
        self.batch_with(
            rows,
            |e, codes| e.decision_code_of(codes),
            sign_of_code,
            |e, row| e.classify_float_sim(row),
        )
    }

    fn n_features(&self) -> usize {
        QuantizedEngine::n_features(self)
    }

    fn info(&self) -> EngineInfo {
        EngineInfo {
            kind: "quantized-engine",
            n_support_vectors: self.n_support_vectors(),
            n_features: QuantizedEngine::n_features(self),
            d_bits: Some(self.bits.d_bits),
            a_bits: Some(self.bits.a_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FitConfig;
    use crate::quickfeat::{synthetic_matrix, QuickFeatConfig};
    use ecg_features::FeatureMatrix;

    fn matrix() -> FeatureMatrix {
        synthetic_matrix(&QuickFeatConfig {
            n_sessions: 4,
            windows_per_session: 40,
            seed: 11,
            ..Default::default()
        })
    }

    fn pipeline(m: &FeatureMatrix) -> FloatPipeline {
        FloatPipeline::fit(m, &FitConfig::default()).unwrap()
    }

    fn agreement(
        a: &dyn Fn(&[f64]) -> f64,
        b: &dyn Fn(&[f64]) -> f64,
        rows: &ecg_features::DenseMatrix<f64>,
    ) -> f64 {
        let same = rows.rows().filter(|r| a(r) == b(r)).count();
        same as f64 / rows.n_rows() as f64
    }

    #[test]
    fn wide_engine_matches_float_pipeline() {
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::new(24, 24)).unwrap();
        let agree = agreement(&|r| p.predict(r), &|r| e.classify(r), &m.features);
        assert!(agree > 0.99, "agreement {agree}");
    }

    #[test]
    fn paper_choice_engine_is_close_to_float() {
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::paper_choice()).unwrap();
        let agree = agreement(&|r| p.predict(r), &|r| e.classify(r), &m.features);
        assert!(agree > 0.9, "agreement {agree}");
    }

    #[test]
    fn tiny_widths_degrade() {
        let m = matrix();
        let p = pipeline(&m);
        let coarse = QuantizedEngine::from_pipeline(&p, BitConfig::new(3, 4)).unwrap();
        let fine = QuantizedEngine::from_pipeline(&p, BitConfig::new(16, 16)).unwrap();
        let a_coarse = agreement(&|r| p.predict(r), &|r| coarse.classify(r), &m.features);
        let a_fine = agreement(&|r| p.predict(r), &|r| fine.classify(r), &m.features);
        assert!(a_fine >= a_coarse, "fine {a_fine} coarse {a_coarse}");
        assert!(a_fine > 0.97);
    }

    #[test]
    fn float_sim_path_matches_exact_at_same_widths() {
        // d_bits = 26 runs exact; the float sim with identical widths and
        // zero truncation must agree (quantisation is the only effect).
        let m = matrix();
        let p = pipeline(&m);
        let cfg = BitConfig {
            d_bits: 20,
            a_bits: 20,
            post_dot_truncate: 0,
            post_square_truncate: 0,
        };
        let exact = QuantizedEngine::from_pipeline(&p, cfg).unwrap();
        // Force the float path by copying into a wide config with the
        // same operand widths... 64-bit operands quantise negligibly, so
        // instead compare both against the float pipeline.
        let wide = QuantizedEngine::from_pipeline(&p, BitConfig::uniform(63)).unwrap();
        let a1 = agreement(&|r| exact.classify(r), &|r| p.predict(r), &m.features);
        let a2 = agreement(&|r| wide.classify(r), &|r| p.predict(r), &m.features);
        assert!(a1 > 0.99, "exact {a1}");
        assert!(a2 > 0.995, "wide {a2}");
    }

    #[test]
    fn truncation_is_nearly_free() {
        // The paper: discarding 10 LSBs after dot and square has no
        // classification impact.
        let m = matrix();
        let p = pipeline(&m);
        let with = QuantizedEngine::from_pipeline(&p, BitConfig::new(16, 16)).unwrap();
        let without = QuantizedEngine::from_pipeline(
            &p,
            BitConfig {
                d_bits: 16,
                a_bits: 16,
                post_dot_truncate: 0,
                post_square_truncate: 0,
            },
        )
        .unwrap();
        let agree = agreement(&|r| with.classify(r), &|r| without.classify(r), &m.features);
        assert!(agree > 0.97, "agreement {agree}");
    }

    #[test]
    fn engine_requires_quadratic_kernel() {
        let m = matrix();
        let cfg = FitConfig::default().with_kernel(svm::Kernel::Linear);
        let p = FloatPipeline::fit(&m, &cfg).unwrap();
        assert!(matches!(
            QuantizedEngine::from_pipeline(&p, BitConfig::paper_choice()),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_widths_rejected() {
        let m = matrix();
        let p = pipeline(&m);
        assert!(QuantizedEngine::from_pipeline(&p, BitConfig::new(1, 8)).is_err());
        // Over-wide widths clamp to 63 instead of failing (64-bit
        // homogeneous reference pipelines).
        let wide = QuantizedEngine::from_pipeline(&p, BitConfig::uniform(64)).unwrap();
        assert_eq!(wide.bits().d_bits, 63);
    }

    #[test]
    fn accelerator_config_mirrors_engine() {
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::paper_choice()).unwrap();
        let hw = e.accelerator_config();
        assert_eq!(hw.n_sv, e.n_support_vectors());
        assert_eq!(hw.n_feat, 53);
        assert_eq!(hw.d_bits, 9);
        assert_eq!(hw.a_bits, 15);
        assert_eq!(hw.post_dot_truncate, 10);
    }

    #[test]
    fn feature_codes_stay_in_width() {
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::new(9, 15)).unwrap();
        let lo = -(1i64 << 8);
        let hi = (1i64 << 8) - 1;
        for row in m.rows() {
            for c in e.encode_features(row) {
                assert!((lo..=hi).contains(&c), "code {c}");
            }
        }
        for &c in e.sv_codes.as_slice() {
            assert!((lo..=hi).contains(&c));
        }
        for &a in &e.alpha_codes {
            assert!((-(1i64 << 14)..=(1i64 << 14) - 1).contains(&a));
        }
    }

    #[test]
    fn paper_grid_runs_the_i64_fast_path() {
        let m = matrix();
        let p = pipeline(&m);
        for d in [2u32, 9, 16] {
            let e = QuantizedEngine::from_pipeline(&p, BitConfig::new(d, 15)).unwrap();
            assert!(e.uses_i64_fast_path(), "d_bits {d}");
        }
        // The wide homogeneous reference stays off the integer path.
        let wide = QuantizedEngine::from_pipeline(&p, BitConfig::uniform(63)).unwrap();
        assert!(!wide.uses_i64_fast_path());
    }

    #[test]
    fn fast_path_is_bit_identical_to_i128_reference() {
        let m = matrix();
        let p = pipeline(&m);
        for bits in [
            BitConfig::paper_choice(),
            BitConfig::new(2, 4),
            BitConfig::new(16, 16),
            BitConfig::new(24, 24),
        ] {
            let e = QuantizedEngine::from_pipeline(&p, bits).unwrap();
            assert!(e.uses_i64_fast_path(), "{bits:?}");
            let fast = e.classify_batch(&m.features);
            let reference = e.classify_batch_i128_reference(&m.features);
            assert_eq!(fast, reference, "{bits:?}");
            for row in m.rows().take(30) {
                let code = e.decision_code(row);
                let wide = e.decision_code_of_i128(&e.encode_features(row));
                assert_eq!(code, wide, "{bits:?}");
            }
        }
    }

    #[test]
    fn encode_matches_quantizer_reference() {
        // The cached power-of-two multiplications must reproduce the
        // exp2-and-divide Quantizer reference bit for bit, including NaN
        // and saturating inputs.
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::paper_choice()).unwrap();
        let q = Quantizer::for_range_exponent(-e.guard, e.bits.d_bits);
        let bound = (-e.guard as f64).exp2();
        let reference = |raw_row: &[f64]| -> Vec<i64> {
            e.feature_indices
                .iter()
                .zip(e.scales.r.iter())
                .map(|(&j, &r)| {
                    let norm = (raw_row[j] / ((r + e.guard) as f64).exp2()).clamp(-bound, bound);
                    q.encode(norm)
                })
                .collect()
        };
        for row in m.rows().take(40) {
            assert_eq!(e.encode_features(row), reference(row));
        }
        let mut weird = m.row(0).to_vec();
        weird[0] = f64::NAN;
        weird[1] = f64::INFINITY;
        weird[2] = f64::NEG_INFINITY;
        weird[3] = 1e300;
        weird[4] = -1e300;
        weird[5] = 1e-300;
        assert_eq!(e.encode_features(&weird), reference(&weird));
    }

    #[test]
    fn classify_batch_matches_per_row_on_both_paths() {
        let m = matrix();
        let p = pipeline(&m);
        // Exact integer path and wide float-sim path.
        for bits in [BitConfig::paper_choice(), BitConfig::uniform(63)] {
            let e = QuantizedEngine::from_pipeline(&p, bits).unwrap();
            let batch = e.classify_batch(&m.features);
            for (i, row) in m.rows().enumerate() {
                assert_eq!(batch[i], e.classify(row), "row {i} at {bits:?}");
            }
        }
    }

    #[test]
    fn rows_into_matches_decision_batch_on_both_paths() {
        let m = matrix();
        let p = pipeline(&m);
        for bits in [BitConfig::paper_choice(), BitConfig::uniform(63)] {
            let e = QuantizedEngine::from_pipeline(&p, bits).unwrap();
            let expect = e.decision_batch(&m.features);
            let refs: Vec<&[f64]> = m.rows().collect();
            let mut got = Vec::new();
            e.decision_rows_into(&refs, &mut got);
            assert_eq!(got.len(), expect.len());
            for (i, (g, w)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "row {i} at {bits:?}");
            }
        }
    }

    #[test]
    fn decision_value_sign_agrees_with_classify_on_both_paths() {
        let m = matrix();
        let p = pipeline(&m);
        for bits in [BitConfig::paper_choice(), BitConfig::uniform(63)] {
            let e = QuantizedEngine::from_pipeline(&p, bits).unwrap();
            let dec = e.decision_batch(&m.features);
            for (i, row) in m.rows().enumerate() {
                assert_eq!(dec[i].to_bits(), e.decision_value(row).to_bits());
                let cls = if dec[i] >= 0.0 { 1.0 } else { -1.0 };
                assert_eq!(cls, e.classify(row), "row {i} at {bits:?}");
            }
        }
    }

    #[test]
    fn engine_info_carries_widths() {
        let m = matrix();
        let p = pipeline(&m);
        let e = QuantizedEngine::from_pipeline(&p, BitConfig::paper_choice()).unwrap();
        let info = ClassifierEngine::info(&e);
        assert_eq!(info.kind, "quantized-engine");
        assert_eq!(info.n_features, 53);
        assert_eq!(info.d_bits, Some(9));
        assert_eq!(info.a_bits, Some(15));
        assert_eq!(info.n_support_vectors, e.n_support_vectors());
    }

    #[test]
    fn bitconfig_text_round_trip() {
        for cfg in [
            BitConfig::paper_choice(),
            BitConfig::uniform(32),
            BitConfig {
                d_bits: 11,
                a_bits: 13,
                post_dot_truncate: 3,
                post_square_truncate: 0,
            },
        ] {
            assert_eq!(BitConfig::from_text(&cfg.to_text()).unwrap(), cfg);
        }
        assert!(BitConfig::from_text("").is_err());
        assert!(BitConfig::from_text("bitconfig v9\n").is_err());
        assert!(BitConfig::from_text("bitconfig v1\nd_bits 9\n").is_err());
        assert!(BitConfig::from_text("bitconfig v1\nwhat 9\n").is_err());
    }

    #[test]
    fn bitconfig_constructors() {
        let t = BitConfig::new(9, 15);
        assert_eq!(t.post_dot_truncate, 10);
        let u = BitConfig::uniform(32);
        assert_eq!(u.d_bits, 32);
        assert_eq!(u.a_bits, 32);
        assert_eq!(u.post_dot_truncate, 0);
        assert_eq!(BitConfig::default(), BitConfig::paper_choice());
    }
}
