//! # fixedpoint — quantisation substrate for the tailored inference engine
//!
//! Implements the paper's Section III "Reducing bitwidths" machinery:
//!
//! * [`qformat::pow2_range_exponent`] — Eq 6: the smallest power-of-two
//!   range `[-2^R, 2^R)` containing `avg ± σ` of a feature over the SV
//!   set, so scaling is a shift rather than a division in hardware;
//! * [`quantize::Quantizer`] — saturating round-to-nearest encoding into a
//!   signed `bits`-wide integer with an explicit LSB exponent;
//! * [`quantize::FeatureScales`] — the per-feature scale memory of the
//!   accelerator (one `R_j` per feature);
//! * [`fixed`] — width-tracked helpers used by the bit-accurate pipeline
//!   (arithmetic LSB truncation, saturation to a width, width bookkeeping).
//!
//! ## Example
//!
//! ```
//! use fixedpoint::quantize::Quantizer;
//!
//! // 9 feature bits over the range [-2, 2): LSB = 2^(1-8) = 2^-7.
//! let q = Quantizer::for_range_exponent(1, 9);
//! let code = q.encode(0.5);
//! assert!((q.decode(code) - 0.5).abs() <= q.lsb() / 2.0);
//! ```

pub mod fixed;
pub mod qformat;
pub mod quantize;

pub use qformat::pow2_range_exponent;
pub use quantize::{FeatureScales, Quantizer};
