//! # hwmodel — parametric 40 nm cost model for the SVM inference accelerator
//!
//! The paper evaluates every design point by synthesising the Fig 2
//! pipeline (SV memory → MAC1 → squarer → MAC2) in a 40 nm technology and
//! reporting energy per classification and silicon area. A real synthesis
//! flow is not redistributable, so this crate provides a calibrated
//! analytical stand-in with the same *scaling structure*:
//!
//! * operator energy/area laws: multipliers scale ≈ quadratically with
//!   operand width, adders/registers linearly ([`ops`]);
//! * a mini-CACTI SRAM model: read energy and area driven by capacity and
//!   word width, leakage by capacity ([`sram`]);
//! * the accelerator assembly ([`pipeline`]): bit-exact operator widths
//!   derived from `D_bits`/`A_bits`/truncations, cycles ≈ `N_SV × N_feat`,
//!   leakage integrated over the classification latency.
//!
//! Absolute constants ([`tech::TechParams`]) are calibrated so the paper's
//! 64-bit / 53-feature / un-budgeted baseline lands near 2 µJ and
//! 0.4 mm² (Figs 4–5); all experimental conclusions depend on ratios, not
//! absolutes — see DESIGN.md.
//!
//! ## Example
//!
//! ```
//! use hwmodel::pipeline::AcceleratorConfig;
//! use hwmodel::tech::TechParams;
//!
//! let tech = TechParams::default();
//! let base = AcceleratorConfig::uniform(120, 53, 64).cost(&tech);
//! let opt = AcceleratorConfig::new(68, 30, 9, 15).cost(&tech);
//! assert!(base.energy_nj / opt.energy_nj > 5.0);
//! assert!(base.area_mm2 / opt.area_mm2 > 5.0);
//! ```

pub mod ops;
pub mod pipeline;
pub mod sram;
pub mod tech;

pub use pipeline::{AcceleratorConfig, CostReport};
pub use tech::TechParams;
