//! Property-based tests over the core data structures and numerical
//! invariants.
//!
//! The offline build has no `proptest`, so the properties are exercised
//! with a deterministic seeded case generator: same coverage
//! style (random-ish inputs, invariant assertions), fully reproducible.

use epilepsy_monitor::core::eval::Confusion;
use epilepsy_monitor::fx::fixed::{saturate_to_width, truncate_lsbs, width_of};
use epilepsy_monitor::fx::quantize::Quantizer;
use epilepsy_monitor::fx::{pow2_range_exponent, FeatureScales};
use epilepsy_monitor::hw::pipeline::AcceleratorConfig;
use epilepsy_monitor::hw::TechParams;
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};

/// Deterministic case generator over the workspace PRNG.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }
    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn unit(&mut self) -> f64 {
        self.0.gen()
    }
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.gen_range(lo..hi)
    }
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.u64() % (hi - lo + 1) as u64) as i64
    }
}

const CASES: usize = 200;

/// Round-trip quantisation error is bounded by half an LSB inside the
/// representable range.
#[test]
fn quantizer_roundtrip_error_bounded() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let x = g.range(-1000.0, 1000.0);
        let r = g.int(-8, 11) as i32;
        let bits = g.int(4, 23) as u32;
        let q = Quantizer::for_range_exponent(r, bits);
        let lo = q.decode(q.min_code());
        let hi = q.decode(q.max_code());
        if x > lo && x < hi {
            let err = (q.quantize(x) - x).abs();
            assert!(err <= q.lsb() / 2.0 + 1e-12, "err {} lsb {}", err, q.lsb());
        }
    }
}

/// Encoding is monotone: a larger value never gets a smaller code.
#[test]
fn quantizer_is_monotone() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let a = g.range(-100.0, 100.0);
        let b = g.range(-100.0, 100.0);
        let bits = g.int(3, 19) as u32;
        let q = Quantizer::for_range_exponent(3, bits);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(q.encode(lo) <= q.encode(hi));
    }
}

/// Codes always stay within the two's-complement width.
#[test]
fn quantizer_codes_stay_in_width() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        // Stress far outside the representable range too.
        let x = g.range(-1.0, 1.0) * (10f64).powi(g.int(0, 18) as i32);
        let bits = g.int(2, 29) as u32;
        let q = Quantizer::for_range_exponent(0, bits);
        let c = q.encode(x);
        assert!(c >= q.min_code() && c <= q.max_code());
    }
}

/// Eq 6: the chosen power-of-two range covers avg ± sigma.
#[test]
fn eq6_range_covers_one_sigma() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let n = g.int(2, 63) as usize;
        let values: Vec<f64> = (0..n).map(|_| g.range(-1e4, 1e4)).collect();
        let r = pow2_range_exponent(&values);
        let nf = values.len() as f64;
        let avg = values.iter().sum::<f64>() / nf;
        let sigma = (values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / nf).sqrt();
        let bound = (r as f64).exp2();
        assert!(avg - sigma > -bound - 1e-9);
        assert!(avg + sigma < bound + 1e-9);
    }
}

/// Homogenised scales dominate every per-feature scale.
#[test]
fn homogenize_dominates() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let n_rows = g.int(2, 19) as usize;
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..4).map(|_| g.range(-100.0, 100.0)).collect())
            .collect();
        let s = FeatureScales::calibrate(rows.iter().map(Vec::as_slice));
        let h = s.homogenize();
        for (a, b) in s.r.iter().zip(h.r.iter()) {
            assert!(b >= a);
        }
    }
}

/// Arithmetic truncation equals floor division by 2^k.
#[test]
fn truncation_is_floor_division() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let v = g.int(-1_000_000_000, 1_000_000_000);
        let k = g.int(0, 29) as u32;
        let t = truncate_lsbs(v as i128, k);
        let d = (v as f64 / (k as f64).exp2()).floor() as i128;
        assert_eq!(t, d);
    }
}

/// Saturation clamps into the width and is idempotent.
#[test]
fn saturation_is_idempotent() {
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let v = g.u64() as i64;
        let bits = g.int(2, 63) as u32;
        let s1 = saturate_to_width(v as i128, bits);
        let s2 = saturate_to_width(s1, bits);
        assert_eq!(s1, s2);
        assert!(width_of(s1) <= bits);
    }
}

/// Confusion-matrix metrics always land in [0, 1] and GM is the
/// geometric mean of Se and Sp.
#[test]
fn confusion_metrics_in_unit_interval() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let c = Confusion {
            tp: g.int(0, 499) as usize,
            tn: g.int(0, 499) as usize,
            fp: g.int(0, 499) as usize,
            fn_: g.int(0, 499) as usize,
        };
        if let Some(se) = c.sensitivity() {
            assert!((0.0..=1.0).contains(&se));
        }
        if let Some(sp) = c.specificity() {
            assert!((0.0..=1.0).contains(&sp));
        }
        if let (Some(se), Some(sp), Some(gm)) =
            (c.sensitivity(), c.specificity(), c.geometric_mean())
        {
            assert!((gm - (se * sp).sqrt()).abs() < 1e-12);
        }
    }
}

/// The accelerator cost model never returns negative or non-finite
/// costs, and cycles follow the N_SV x N_feat law.
#[test]
fn cost_model_is_well_behaved() {
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let n_sv = g.int(1, 299) as usize;
        let n_feat = g.int(1, 63) as usize;
        let d_bits = g.int(2, 63) as u32;
        let a_bits = g.int(2, 63) as u32;
        let hw = AcceleratorConfig::new(n_sv, n_feat, d_bits, a_bits);
        let c = hw.cost(&TechParams::default());
        assert!(c.energy_nj.is_finite() && c.energy_nj > 0.0);
        assert!(c.area_mm2.is_finite() && c.area_mm2 > 0.0);
        assert_eq!(hw.cycles(), (n_sv * n_feat + 2 * n_sv + n_feat) as u64);
    }
}

/// Pearson correlation is symmetric and bounded.
#[test]
fn pearson_symmetric_bounded() {
    let mut g = Gen::new(10);
    for _ in 0..CASES {
        let n = g.int(8, 63) as usize;
        let x: Vec<f64> = (0..n).map(|_| g.range(-100.0, 100.0)).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.3 * v + (g.unit() - 0.5) * 10.0)
            .collect();
        let ab = epilepsy_monitor::dsp::stats::pearson(&x, &y).unwrap();
        let ba = epilepsy_monitor::dsp::stats::pearson(&y, &x).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab.abs() <= 1.0 + 1e-12);
    }
}
