//! Perf-trajectory baseline for the micro-kernel layer: the quantised
//! i64 fast path against its i128 reference, the tiled float batch
//! kernel against the pre-micro-kernel naive path, and SMO training time
//! on a real Tiny cohort (whose Gram fill runs on the same micro-kernel).
//!
//! Run with `cargo bench -p bench --bench kernels`; results land in
//! `BENCH_kernels.json` (workspace root only when `BENCH_WRITE_BASELINE`
//! is set, `target/` otherwise). `BENCH_FILTER=<substring>` runs a
//! subset — the CI smoke step uses it to time a single benchmark.

use bench::{bb, Harness};
use ecg_features::DenseMatrix;
use ecg_sim::dataset::{DatasetSpec, Scale};
use fixedpoint::quantize::Quantizer;
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::kernels;
use seizure_core::quickfeat::{synthetic_matrix, QuickFeatConfig};
use seizure_core::trained::FloatPipeline;
use svm::{ClassifierEngine, Kernel};

/// The pre-micro-kernel quantised batch path, replicated faithfully: a
/// fresh code vector per row, a `Quantizer` and per-element `exp2` and
/// division in the encode, and the i128 reference accumulator — the
/// "current i128 path" of the perf trajectory. Produces the same
/// classifications as `classify_batch` (asserted in `main`).
fn legacy_quantized_classify_batch(
    engine: &QuantizedEngine,
    pipeline: &FloatPipeline,
    rows: &DenseMatrix<f64>,
) -> Vec<f64> {
    let bits = engine.bits();
    let guard = pipeline.guard();
    let q = Quantizer::for_range_exponent(-guard, bits.d_bits);
    let bound = (-guard as f64).exp2();
    let one = 1i128 << (2 * (guard + bits.d_bits as i32 - 1));
    rows.rows()
        .map(|row| {
            let codes: Vec<i64> = pipeline
                .feature_indices()
                .iter()
                .zip(pipeline.scales().r.iter())
                .map(|(&j, &r)| {
                    q.encode((row[j] / ((r + guard) as f64).exp2()).clamp(-bound, bound))
                })
                .collect();
            let code = kernels::decision_code_i128(
                &codes,
                engine.sv_codes(),
                engine.alpha_codes(),
                one,
                bits.post_dot_truncate,
                bits.post_square_truncate,
                engine.bias_code(),
            );
            if code >= 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

/// The pre-micro-kernel float batch path: normalise the block, then one
/// zip-fold dot per (row, SV) pair with strictly sequential accumulation
/// — kept here as the "naive" timing reference.
fn naive_decision_batch(p: &FloatPipeline, rows: &DenseMatrix<f64>) -> Vec<f64> {
    let normalized = p.normalize_batch(rows);
    let model = p.model();
    let naive_dot =
        |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v.iter()).map(|(a, b)| a * b).sum() };
    let naive_eval = |u: &[f64], v: &[f64]| -> f64 {
        match model.kernel() {
            Kernel::Linear => naive_dot(u, v),
            Kernel::Polynomial { degree } => (naive_dot(u, v) + 1.0).powi(degree as i32),
            Kernel::Rbf { gamma } => {
                let d2: f64 = u.iter().zip(v.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
        }
    };
    normalized
        .rows()
        .map(|x| {
            let mut acc = model.bias();
            for (sv, &ay) in model.support_vectors().rows().zip(model.alpha_y().iter()) {
                acc += ay * naive_eval(x, sv);
            }
            acc
        })
        .collect()
}

fn main() {
    let mut h = Harness::new();

    let matrix = synthetic_matrix(&QuickFeatConfig {
        n_sessions: 6,
        windows_per_session: 50,
        ..Default::default()
    });
    let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit");
    let engine =
        QuantizedEngine::from_pipeline(&pipeline, BitConfig::paper_choice()).expect("engine");
    assert!(
        engine.uses_i64_fast_path(),
        "paper choice must sit under the i64 threshold"
    );

    // --- (1) quantised datapath: i64 micro-kernel vs i128 reference ---
    // `_i128` shares the new cached encode (isolates the datapath win);
    // `_legacy` is the full pre-micro-kernel path the perf trajectory
    // measures against.
    assert_eq!(
        legacy_quantized_classify_batch(&engine, &pipeline, &matrix.features),
        engine.classify_batch(&matrix.features),
        "legacy replica must classify identically"
    );
    let quant_fast = h.bench("quantized_classify_batch_300_i64", || {
        bb(engine.classify_batch(&matrix.features))
    });
    let quant_ref = h.bench("quantized_classify_batch_300_i128", || {
        bb(engine.classify_batch_i128_reference(&matrix.features))
    });
    let quant_legacy = h.bench("quantized_classify_batch_300_legacy", || {
        bb(legacy_quantized_classify_batch(
            &engine,
            &pipeline,
            &matrix.features,
        ))
    });

    // --- (2) float batch: SV-panel-tiled micro-kernel vs naive path ---
    let float_tiled = h.bench("float_decision_batch_300_tiled", || {
        bb(pipeline.decision_batch(&matrix.features))
    });
    let float_naive = h.bench("float_decision_batch_300_naive", || {
        bb(naive_decision_batch(&pipeline, &matrix.features))
    });

    // --- (3) SMO training on a real Tiny cohort (micro-kernel Gram) ---
    // The cohort build is itself expensive; skip it when the benchmark
    // is filtered out.
    let smo_train = if h.enabled("smo_train_tiny") {
        let spec = DatasetSpec::new(Scale::Tiny, 42);
        let tiny = seizure_core::assemble::build_feature_matrix(&spec);
        h.bench("smo_train_tiny", || {
            bb(FloatPipeline::fit(&tiny, &FitConfig::default()).expect("fit tiny"))
        })
    } else {
        f64::NAN
    };

    h.report();
    println!("\nspeedups (median, >1 means the micro-kernel layer wins):");
    println!(
        "  quantized i64 vs i128 batch:   {:.2}x",
        quant_ref / quant_fast
    );
    println!(
        "  quantized i64 vs legacy batch: {:.2}x",
        quant_legacy / quant_fast
    );
    println!(
        "  float tiled vs naive batch:    {:.2}x",
        float_naive / float_tiled
    );

    let workers = seizure_core::parallel::worker_count(usize::MAX);
    // Smoke runs must not clobber the committed perf-trajectory baseline:
    // the repo-root file is only rewritten when explicitly requested.
    let out = if std::env::var("BENCH_WRITE_BASELINE").is_ok() {
        assert!(
            !h.filter_active(),
            "refusing to write the committed baseline from a \
             BENCH_FILTER-restricted run (skipped benches would bake NaN \
             ratios into BENCH_kernels.json)"
        );
        format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR"))
    } else {
        let dir = format!("{}/../../target", env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(&dir).expect("create target dir");
        format!("{dir}/BENCH_kernels.json")
    };
    h.write_json(
        &out,
        &[
            ("suite", "kernels".to_string()),
            ("workers", workers.to_string()),
            ("n_sv", engine.n_support_vectors().to_string()),
            (
                "n_feat",
                svm::ClassifierEngine::n_features(&engine).to_string(),
            ),
            (
                "quantized_i64_vs_i128_speedup",
                format!("{:.3}", quant_ref / quant_fast),
            ),
            (
                "quantized_i64_vs_legacy_speedup",
                format!("{:.3}", quant_legacy / quant_fast),
            ),
            (
                "float_tiled_vs_naive_speedup",
                format!("{:.3}", float_naive / float_tiled),
            ),
            ("smo_train_tiny_ms", format!("{:.2}", smo_train / 1e6)),
        ],
    );
}
