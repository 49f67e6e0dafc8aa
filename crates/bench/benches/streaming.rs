//! Perf-trajectory baseline for the streaming inference subsystem:
//! chunked session replay through `StreamingSession` (float and quantised
//! engines) against the batch path on the same windows. Multi-patient
//! serving is measured by the fleet bench.
//!
//! Run with `cargo bench -p bench --bench streaming`; results land in
//! `BENCH_streaming.json` (workspace root only when
//! `BENCH_WRITE_BASELINE` is set, `target/` otherwise) with windows/sec
//! and per-window latency metadata for float vs quantised engines.

use bench::{bb, Harness};
use ecg_features::extract::{ExtractScratch, WindowExtractor};
use ecg_features::{DenseMatrix, N_FEATURES};
use ecg_sim::dataset::{DatasetSpec, Scale};
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::stream::{SharedEngine, StreamConfig, StreamStats, StreamingSession};
use seizure_core::trained::FloatPipeline;
use std::sync::Arc;

/// Replays a session through a fresh stream in `chunk_len`-sample chunks;
/// returns the final stats.
fn replay(engine: &SharedEngine, cfg: StreamConfig, ecg: &[f64], chunk_len: usize) -> StreamStats {
    let mut session = StreamingSession::new(Arc::clone(engine), cfg).expect("stream config");
    let mut out = Vec::new();
    for chunk in ecg.chunks(chunk_len) {
        session.push_samples_into(chunk, &mut out);
    }
    session.stats()
}

fn main() {
    let spec = DatasetSpec::new(Scale::Tiny, 42);
    let window_s = spec.scale.window_s();
    let fs = spec.scale.fs();
    let cfg = StreamConfig::non_overlapping(fs, window_s).expect("stream config");

    let matrix = seizure_core::assemble::build_feature_matrix(&spec);
    let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit");
    let quantized =
        QuantizedEngine::from_pipeline(&pipeline, BitConfig::paper_choice()).expect("engine");
    let float_engine: SharedEngine = Arc::new(pipeline.clone());
    let quant_engine: SharedEngine = Arc::new(quantized);

    let rec = spec.sessions[0].synthesize();
    let chunk_1s = fs as usize; // one-second "radio packets"

    let mut h = Harness::new();

    // --- streaming replay, float vs quantised engine ---
    let stream_float = h.bench("stream_float_session_1s_chunks", || {
        bb(replay(&float_engine, cfg, &rec.ecg, chunk_1s))
    });
    let stream_quant = h.bench("stream_quantized_session_1s_chunks", || {
        bb(replay(&quant_engine, cfg, &rec.ecg, chunk_1s))
    });
    // Chunk-size sensitivity: single samples vs whole-session pushes.
    h.bench("stream_float_session_single_sample_chunks", || {
        bb(replay(&float_engine, cfg, &rec.ecg, 1))
    });
    h.bench("stream_float_session_one_push", || {
        bb(replay(&float_engine, cfg, &rec.ecg, rec.ecg.len()))
    });

    // --- the batch twin on the same windows ---
    let batch_float = h.bench("batch_float_session", || {
        let extractor = WindowExtractor::new(rec.fs);
        let mut scratch = ExtractScratch::default();
        let mut row = Vec::with_capacity(N_FEATURES);
        let mut rows = DenseMatrix::with_cols(N_FEATURES);
        for label in rec.window_labels(window_s) {
            if extractor
                .extract_into(rec.window_samples(&label), &mut scratch, &mut row)
                .is_ok()
            {
                rows.push_row(&row);
            }
        }
        bb(float_engine.decision_batch(&rows))
    });

    h.report();

    // Steady-state per-window numbers: best (lowest mean latency) of
    // several instrumented replays per engine, alternating float and
    // quantised within each round so warm-up/frequency drift cannot
    // systematically favour whichever engine runs later — per-window
    // time is dominated by feature extraction, which both engines share.
    let better = |a: StreamStats, b: StreamStats| -> StreamStats {
        if a.mean_latency_ns() <= b.mean_latency_ns() {
            a
        } else {
            b
        }
    };
    let mut float_stats = replay(&float_engine, cfg, &rec.ecg, chunk_1s);
    let mut quant_stats = replay(&quant_engine, cfg, &rec.ecg, chunk_1s);
    for _ in 0..4 {
        float_stats = better(float_stats, replay(&float_engine, cfg, &rec.ecg, chunk_1s));
        quant_stats = better(quant_stats, replay(&quant_engine, cfg, &rec.ecg, chunk_1s));
    }
    println!("\nper-window streaming stats (one session replay):");
    for (name, s) in [("float", &float_stats), ("quantized", &quant_stats)] {
        println!(
            "  {name:<9} {} windows, {} dropped, {:.0} windows/s, mean {:.2} ms, \
             p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            s.windows,
            s.dropped,
            s.windows_per_sec(),
            s.mean_latency_ns() / 1e6,
            s.latency.p50_ns() as f64 / 1e6,
            s.latency.p99_ns() as f64 / 1e6,
            s.max_latency_ns() as f64 / 1e6
        );
    }
    println!(
        "  stream vs batch (median, whole session): {:.2}x",
        stream_float / batch_float
    );

    let workers = seizure_core::parallel::worker_count(usize::MAX);
    // Smoke runs must not clobber the committed baseline: the repo-root
    // file is only rewritten when explicitly requested.
    let out = if std::env::var("BENCH_WRITE_BASELINE").is_ok() {
        assert!(
            !h.filter_active(),
            "refusing to write the committed baseline from a \
             BENCH_FILTER-restricted run (skipped benches would bake NaN \
             ratios into BENCH_streaming.json)"
        );
        format!("{}/../../BENCH_streaming.json", env!("CARGO_MANIFEST_DIR"))
    } else {
        let dir = format!("{}/../../target", env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(&dir).expect("create target dir");
        format!("{dir}/BENCH_streaming.json")
    };
    h.write_json(
        &out,
        &[
            ("suite", "streaming".to_string()),
            ("workers", workers.to_string()),
            ("windows_per_session", float_stats.windows.to_string()),
            (
                "float_windows_per_sec",
                format!("{:.1}", float_stats.windows_per_sec()),
            ),
            (
                "quantized_windows_per_sec",
                format!("{:.1}", quant_stats.windows_per_sec()),
            ),
            (
                "float_mean_window_latency_ns",
                format!("{:.0}", float_stats.mean_latency_ns()),
            ),
            (
                "quantized_mean_window_latency_ns",
                format!("{:.0}", quant_stats.mean_latency_ns()),
            ),
            (
                "stream_vs_batch_session_ratio",
                format!("{:.3}", stream_float / batch_float),
            ),
            (
                "quantized_vs_float_stream_ratio",
                format!("{:.3}", stream_quant / stream_float),
            ),
        ],
    );
}
