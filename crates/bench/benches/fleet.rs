//! Perf-trajectory baseline for fleet-scale session multiplexing:
//! cross-patient batched inference through `FleetScheduler` at 64 / 256 /
//! 1024 simulated patients.
//!
//! Two serving shapes are measured:
//!
//! * **row ingest** (`fleet_rows_*` vs `perrow_rows_*`) — the
//!   on-device-extraction topology (wearables ship 53-float rows), where
//!   the server is classification-bound and cross-patient batching is
//!   the whole story; the baseline is one solo `StreamingSession` per
//!   patient classifying row by row;
//! * **raw-sample ingest** (`fleet_ingest_flush_*`) — the server runs
//!   feature extraction, so these rows track the extraction-bound
//!   serving rate at each fleet size and executor count.
//!
//! Run with `cargo bench -p bench --bench fleet`; results land in
//! `BENCH_fleet.json` (workspace root only when `BENCH_WRITE_BASELINE`
//! is set, `target/` otherwise) with windows/sec per fleet size and
//! fleet-vs-per-row ratios.

use bench::{bb, Harness};
use ecg_features::extract::{ExtractScratch, WindowExtractor};
use ecg_features::N_FEATURES;
use ecg_sim::dataset::{DatasetSpec, Scale};
use seizure_core::clock::TickConfig;
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::fleet::{FleetConfig, FleetScheduler};
use seizure_core::stream::{SharedEngine, StreamConfig, StreamingSession};
use seizure_core::trained::FloatPipeline;
use std::sync::Arc;

const FLEET_SIZES: [usize; 3] = [64, 256, 1024];
/// Pre-extracted rows each patient contributes per flush cycle on the
/// row-serving path.
const ROWS_PER_PATIENT: usize = 4;
/// Pinned executor counts for the staged flush pipeline's multi-worker
/// rows (`*_w{k}` benches) — alongside the machine-default runs of the
/// unsuffixed benches. On a single-core container the pools just
/// oversubscribe the core, so these rows measure dispatch overhead, not
/// speedup; see the README's fleet bench note.
const WORKER_VARIANTS: [usize; 3] = [1, 2, 4];

/// One window-sized chunk per patient, sliced out of the cohort's real
/// sessions (cycled across patients, staggered so neighbours replay
/// different windows).
fn patient_chunks(ecgs: &[Vec<f64>], window_len: usize, n: usize) -> Vec<&[f64]> {
    (0..n)
        .map(|p| {
            let ecg = &ecgs[p % ecgs.len()];
            let windows = ecg.len() / window_len;
            let w = (p / ecgs.len()) % windows;
            &ecg[w * window_len..(w + 1) * window_len]
        })
        .collect()
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

    // Real session material, cycled across simulated patients.
    let ecgs: Vec<Vec<f64>> = spec.sessions.iter().map(|s| s.synthesize().ecg).collect();
    // Pre-extracted feature rows for the row-serving path.
    let rows: Vec<Vec<f64>> = {
        let rec = spec.sessions[0].synthesize();
        let extractor = WindowExtractor::new(rec.fs);
        let mut scratch = ExtractScratch::default();
        let mut row = Vec::with_capacity(N_FEATURES);
        let mut out = Vec::new();
        for label in rec.window_labels(window_s) {
            if extractor
                .extract_into(rec.window_samples(&label), &mut scratch, &mut row)
                .is_ok()
            {
                out.push(row.clone());
            }
        }
        out
    };
    assert!(rows.len() >= 4, "need a few extracted rows to cycle");

    let mut h = Harness::new();
    let mut meta: Vec<(&str, String)> = Vec::new();

    // --- row-serving path: classification-bound, both engines (float
    // first: it is the cloud-serving backend and the headline, since
    // the quantised engine's scratch-reusing per-row path already runs
    // at batch speed on one core) ---
    for (engine_name, engine) in [("float", &float_engine), ("quant", &quant_engine)] {
        for &n in &FLEET_SIZES {
            let windows_per_iter = (n * ROWS_PER_PATIENT) as f64;
            let fleet_name = format!("fleet_rows_{n}_{engine_name}");
            let perrow_name = format!("perrow_rows_{n}_{engine_name}");
            if !h.enabled(&fleet_name) && !h.enabled(&perrow_name) {
                continue;
            }
            // Persistent fleet: admit once, then ingest_row + flush per
            // iteration — one batched kernel call per cycle.
            let mut fleet = FleetScheduler::new(Arc::clone(engine), FleetConfig::unbounded(cfg))
                .expect("fleet");
            for p in 0..n as u64 {
                fleet.admit(p).expect("admit");
            }
            let mut flush = seizure_core::fleet::FleetFlush::default();
            let fleet_ns = h.bench(&fleet_name, || {
                for p in 0..n {
                    for r in 0..ROWS_PER_PATIENT {
                        let row = &rows[(p + r) % rows.len()];
                        fleet.ingest_row(p as u64, Some(row)).expect("ingest_row");
                    }
                }
                fleet.flush_into(&mut flush);
                bb(flush.rows_classified)
            });
            // Per-row baseline: persistent per-patient solo sessions, one
            // engine.decision per window.
            let mut sessions: Vec<StreamingSession> = (0..n)
                .map(|_| StreamingSession::new(Arc::clone(engine), cfg).expect("session"))
                .collect();
            let perrow_ns = h.bench(&perrow_name, || {
                let mut last = 0u64;
                for (p, session) in sessions.iter_mut().enumerate() {
                    for r in 0..ROWS_PER_PATIENT {
                        let row = &rows[(p + r) % rows.len()];
                        last = session.push_row(Some(row)).expect("push_row").window_index;
                    }
                }
                bb(last)
            });
            if fleet_ns.is_finite() && perrow_ns.is_finite() {
                meta.push((
                    Box::leak(
                        format!("rows_{n}_{engine_name}_fleet_windows_per_sec").into_boxed_str(),
                    ),
                    format!("{:.1}", windows_per_iter * 1e9 / fleet_ns),
                ));
                meta.push((
                    Box::leak(
                        format!("rows_{n}_{engine_name}_perrow_windows_per_sec").into_boxed_str(),
                    ),
                    format!("{:.1}", windows_per_iter * 1e9 / perrow_ns),
                ));
                meta.push((
                    Box::leak(format!("rows_{n}_{engine_name}_fleet_vs_perrow").into_boxed_str()),
                    format!("{:.3}", perrow_ns / fleet_ns),
                ));
            }
            // Pinned executor counts (quantised serving is the
            // latency-critical backend): same workload through a fleet
            // whose flush pipeline runs serial / 2-wide / 4-wide.
            if engine_name == "quant" {
                for &w in &WORKER_VARIANTS {
                    let name = format!("fleet_rows_{n}_quant_w{w}");
                    if !h.enabled(&name) {
                        continue;
                    }
                    let mut fleet = FleetScheduler::new(
                        Arc::clone(engine),
                        FleetConfig {
                            workers: Some(w),
                            ..FleetConfig::unbounded(cfg)
                        },
                    )
                    .expect("fleet");
                    for p in 0..n as u64 {
                        fleet.admit(p).expect("admit");
                    }
                    let mut flush = seizure_core::fleet::FleetFlush::default();
                    let ns = h.bench(&name, || {
                        for p in 0..n {
                            for r in 0..ROWS_PER_PATIENT {
                                let row = &rows[(p + r) % rows.len()];
                                fleet.ingest_row(p as u64, Some(row)).expect("ingest_row");
                            }
                        }
                        fleet.flush_into(&mut flush);
                        bb(flush.rows_classified)
                    });
                    if ns.is_finite() {
                        meta.push((
                            Box::leak(
                                format!("rows_{n}_quant_w{w}_fleet_windows_per_sec")
                                    .into_boxed_str(),
                            ),
                            format!("{:.1}", windows_per_iter * 1e9 / ns),
                        ));
                        if perrow_ns.is_finite() {
                            meta.push((
                                Box::leak(
                                    format!("rows_{n}_quant_w{w}_fleet_vs_perrow").into_boxed_str(),
                                ),
                                format!("{:.3}", perrow_ns / ns),
                            ));
                        }
                    }
                }
            }
        }
    }

    // --- tick-path overhead: the serving-clock tick (deadline
    // accounting, per-row arrival stamping, latency histograms) vs a
    // caller-driven flush on the identical row workload ---
    {
        let n = 256;
        let flush_name = "fleet_rows_256_quant_flush_driven";
        let tick_name = "fleet_rows_256_quant_tick_driven";
        if h.enabled(flush_name) || h.enabled(tick_name) {
            let windows_per_iter = (n * ROWS_PER_PATIENT) as f64;
            let mut run = |name: &str, tick: Option<TickConfig>| {
                let ticked = tick.is_some();
                let mut fleet = FleetScheduler::new(
                    Arc::clone(&quant_engine),
                    FleetConfig {
                        tick,
                        ..FleetConfig::unbounded(cfg)
                    },
                )
                .expect("fleet");
                for p in 0..n as u64 {
                    fleet.admit(p).expect("admit");
                }
                let mut flush = seizure_core::fleet::FleetFlush::default();
                h.bench(name, || {
                    for p in 0..n {
                        for r in 0..ROWS_PER_PATIENT {
                            let row = &rows[(p + r) % rows.len()];
                            fleet.ingest_row(p as u64, Some(row)).expect("ingest_row");
                        }
                    }
                    if ticked {
                        fleet.tick_into(&mut flush).expect("tick");
                    } else {
                        fleet.flush_into(&mut flush);
                    }
                    bb(flush.rows_classified)
                })
            };
            let flush_ns = run(flush_name, None);
            // 1 ns cadence: the wall clock stamps arrivals and accounts
            // deadlines but tick() never sleeps, so the delta over the
            // flush-driven twin is pure tick-path bookkeeping.
            let tick_ns = run(tick_name, Some(TickConfig::wall(1)));
            if flush_ns.is_finite() && tick_ns.is_finite() {
                meta.push((
                    "rows_256_quant_tick_windows_per_sec",
                    format!("{:.1}", windows_per_iter * 1e9 / tick_ns),
                ));
                meta.push((
                    "rows_256_quant_tick_vs_flush",
                    format!("{:.3}", tick_ns / flush_ns),
                ));
            }
        }
    }

    // --- raw-sample ingest: extraction-bound end-to-end serving ---
    for &n in &FLEET_SIZES {
        let fleet_name = format!("fleet_ingest_flush_{n}_quant");
        if !h.enabled(&fleet_name) {
            continue;
        }
        let chunks = patient_chunks(&ecgs, cfg.window_len, n);
        let mut fleet = FleetScheduler::new(Arc::clone(&quant_engine), FleetConfig::unbounded(cfg))
            .expect("fleet");
        for p in 0..n as u64 {
            fleet.admit(p).expect("admit");
        }
        let mut flush = seizure_core::fleet::FleetFlush::default();
        let fleet_ns = h.bench(&fleet_name, || {
            for (p, chunk) in chunks.iter().enumerate() {
                fleet.ingest(p as u64, chunk).expect("ingest");
            }
            fleet.flush_into(&mut flush);
            bb(flush.decisions.len())
        });
        if fleet_ns.is_finite() {
            meta.push((
                Box::leak(format!("ingest_{n}_quant_fleet_windows_per_sec").into_boxed_str()),
                format!("{:.1}", n as f64 * 1e9 / fleet_ns),
            ));
        }
        // Pinned executor counts: the sharded extract stage at serial /
        // 2-wide / 4-wide.
        for &w in &WORKER_VARIANTS {
            let name = format!("fleet_ingest_flush_{n}_quant_w{w}");
            if !h.enabled(&name) {
                continue;
            }
            let mut fleet = FleetScheduler::new(
                Arc::clone(&quant_engine),
                FleetConfig {
                    workers: Some(w),
                    ..FleetConfig::unbounded(cfg)
                },
            )
            .expect("fleet");
            for p in 0..n as u64 {
                fleet.admit(p).expect("admit");
            }
            let mut flush = seizure_core::fleet::FleetFlush::default();
            let ns = h.bench(&name, || {
                for (p, chunk) in chunks.iter().enumerate() {
                    fleet.ingest(p as u64, chunk).expect("ingest");
                }
                fleet.flush_into(&mut flush);
                bb(flush.decisions.len())
            });
            if ns.is_finite() {
                meta.push((
                    Box::leak(
                        format!("ingest_{n}_quant_w{w}_fleet_windows_per_sec").into_boxed_str(),
                    ),
                    format!("{:.1}", n as f64 * 1e9 / ns),
                ));
            }
        }
    }

    h.report();
    println!("\nfleet vs per-row baselines (ratio > 1 ⇒ fleet faster):");
    for (k, v) in &meta {
        if k.ends_with("_fleet_vs_perrow") {
            println!("  {k:<44} {v}x");
        }
    }

    let workers = seizure_core::parallel::worker_count(usize::MAX);
    // Smoke runs must not clobber the committed baseline: the repo-root
    // file is only rewritten when explicitly requested.
    let out = if std::env::var("BENCH_WRITE_BASELINE").is_ok() {
        assert!(
            !h.filter_active(),
            "refusing to write the committed baseline from a \
             BENCH_FILTER-restricted run (skipped benches would bake NaN \
             ratios into BENCH_fleet.json)"
        );
        format!("{}/../../BENCH_fleet.json", env!("CARGO_MANIFEST_DIR"))
    } else {
        let dir = format!("{}/../../target", env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(&dir).expect("create target dir");
        format!("{dir}/BENCH_fleet.json")
    };
    let mut metadata: Vec<(&str, String)> = vec![
        ("suite", "fleet".to_string()),
        ("workers", workers.to_string()),
        ("rows_per_patient", ROWS_PER_PATIENT.to_string()),
    ];
    metadata.extend(meta);
    h.write_json(&out, &metadata);
}
