//! Perf-trajectory baseline for the DSP front-end: the fused micro-kernel
//! layer (cascade-fused filtfilt, fused derivative→squaring→integration,
//! bucket-grid peak filter, plan-cached real-input Welch) against the
//! staged pre-fusion reference path, per stage and end to end, plus
//! lane-batched extraction.
//!
//! All rows run on one real `Tiny` analysis window (5120 samples at
//! 128 Hz) so the stage mix matches what a streaming monitor actually
//! pays per window.
//!
//! Run with `cargo bench -p bench --bench dsp`; results land in
//! `BENCH_dsp.json` (workspace root only when `BENCH_WRITE_BASELINE` is
//! set, `target/` otherwise). `BENCH_FILTER=<substring>` runs a subset —
//! the CI smoke step uses it to time a single benchmark.

use bench::{bb, Harness};
use biodsp::filter::{
    five_point_derivative_into, moving_average_into, FiltFiltScratch, SosCascade,
};
use biodsp::psd::{welch, welch_reference};
use biodsp::qrs::{DetectScratch, PanTompkins, QrsDetection};
use biodsp::window::WindowKind;
use ecg_features::ar_feats::ar_features;
use ecg_features::edr::extract_edr;
use ecg_features::extract::{BatchExtractScratch, ExtractScratch, WindowExtractor};
use ecg_features::hrv::{clean_rr, hrv_features};
use ecg_features::lorenz::lorenz_features;
use ecg_features::psd_feats::{psd_features, psd_features_reference};
use ecg_sim::dataset::{DatasetSpec, Scale};

fn main() {
    let mut h = Harness::new();

    // One real Tiny window: seeded session 0, first analysis window.
    let spec = DatasetSpec::new(Scale::Tiny, 42);
    let fs = spec.scale.fs();
    let window_s = spec.scale.window_s();
    let rec = spec.sessions[0].synthesize();
    let labels = rec.window_labels(window_s);
    let win: Vec<f64> = rec.window_samples(&labels[0]).to_vec();

    // --- (1) zero-phase band-pass: fused chain vs per-section sweeps ---
    let bp = SosCascade::butterworth_bandpass(5.0, 15.0, fs, 1).expect("band-pass");
    let mut ffs = FiltFiltScratch::default();
    let mut filtered = Vec::new();
    let filt_fused = h.bench("filtfilt_window_fused", || {
        bp.filtfilt_into(&win, &mut ffs, &mut filtered);
        bb(&filtered);
    });
    let filt_legacy = h.bench("filtfilt_window_legacy", || {
        bp.filtfilt_into_reference(&win, &mut ffs, &mut filtered);
        bb(&filtered);
    });

    // --- (2) QRS energy: fused single pass vs three staged passes ---
    bp.filtfilt_into(&win, &mut ffs, &mut filtered);
    let mwi_win = ((0.150 * fs).round() as usize).max(1);
    let mut ring = Vec::new();
    let mut mwi = Vec::new();
    let energy_fused = h.bench("qrs_energy_window_fused", || {
        biodsp::kernels::qrs_energy_into(&filtered, fs, mwi_win, &mut ring, &mut mwi);
        bb(&mwi);
    });
    let mut deriv = Vec::new();
    let mut squared: Vec<f64> = Vec::new();
    let energy_staged = h.bench("qrs_energy_window_staged", || {
        five_point_derivative_into(&filtered, fs, &mut deriv);
        squared.clear();
        squared.extend(deriv.iter().map(|v| v * v));
        moving_average_into(&squared, mwi_win, &mut mwi).expect("mwi");
        bb(&mwi);
    });

    // --- (3) whole QRS detection: fused vs reference ---
    let det_cfg = PanTompkins::default();
    let mut dscr = DetectScratch::default();
    let mut det = QrsDetection::default();
    let detect_fused = h.bench("detect_window_fused_f64", || {
        det_cfg.detect_into(&win, fs, &mut dscr, &mut det).unwrap();
        bb(&det);
    });
    let detect_legacy = h.bench("detect_window_legacy_f64", || {
        det_cfg
            .detect_into_reference(&win, fs, &mut dscr, &mut det)
            .unwrap();
        bb(&det);
    });

    // --- (4) beat-rate feature stages on the window's detection ---
    det_cfg.detect_into(&win, fs, &mut dscr, &mut det).unwrap();
    let rr = clean_rr(&det.rr_intervals());
    let edr = extract_edr(&det).expect("edr");
    h.bench("hrv_features_window", || bb(hrv_features(&rr)));
    h.bench("lorenz_features_window", || bb(lorenz_features(&rr)));
    h.bench("ar_burg_window", || bb(ar_features(&edr)));
    let psd_planned = h.bench("psd_features_window_planned", || bb(psd_features(&edr)));
    let psd_legacy = h.bench("psd_features_window_legacy", || {
        bb(psd_features_reference(&edr))
    });

    // --- (5) Welch on the raw EDR series: plan-cached rfft vs legacy ---
    let welch_planned = h.bench("welch_edr_planned", || {
        bb(welch(&edr.samples, edr.fs, 128, 0.5, WindowKind::Hann).expect("welch"))
    });
    let welch_legacy = h.bench("welch_edr_legacy", || {
        bb(welch_reference(&edr.samples, edr.fs, 128, 0.5, WindowKind::Hann).expect("welch"))
    });

    // --- (6) whole-window extraction: the end-to-end per-window cost ---
    let ext_fused = WindowExtractor::new(fs);
    let mut scratch = ExtractScratch::default();
    let mut row = Vec::new();
    let extract_fused = h.bench("extract_window_fused_f64", || {
        ext_fused
            .extract_into(&win, &mut scratch, &mut row)
            .unwrap();
        bb(&row);
    });
    let extract_legacy = h.bench("extract_window_legacy_f64", || {
        ext_fused
            .extract_into_reference(&win, &mut scratch, &mut row)
            .unwrap();
        bb(&row);
    });

    // --- (7) lane-batched extraction: SoA lanes vs a scalar loop ---
    // The same 8 real windows per iteration in every row, so the medians
    // compare like for like: the scalar loop extracts them one at a
    // time, the lane rows split them into groups of 2, 4 or 8 and run
    // each group lock-step through the dense DSP phases.
    let group: Vec<&[f64]> = labels
        .iter()
        .take(8)
        .map(|l| rec.window_samples(l))
        .collect();
    assert_eq!(group.len(), 8, "Tiny session 0 must yield 8 windows");
    let mut batch = BatchExtractScratch::default();
    let extract_scalar_loop = h.bench("extract_batch_scalar_loop", || {
        for w in &group {
            ext_fused.extract_into(w, &mut scratch, &mut row).unwrap();
            bb(&row);
        }
    });
    let extract_lanes2 = h.bench("extract_batch_lanes2", || {
        for pair in group.chunks_exact(2) {
            ext_fused.extract_batch_into(pair, &mut batch, |_, r| {
                bb(r.unwrap());
            });
        }
    });
    let extract_lanes4 = h.bench("extract_batch_lanes4", || {
        for quad in group.chunks_exact(4) {
            ext_fused.extract_batch_into(quad, &mut batch, |_, r| {
                bb(r.unwrap());
            });
        }
    });
    let extract_lanes8 = h.bench("extract_batch_lanes8", || {
        ext_fused.extract_batch_into(&group, &mut batch, |_, r| {
            bb(r.unwrap());
        });
    });

    h.report();
    println!("\nspeedups (median, >1 means the fused front-end wins):");
    println!(
        "  filtfilt fused vs legacy:      {:.2}x",
        filt_legacy / filt_fused
    );
    println!(
        "  qrs energy fused vs staged:    {:.2}x",
        energy_staged / energy_fused
    );
    println!(
        "  detect fused vs legacy:        {:.2}x",
        detect_legacy / detect_fused
    );
    println!(
        "  psd features planned vs legacy:{:.2}x",
        psd_legacy / psd_planned
    );
    println!(
        "  welch planned vs legacy:       {:.2}x",
        welch_legacy / welch_planned
    );
    println!(
        "  extract fused vs legacy:       {:.2}x",
        extract_legacy / extract_fused
    );
    println!(
        "  extract lanes2 vs scalar loop: {:.2}x",
        extract_scalar_loop / extract_lanes2
    );
    println!(
        "  extract lanes4 vs scalar loop: {:.2}x",
        extract_scalar_loop / extract_lanes4
    );
    println!(
        "  extract lanes8 vs scalar loop: {:.2}x",
        extract_scalar_loop / extract_lanes8
    );

    // Smoke runs must not clobber the committed perf-trajectory baseline:
    // the repo-root file is only rewritten when explicitly requested.
    let out = if std::env::var("BENCH_WRITE_BASELINE").is_ok() {
        assert!(
            !h.filter_active(),
            "refusing to write the committed baseline from a \
             BENCH_FILTER-restricted run (skipped benches would bake NaN \
             ratios into BENCH_dsp.json)"
        );
        format!("{}/../../BENCH_dsp.json", env!("CARGO_MANIFEST_DIR"))
    } else {
        let dir = format!("{}/../../target", env!("CARGO_MANIFEST_DIR"));
        std::fs::create_dir_all(&dir).expect("create target dir");
        format!("{dir}/BENCH_dsp.json")
    };
    h.write_json(
        &out,
        &[
            ("suite", "dsp".to_string()),
            ("window_samples", win.len().to_string()),
            ("fs_hz", format!("{fs}")),
            (
                "filtfilt_fused_vs_legacy_speedup",
                format!("{:.3}", filt_legacy / filt_fused),
            ),
            (
                "qrs_energy_fused_vs_staged_speedup",
                format!("{:.3}", energy_staged / energy_fused),
            ),
            (
                "detect_fused_vs_legacy_speedup",
                format!("{:.3}", detect_legacy / detect_fused),
            ),
            (
                "welch_planned_vs_legacy_speedup",
                format!("{:.3}", welch_legacy / welch_planned),
            ),
            (
                "extract_fused_vs_legacy_speedup",
                format!("{:.3}", extract_legacy / extract_fused),
            ),
            (
                "extract_lanes2_vs_scalar_speedup",
                format!("{:.3}", extract_scalar_loop / extract_lanes2),
            ),
            (
                "extract_lanes4_vs_scalar_speedup",
                format!("{:.3}", extract_scalar_loop / extract_lanes4),
            ),
            (
                "extract_lanes8_vs_scalar_speedup",
                format!("{:.3}", extract_scalar_loop / extract_lanes8),
            ),
        ],
    );
}
