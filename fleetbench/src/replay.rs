//! Layer replay of the traced run: the windows the fleet decided, in
//! the order it decided them, passed once more through the public calls
//! of each layer — `stream` → `dsp` → `features` → `engine` → `alarm` —
//! with one span per call. Row workloads replay only the engine and
//! alarm layers: they ship no signal, so their DSP and feature layers
//! record zero calls.

use crate::setup::{Cohort, Reference, CHUNK_SAMPLES};
use crate::trace::{Kind, Tracer};
use crate::workload::alarm_config;
use biodsp::filter::SosCascade;
use biodsp::kernels::{filtfilt_fused_in_ext, qrs_energy_into, SosSection};
use biodsp::qrs::{DetectScratch, LaneDetectScratch, PanTompkins, QrsDetection};
use biodsp::ExtractPrecision;
use ecg_features::ar_feats::ar_features;
use ecg_features::edr::extract_edr;
use ecg_features::extract::{BatchExtractScratch, ExtractScratch, WindowExtractor};
use ecg_features::hrv::{clean_rr, hrv_features};
use ecg_features::lorenz::lorenz_features;
use ecg_features::psd_feats::psd_features_with;
use seizure_core::alarm::AlarmStateMachine;
use seizure_core::fleet::FLUSH_PANEL_ROWS;
use seizure_core::stream::{PendingWindow, SharedEngine, StreamingSession};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Alarm calls per span: one `on_decision` costs a few nanoseconds, less
/// than a clock read, so spans cover batches of calls.
const ALARM_CALLS_PER_SPAN: usize = 256;

/// Replays `log` (`(session, window)` in decision order) through every
/// layer, checking each replayed row and decision against the set-up
/// rows and the reference.
pub fn replay(
    cohort: &Cohort,
    engine: &SharedEngine,
    reference: &Reference,
    log: &[(usize, usize)],
    tracer: &mut Tracer,
) -> Result<(), String> {
    if !cohort.samples.is_empty() {
        replay_signal(cohort, engine, log, tracer)?;
    }
    // engine: 256-row panels of the replayed rows, in order.
    let rows: Vec<&[f64]> = log
        .iter()
        .filter_map(|&(s, w)| cohort.rows[s][w].as_deref())
        .collect();
    let mut values = Vec::with_capacity(FLUSH_PANEL_ROWS);
    let mut decided = Vec::with_capacity(rows.len());
    for panel in rows.chunks(FLUSH_PANEL_ROWS) {
        values.clear();
        let t = Instant::now();
        engine.decision_rows_into(panel, &mut values);
        tracer.record(Kind::EnginePanel, t, panel.len() as u64);
        decided.extend_from_slice(&values);
    }
    let expected = log.iter().filter_map(|&(s, w)| reference[s][w]);
    if !decided.iter().map(|v| v.to_bits()).eq(expected) {
        return Err("replayed engine panels differ from the reference".into());
    }
    // alarm: one machine fed the replayed decisions in order.
    let mut machine = AlarmStateMachine::new(alarm_config()).map_err(|e| e.to_string())?;
    let stride = cohort.stream.stride as u64;
    for (b, batch) in decided.chunks(ALARM_CALLS_PER_SPAN).enumerate() {
        let base = (b * ALARM_CALLS_PER_SPAN) as u64;
        let t = Instant::now();
        for (k, &v) in batch.iter().enumerate() {
            let idx = base + k as u64;
            black_box(machine.on_decision(idx, idx * stride, Some(v)));
        }
        tracer.record(Kind::Alarm, t, batch.len() as u64);
    }
    Ok(())
}

/// The raw-signal layers: stream chunk pushes, the DSP kernels, and the
/// feature families, per window; lane-batched calls per 8 windows.
fn replay_signal(
    cohort: &Cohort,
    engine: &SharedEngine,
    log: &[(usize, usize)],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let fs = cohort.stream.fs;
    let wl = cohort.stream.window_len;
    let window = |s: usize, w: usize| &cohort.samples[s][w * wl..(w + 1) * wl];

    // stream: one solo session fed the replayed windows back to back in
    // 1-s chunks; only pushes that complete no window are spans (the
    // completing push runs extraction, replayed below on its own).
    let mut session =
        StreamingSession::new(Arc::clone(engine), cohort.stream).map_err(|e| e.to_string())?;
    let mut pending: Vec<PendingWindow> = Vec::new();
    for &(s, w) in log {
        let chunks: Vec<&[f64]> = window(s, w).chunks(CHUNK_SAMPLES).collect();
        for (c, chunk) in chunks.iter().enumerate() {
            let t = Instant::now();
            session.extract_windows_into(chunk, &mut pending);
            if c + 1 < chunks.len() {
                tracer.record(Kind::StreamPush, t, 0);
            }
        }
        pending.clear();
    }

    let detector = PanTompkins::default();
    let bp = SosCascade::butterworth_bandpass(detector.band_lo_hz, detector.band_hi_hz, fs, 1)
        .map_err(|e| e.to_string())?;
    let secs: Vec<SosSection<f64>> = bp
        .sections()
        .iter()
        .map(|q| SosSection::from_f64(q.b, q.a))
        .collect();
    let mwi_win = ((detector.integration_window_s * fs).round() as usize).max(1);
    let extractor = WindowExtractor::new(fs);
    let (mut ext, mut ring, mut mwi) = (Vec::new(), Vec::new(), Vec::new());
    let mut dscratch = DetectScratch::default();
    let mut det = QrsDetection::default();
    let mut escratch = ExtractScratch::default();
    let mut row = Vec::new();
    for &(s, w) in log {
        let x = window(s, w);
        let t = Instant::now();
        let pad = filtfilt_fused_in_ext(&secs, x, &mut ext);
        tracer.record(Kind::Filtfilt, t, 0);
        let t = Instant::now();
        qrs_energy_into(&ext[pad..pad + x.len()], fs, mwi_win, &mut ring, &mut mwi);
        tracer.record(Kind::QrsEnergy, t, 0);
        let t = Instant::now();
        let detected =
            detector.detect_into_with(x, fs, ExtractPrecision::F64, &mut dscratch, &mut det);
        tracer.record(Kind::Detect, t, 0);
        let t = Instant::now();
        let extracted = extractor.extract_into(x, &mut escratch, &mut row);
        tracer.record(Kind::Extract, t, 0);
        if extracted.ok().map(|()| row.as_slice()) != cohort.rows[s][w].as_deref() {
            return Err(format!("replayed row of session {s} window {w} differs"));
        }
        if detected.is_err() || det.peaks.len() < 8 {
            continue;
        }
        let t = Instant::now();
        let rr = clean_rr(&det.rr_intervals());
        black_box(hrv_features(&rr));
        tracer.record(Kind::Hrv, t, 0);
        let t = Instant::now();
        black_box(lorenz_features(&rr));
        tracer.record(Kind::Lorenz, t, 0);
        let t = Instant::now();
        let edr = extract_edr(&det);
        tracer.record(Kind::Edr, t, 0);
        let Ok(edr) = edr else { continue };
        let t = Instant::now();
        black_box(ar_features(&edr));
        tracer.record(Kind::Ar, t, 0);
        let t = Instant::now();
        black_box(psd_features_with(&edr, ExtractPrecision::F64));
        tracer.record(Kind::Psd, t, 0);
    }

    // Lane-batched calls on groups of 8 replayed windows.
    let mut lanes = LaneDetectScratch::<f64, 8>::default();
    let mut outs = vec![QrsDetection::default(); 8];
    let mut bscratch = BatchExtractScratch::default();
    for group in log.chunks_exact(8) {
        let windows: Vec<&[f64]> = group.iter().map(|&(s, w)| window(s, w)).collect();
        let t = Instant::now();
        let r = detector.detect_lanes_into::<f64, 8>(&windows, fs, &mut lanes, &mut outs);
        tracer.record(Kind::DetectLanes8, t, 8);
        r.map_err(|e| e.to_string())?;
        let mut same = true;
        let t = Instant::now();
        extractor.extract_batch_into(&windows, &mut bscratch, |j, r| {
            let (s, w) = group[j];
            same &= r.ok() == cohort.rows[s][w].as_deref();
        });
        tracer.record(Kind::ExtractBatch8, t, 8);
        if !same {
            return Err("lane-batched rows differ from the set-up rows".into());
        }
    }
    Ok(())
}
