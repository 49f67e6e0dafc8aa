//! Lane-batched SoA extraction equivalence on a real `Tiny` cohort —
//! the acceptance properties of the lane layer (PR 8):
//!
//! * **lane detection vs scalar, bit-identity at every width** — the
//!   lock-step Pan–Tompkins path (`detect_lanes_into`) reproduces the
//!   scalar fused detector bit for bit on real cohort windows for every
//!   lane width L ∈ {2, 4, 8};
//! * **batched extraction vs scalar, ragged tails included** — the
//!   greedy lane packer behind `extract_batch_into` yields feature rows
//!   bit-identical to one-at-a-time `extract_into` for every batch
//!   size, including tails with `n % L != 0` that fall through 8 → 4 →
//!   2 → scalar, with drop decisions (`FeatureError`) equal too;
//! * **fleet lane packing is invisible** — a fleet multiplexing mixed
//!   patients through large interleaved chunks (multi-window backlogs per
//!   session) or staggered 1-s chunks (lane groups that span patients)
//!   stays bit-identical to solo streaming across flush executor counts.

use epilepsy_monitor::dsp::qrs::{DetectScratch, LaneDetectScratch, PanTompkins, QrsDetection};
use epilepsy_monitor::features::extract::{BatchExtractScratch, ExtractScratch, WindowExtractor};
use epilepsy_monitor::prelude::*;
use seizure_core::stream::{SharedEngine, StreamingSession, WindowDecision};
use std::sync::{Arc, OnceLock};

fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(|| DatasetSpec::new(Scale::Tiny, 42))
}

fn pipeline() -> &'static FloatPipeline {
    static P: OnceLock<FloatPipeline> = OnceLock::new();
    P.get_or_init(|| {
        let matrix = build_feature_matrix(spec());
        FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit on Tiny cohort")
    })
}

fn assert_detection_bitwise(label: &str, got: &QrsDetection, want: &QrsDetection) {
    assert_eq!(got.peaks.len(), want.peaks.len(), "{label}: peak count");
    for (a, b) in got.peaks.iter().zip(want.peaks.iter()) {
        assert_eq!(a.index, b.index, "{label}");
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{label}");
        assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits(), "{label}");
    }
}

/// Checks every chunk of `L` consecutive cohort windows through the lane
/// detector against the scalar fused detector.
fn check_lane_width<const L: usize>(windows: &[&[f64]], fs: f64) -> usize {
    let det = PanTompkins::default();
    let mut scalar = DetectScratch::default();
    let mut lanes = LaneDetectScratch::<f64, L>::default();
    let mut expect = QrsDetection::default();
    let mut outs: Vec<QrsDetection> = (0..L).map(|_| QrsDetection::default()).collect();
    let mut groups = 0usize;
    for group in windows.chunks_exact(L) {
        det.detect_lanes_into::<f64, L>(group, fs, &mut lanes, &mut outs)
            .expect("lane detect");
        for (j, w) in group.iter().enumerate() {
            det.detect_into(w, fs, &mut scalar, &mut expect)
                .expect("scalar detect");
            assert_detection_bitwise(&format!("L={L} lane {j}"), &outs[j], &expect);
        }
        groups += 1;
    }
    groups
}

#[test]
fn lane_detection_matches_scalar_bitwise_at_every_width() {
    let spec = spec();
    let window_s = spec.scale.window_s();
    let mut groups = 0usize;
    for sess in &spec.sessions {
        let rec = sess.synthesize();
        let labels = rec.window_labels(window_s);
        let windows: Vec<&[f64]> = labels.iter().map(|l| rec.window_samples(l)).collect();
        groups += check_lane_width::<2>(&windows, rec.fs);
        groups += check_lane_width::<4>(&windows, rec.fs);
        groups += check_lane_width::<8>(&windows, rec.fs);
    }
    assert!(groups > 10, "too few lane groups compared: {groups}");
}

#[test]
fn batched_extraction_matches_scalar_bitwise_including_ragged_tails() {
    let spec = spec();
    let window_s = spec.scale.window_s();
    let mut batch_scratch = BatchExtractScratch::default();
    let mut scalar_scratch = ExtractScratch::default();
    let mut expect = Vec::new();
    let mut compared = 0usize;
    for sess in &spec.sessions {
        let rec = sess.synthesize();
        let extractor = WindowExtractor::new(rec.fs);
        let labels = rec.window_labels(window_s);
        let windows: Vec<&[f64]> = labels.iter().map(|l| rec.window_samples(l)).collect();
        // Every prefix size up to 9 plus the whole session: covers
        // pure widths (2, 4, 8), ragged tails that cascade 8 → 4 →
        // 2 → scalar (3, 5, 6, 7, 9) and the packer's full-stream
        // grouping, all against one-at-a-time scalar extraction.
        let mut sizes: Vec<usize> = (2..=9.min(windows.len())).collect();
        sizes.push(windows.len());
        for take in sizes {
            extractor.extract_batch_into(&windows[..take], &mut batch_scratch, |j, got| {
                let want = extractor.extract_into(windows[j], &mut scalar_scratch, &mut expect);
                match (got, want) {
                    (Ok(row), Ok(())) => {
                        assert_eq!(row.len(), expect.len());
                        for (k, (a, b)) in row.iter().zip(expect.iter()).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "take {take} window {j} feature {k}: {a} vs {b}"
                            );
                        }
                        compared += 1;
                    }
                    (Err(e), Err(we)) => {
                        assert_eq!(e, we, "take {take} window {j}: drop reasons differ")
                    }
                    (got, want) => panic!(
                        "take {take} window {j}: drop-state mismatch \
                         (batch ok={}, scalar ok={})",
                        got.is_ok(),
                        want.is_ok()
                    ),
                }
            });
        }
    }
    assert!(compared > 50, "too few rows compared: {compared}");
}

#[test]
fn fleet_lane_packing_is_bit_identical_to_solo_streaming() {
    let spec = spec();
    let fs = spec.scale.fs();
    let window_s = spec.scale.window_s();
    // Four mixed patients; big interleaved chunks (several windows each)
    // so the deferred extract stage settles multi-window backlogs and
    // the per-session lane packer forms real groups of 8/4/2 plus tails.
    let cohort: Vec<Vec<f64>> = spec
        .sessions
        .iter()
        .take(4)
        .map(|s| s.synthesize().ecg)
        .collect();
    let engine: SharedEngine = Arc::new(pipeline().clone());
    let cfg = StreamConfig::non_overlapping(fs, window_s).expect("stream config");
    // Solo reference: each patient alone, whole stream in one push —
    // itself lane-packed, and pinned bit-identical to scalar by the
    // extraction tests above.
    let reference: Vec<Vec<WindowDecision>> = cohort
        .iter()
        .map(|samples| {
            let mut s = StreamingSession::new(Arc::clone(&engine), cfg).expect("session");
            s.push_samples(samples)
        })
        .collect();
    for workers in [Some(1), Some(2), None] {
        let fleet_cfg = FleetConfig {
            workers,
            ..FleetConfig::unbounded(cfg)
        };
        let mut fleet = FleetScheduler::new(Arc::clone(&engine), fleet_cfg).expect("fleet config");
        for p in 0..cohort.len() as u64 {
            fleet.admit(p).expect("admit");
        }
        let mut decisions: Vec<Vec<WindowDecision>> = vec![Vec::new(); cohort.len()];
        let mut cursors = vec![0usize; cohort.len()];
        // Round-robin 5-window chunks with a flush every full round:
        // every settle packs a 4-window group plus carry-over, and
        // patients stay interleaved within each flush.
        let chunk = 5 * cfg.window_len;
        let mut live = true;
        while live {
            live = false;
            for (p, samples) in cohort.iter().enumerate() {
                let cur = cursors[p];
                if cur == samples.len() {
                    continue;
                }
                let len = chunk.min(samples.len() - cur);
                fleet
                    .ingest(p as u64, &samples[cur..cur + len])
                    .expect("ingest");
                cursors[p] += len;
                live = true;
            }
            for d in fleet.flush().decisions {
                decisions[d.patient as usize].push(d.decision);
            }
        }
        for (p, reference) in reference.iter().enumerate() {
            assert_eq!(
                decisions[p].len(),
                reference.len(),
                "workers {workers:?}: patient {p} window count"
            );
            for (a, b) in decisions[p].iter().zip(reference.iter()) {
                assert_eq!(a.window_index, b.window_index);
                assert_eq!(
                    a.decision.map(f64::to_bits),
                    b.decision.map(f64::to_bits),
                    "workers {workers:?}: patient {p} window {} \
                     must be bit-identical",
                    a.window_index
                );
                assert_eq!(a.is_seizure, b.is_seizure);
            }
        }
    }
}

#[test]
fn fleet_wide_lane_groups_span_patients_bit_identically() {
    // Twelve patients streaming 1-s chunks round-robin, each starting a
    // different fraction of a window into its session, so windows
    // complete at staggered times and every flush extracts windows of
    // several patients in one lane group (and ragged 4/2/1 tails) — the
    // serving shape where no single session ever holds a full group.
    let spec = spec();
    let fs = spec.scale.fs();
    let cfg = StreamConfig::non_overlapping(fs, spec.scale.window_s()).expect("stream config");
    let sessions: Vec<Vec<f64>> = spec.sessions.iter().map(|s| s.synthesize().ecg).collect();
    let patients = 12usize;
    let streams: Vec<&[f64]> = (0..patients)
        .map(|p| {
            let ecg = &sessions[p % sessions.len()];
            &ecg[p * cfg.window_len / patients..]
        })
        .collect();
    let engine: SharedEngine = Arc::new(pipeline().clone());
    let chunk = fs as usize;
    let reference: Vec<Vec<WindowDecision>> = streams
        .iter()
        .map(|samples| {
            let mut solo = StreamingSession::new(Arc::clone(&engine), cfg).expect("session");
            samples
                .chunks(chunk)
                .flat_map(|c| solo.push_samples(c))
                .collect()
        })
        .collect();
    assert!(
        reference.iter().all(|r| r.len() >= 2),
        "every patient completes windows"
    );
    // A flush every third of a window: each one meets about four
    // patients' completed windows.
    let rounds_per_flush = cfg.window_len / chunk / 3;
    for workers in [Some(1), Some(2), Some(4), None] {
        let mut fleet = FleetScheduler::new(
            Arc::clone(&engine),
            FleetConfig {
                workers,
                ..FleetConfig::unbounded(cfg)
            },
        )
        .expect("fleet config");
        for p in 0..patients as u64 {
            fleet.admit(p).expect("admit");
        }
        let mut decisions: Vec<Vec<WindowDecision>> = vec![Vec::new(); patients];
        let mut widest_flush = 0usize;
        let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut round = 0usize;
        while round * chunk < longest {
            for (p, samples) in streams.iter().enumerate() {
                if let Some(c) = samples.chunks(chunk).nth(round) {
                    fleet.ingest(p as u64, c).expect("ingest");
                }
            }
            round += 1;
            if round.is_multiple_of(rounds_per_flush) || round * chunk >= longest {
                let flush = fleet.flush();
                let mut owners: Vec<u64> = flush.decisions.iter().map(|d| d.patient).collect();
                owners.dedup();
                widest_flush = widest_flush.max(owners.len());
                for d in flush.decisions {
                    decisions[d.patient as usize].push(d.decision);
                }
            }
        }
        assert!(
            widest_flush >= 3,
            "flushes must mix patients ({widest_flush})"
        );
        for (p, want) in reference.iter().enumerate() {
            assert_eq!(
                decisions[p].len(),
                want.len(),
                "workers {workers:?} patient {p}"
            );
            for (a, b) in decisions[p].iter().zip(want.iter()) {
                assert_eq!(
                    (a.window_index, a.start_sample),
                    (b.window_index, b.start_sample)
                );
                assert_eq!(
                    a.decision.map(f64::to_bits),
                    b.decision.map(f64::to_bits),
                    "workers {workers:?}: patient {p} window {} must be bit-identical",
                    a.window_index
                );
            }
        }
    }
}
