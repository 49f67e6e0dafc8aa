//! Fleet-vs-solo equivalence on a real `Tiny` cohort — the fleet
//! subsystem's acceptance property:
//!
//! For a cohort of patients multiplexed through one [`FleetScheduler`]
//! (chunks ingested in **arbitrary patient interleavings**, flushes
//! interspersed at arbitrary points, decisions batched across patients
//! through `decision_batch`), every patient's decision stream is
//! **bit-identical** (f64 bit patterns) to replaying that patient alone
//! through a solo [`StreamingSession`] — for both the float pipeline
//! and the quantised engine, under fixed round-robin and deterministic
//! seeded random interleavings, with the alarm stage enabled under
//! **both** [`DroppedPolicy`] variants (each stream is prefixed with a
//! flat window so a real dropped window exercises the policies), and at
//! **every flush executor count** — serial (`workers = Some(1)`), a
//! fleet-owned two-executor pool (`Some(2)`), and the machine-default
//! global pool (`None`). The staged flush pipeline (sharded extraction →
//! parallel panel fan-out → ordered route-back) must be invisible in the
//! results; only wall-clock may change. A fleet restarted from a
//! persisted pipeline ([`load_engine`]) decides bit-identically to the
//! live one, and [`FleetScheduler::event_metrics`] pools cohort events
//! against ground truth. A worker panic during the panel stage must
//! surface on the flushing caller, and the fleet's pool must survive
//! for subsequent flushes.

use epilepsy_monitor::load_engine;
use epilepsy_monitor::prelude::*;
use seizure_core::alarm::{truth_events, AlarmEvent, DroppedPolicy, TruthEvent};
use seizure_core::fleet::FleetFlush;
use seizure_core::stream::{SharedEngine, StreamingSession, WindowDecision};
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn spec() -> &'static DatasetSpec {
    static SPEC: OnceLock<DatasetSpec> = OnceLock::new();
    SPEC.get_or_init(|| DatasetSpec::new(Scale::Tiny, 42))
}

fn pipeline() -> &'static FloatPipeline {
    static PIPE: OnceLock<FloatPipeline> = OnceLock::new();
    PIPE.get_or_init(|| {
        let matrix = build_feature_matrix(spec());
        FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit on Tiny cohort")
    })
}

/// Cohort streams: every session's ECG, prefixed with one flat window so
/// window 0 is a guaranteed extraction drop (the dropped policies then
/// have something to disagree on).
fn streams() -> &'static Vec<Vec<f64>> {
    static STREAMS: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        spec()
            .sessions
            .iter()
            .take(4)
            .map(|s| {
                let rec = s.synthesize();
                let mut ecg = vec![0.0; 5120]; // one flat 40 s window
                ecg.extend_from_slice(&rec.ecg);
                ecg
            })
            .collect()
    })
}

fn engines() -> Vec<(&'static str, SharedEngine)> {
    let p = pipeline();
    let quantized =
        QuantizedEngine::from_pipeline(p, BitConfig::paper_choice()).expect("quantized engine");
    vec![
        ("float", Arc::new(p.clone()) as SharedEngine),
        ("quantized", Arc::new(quantized) as SharedEngine),
    ]
}

/// Appends a flush's alarms to the caller's per-patient alarm map.
fn collect_alarms(alarms: &mut BTreeMap<u64, Vec<AlarmEvent>>, flush: &FleetFlush) {
    for &(p, a) in &flush.alarms {
        alarms.entry(p).or_default().push(a);
    }
}

/// Solo reference: each patient alone through a `StreamingSession` with
/// the same alarm stage; returns per-patient (decisions, alarms).
fn solo_reference(
    engine: &SharedEngine,
    cfg: StreamConfig,
    alarm_cfg: Option<AlarmConfig>,
    cohort: &[Vec<f64>],
) -> Vec<(Vec<WindowDecision>, Vec<AlarmEvent>)> {
    cohort
        .iter()
        .map(|samples| {
            let mut session = match alarm_cfg {
                Some(a) => StreamingSession::with_alarms(Arc::clone(engine), cfg, a).unwrap(),
                None => StreamingSession::new(Arc::clone(engine), cfg).unwrap(),
            };
            let decisions = session.push_samples(samples);
            let alarms = session.take_alarms();
            (decisions, alarms)
        })
        .collect()
}

fn assert_patient_matches(
    label: &str,
    patient: usize,
    fleet_decisions: &[WindowDecision],
    fleet_alarms: &[AlarmEvent],
    reference: &(Vec<WindowDecision>, Vec<AlarmEvent>),
) {
    let (ref_decisions, ref_alarms) = reference;
    assert_eq!(
        fleet_decisions.len(),
        ref_decisions.len(),
        "{label}: patient {patient} window count"
    );
    assert!(!ref_decisions.is_empty(), "{label}: degenerate reference");
    for (a, b) in fleet_decisions.iter().zip(ref_decisions.iter()) {
        assert_eq!(a.window_index, b.window_index, "{label}: p{patient}");
        assert_eq!(a.start_sample, b.start_sample, "{label}: p{patient}");
        assert_eq!(
            a.decision.map(f64::to_bits),
            b.decision.map(f64::to_bits),
            "{label}: patient {patient} window {} must be bit-identical",
            a.window_index
        );
        assert_eq!(a.is_seizure, b.is_seizure, "{label}: p{patient}");
    }
    assert_eq!(
        fleet_alarms, ref_alarms,
        "{label}: patient {patient} alarm stream"
    );
}

/// The flush executor counts every equivalence property is checked
/// under: serial, a fleet-owned two-executor pool, the machine-default
/// global pool.
const WORKER_COUNTS: [Option<usize>; 3] = [Some(1), Some(2), None];

/// Drives one fleet over the cohort with a chunk/flush schedule, then
/// checks every patient against the solo reference.
#[allow(clippy::too_many_arguments)] // a test-harness driver: label + config + three schedule closures
fn check_fleet(
    label: &str,
    engine: &SharedEngine,
    cfg: StreamConfig,
    alarm_cfg: Option<AlarmConfig>,
    workers: Option<usize>,
    cohort: &[Vec<f64>],
    mut next_pick: impl FnMut(usize) -> usize,
    mut next_len: impl FnMut() -> usize,
    mut flush_now: impl FnMut() -> bool,
) {
    let fleet_cfg = FleetConfig {
        alarms: alarm_cfg,
        workers,
        ..FleetConfig::unbounded(cfg)
    };
    let mut fleet = FleetScheduler::new(Arc::clone(engine), fleet_cfg).unwrap();
    for p in 0..cohort.len() {
        fleet.admit(p as u64).unwrap();
    }
    let mut cursors = vec![0usize; cohort.len()];
    let mut decisions: Vec<Vec<WindowDecision>> = vec![Vec::new(); cohort.len()];
    let mut alarms: Vec<Vec<AlarmEvent>> = vec![Vec::new(); cohort.len()];
    let collect = |flush: FleetFlush,
                   decisions: &mut Vec<Vec<WindowDecision>>,
                   alarms: &mut Vec<Vec<AlarmEvent>>| {
        for d in flush.decisions {
            decisions[d.patient as usize].push(d.decision);
        }
        for (p, a) in flush.alarms {
            alarms[p as usize].push(a);
        }
    };
    let mut live: Vec<usize> = (0..cohort.len()).collect();
    while !live.is_empty() {
        let pick = live[next_pick(live.len()) % live.len()];
        let cur = cursors[pick];
        let len = next_len().clamp(1, cohort[pick].len() - cur);
        fleet
            .ingest(pick as u64, &cohort[pick][cur..cur + len])
            .unwrap();
        cursors[pick] += len;
        if cursors[pick] == cohort[pick].len() {
            live.retain(|&p| p != pick);
        }
        if flush_now() {
            collect(fleet.flush(), &mut decisions, &mut alarms);
        }
    }
    collect(fleet.flush(), &mut decisions, &mut alarms);
    assert_eq!(fleet.stats().pending_windows, 0);

    let reference = solo_reference(engine, cfg, alarm_cfg, cohort);
    for (p, r) in reference.iter().enumerate() {
        assert_patient_matches(label, p, &decisions[p], &alarms[p], r);
    }
    // The flat prefix really produced a dropped window per patient.
    for (p, (d, _)) in reference.iter().enumerate() {
        assert!(
            d.iter().any(|w| w.decision.is_none()),
            "patient {p} should have a dropped window"
        );
    }
}

#[test]
fn fleet_is_bit_identical_to_solo_streaming_for_both_engines() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let cohort = streams();
    for (name, engine) in &engines() {
        for workers in WORKER_COUNTS {
            // Fixed schedule: strict round-robin, one-second chunks,
            // flush after every 7th ingest.
            let mut rr = 0usize;
            let mut tick = 0usize;
            check_fleet(
                &format!("{name}/round-robin/workers-{workers:?}"),
                engine,
                cfg,
                None,
                workers,
                cohort,
                move |_n| {
                    rr += 1;
                    rr - 1
                },
                || 128,
                move || {
                    tick += 1;
                    tick.is_multiple_of(7)
                },
            );
            // Whole-stream pushes, single final flush (the batch
            // extreme — every session extracts in one shard pass).
            let mut rr2 = 0usize;
            check_fleet(
                &format!("{name}/one-shot/workers-{workers:?}"),
                engine,
                cfg,
                None,
                workers,
                cohort,
                move |_n| {
                    rr2 += 1;
                    rr2 - 1
                },
                || usize::MAX,
                || false,
            );
        }
    }
}

#[test]
fn fleet_alarms_match_solo_for_both_engines_and_both_dropped_policies() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let cohort = streams();
    for (name, engine) in &engines() {
        for (policy_name, policy) in [
            ("vote", DroppedPolicy::VoteNonSeizure),
            ("skip", DroppedPolicy::Skip),
        ] {
            let alarm_cfg = AlarmConfig {
                k: 2,
                n: 3,
                refractory_windows: 2,
                dropped: policy,
            };
            // Deterministic random interleavings: random patient picks,
            // random chunk sizes straddling window boundaries, random
            // flush points — each round at a different executor count,
            // so the worker matrix rides the same seeded schedules.
            for round in 0..2u64 {
                for workers in WORKER_COUNTS {
                    let mut pick_rng =
                        StdRng::seed_from_u64(0x00C0_FFEE ^ (round << 8) ^ name.len() as u64);
                    let mut len_rng = StdRng::seed_from_u64(0xD15E_A5E5 ^ round);
                    let mut flush_rng = StdRng::seed_from_u64(0x0BAD_F00D ^ (round << 16));
                    check_fleet(
                        &format!("{name}/{policy_name}/random-{round}/workers-{workers:?}"),
                        engine,
                        cfg,
                        Some(alarm_cfg),
                        workers,
                        cohort,
                        move |n| pick_rng.next_u64() as usize % n.max(1),
                        move || 1 + (len_rng.next_u64() as usize) % (2 * cfg.window_len),
                        move || flush_rng.next_u64().is_multiple_of(3),
                    );
                }
            }
        }
    }
}

#[test]
fn restored_fleet_is_bit_identical_and_event_metrics_pool_the_cohort() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let alarm_cfg = AlarmConfig::k_of_n(1, 2);
    let fleet_cfg = FleetConfig {
        alarms: Some(alarm_cfg),
        ..FleetConfig::unbounded(cfg)
    };
    let p = pipeline();

    // A live fleet and one restarted from persisted pipeline text must
    // produce bit-identical decision streams (float and quantised).
    let text = p.to_text();
    let bits = BitConfig::paper_choice();
    let quantized: SharedEngine = Arc::new(QuantizedEngine::from_pipeline(p, bits).unwrap());
    let pairs: Vec<(SharedEngine, SharedEngine)> = vec![
        (Arc::new(p.clone()), load_engine(&text, None).unwrap()),
        (quantized, load_engine(&text, Some(bits)).unwrap()),
    ];
    let sessions: Vec<_> = spec.sessions.iter().take(3).collect();
    for (live_engine, restored_engine) in pairs {
        let mut live = FleetScheduler::new(live_engine, fleet_cfg).unwrap();
        let mut restored = FleetScheduler::new(restored_engine, fleet_cfg).unwrap();
        assert_eq!(live.engine_info(), restored.engine_info());
        for (id, s) in sessions.iter().enumerate() {
            live.admit(id as u64).unwrap();
            restored.admit(id as u64).unwrap();
            let rec = s.synthesize();
            live.ingest(id as u64, &rec.ecg).unwrap();
            restored.ingest(id as u64, &rec.ecg).unwrap();
        }
        let a = live.flush();
        let b = restored.flush();
        assert_eq!(a.rows_classified, b.rows_classified);
        assert_eq!(a.decisions.len(), b.decisions.len());
        for (x, y) in a.decisions.iter().zip(b.decisions.iter()) {
            assert_eq!(x.patient, y.patient);
            assert_eq!(x.decision.window_index, y.decision.window_index);
            assert_eq!(
                x.decision.decision.map(f64::to_bits),
                y.decision.decision.map(f64::to_bits),
                "restart must be bit-identical"
            );
        }
        assert_eq!(a.alarms, b.alarms);
    }

    // Pooled event metrics against ground truth, plus the wall-clock
    // pooled throughput the merged stream stats cannot give.
    let mut fleet = FleetScheduler::new(Arc::new(p.clone()), fleet_cfg).unwrap();
    let mut truth: BTreeMap<u64, Vec<TruthEvent>> = BTreeMap::new();
    for (id, s) in sessions.iter().enumerate() {
        fleet.admit(id as u64).unwrap();
        let rec = s.synthesize();
        fleet.ingest(id as u64, &rec.ecg).unwrap();
        truth.insert(id as u64, truth_events(&rec.seizures));
    }
    let flush = fleet.flush();
    assert!(!flush.decisions.is_empty());
    let mut alarms = BTreeMap::new();
    collect_alarms(&mut alarms, &flush);
    let events = fleet.event_metrics(&alarms, &truth).unwrap();
    let n_truth: usize = truth.values().map(Vec::len).sum();
    assert_eq!(events.n_events, n_truth);
    assert!(events.monitored_s > 0.0);
    let stream = fleet.stream_stats();
    assert_eq!(
        alarms.values().map(Vec::len).sum::<usize>(),
        stream.alarms as usize,
        "collected alarms agree with session counters"
    );
    assert!(fleet.stats().wall_windows_per_sec() > 0.0);
    assert_eq!(stream.windows, flush.decisions.len() as u64);
    // Unknown patient in the truth map is rejected.
    truth.insert(999, Vec::new());
    assert!(fleet.event_metrics(&alarms, &truth).is_err());
}

#[test]
fn worker_panic_in_the_panel_stage_surfaces_and_the_pool_survives() {
    use epilepsy_monitor::features::N_FEATURES;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Decision = Σ row — except a marker row (first feature ≥ 900)
    /// panics, standing in for an engine bug tripping on one window
    /// inside the parallel panel fan-out.
    struct TrapEngine;

    impl svm::ClassifierEngine for TrapEngine {
        fn decision(&self, row: &[f64]) -> f64 {
            assert!(row[0] < 900.0, "trap row reached the kernel");
            row.iter().sum()
        }
        fn n_features(&self) -> usize {
            N_FEATURES
        }
        fn info(&self) -> svm::EngineInfo {
            svm::EngineInfo {
                kind: "trap-test",
                n_support_vectors: 1,
                n_features: N_FEATURES,
                d_bits: None,
                a_bits: None,
            }
        }
    }

    let row = |v: f64| {
        let mut r = vec![0.0; N_FEATURES];
        r[0] = v;
        r
    };
    let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
    let mut fleet = FleetScheduler::new(
        Arc::new(TrapEngine) as SharedEngine,
        seizure_core::fleet::FleetConfig {
            workers: Some(2), // a fleet-owned pool: one worker + caller
            ..seizure_core::fleet::FleetConfig::unbounded(cfg)
        },
    )
    .unwrap();
    for p in 0..3u64 {
        fleet.admit(p).unwrap();
    }
    // 600 rows round-robin → three panels, so the parallel fan-out
    // branch really engages; patient 1 carries the trap row.
    for i in 0..600usize {
        let p = (i % 3) as u64;
        let v = if p == 1 && i / 3 == 57 {
            901.0
        } else {
            i as f64
        };
        fleet.ingest_row(p, Some(&row(v))).unwrap();
    }
    // The worker's panic must surface on the flushing caller…
    let panicked = catch_unwind(AssertUnwindSafe(|| fleet.flush()));
    assert!(panicked.is_err(), "panel-stage panic must propagate");
    // …without corrupting the fleet: the panic unwound before the
    // route-back stage, so every queue is intact. Restarting the
    // poisoned patient clears the trap row, and the fleet's own pool
    // survives to serve the next flush.
    let restarted = fleet.restart(1).unwrap();
    assert_eq!(restarted.discarded_windows, 200);
    let flush = fleet.flush();
    assert_eq!(flush.rows_classified, 400);
    assert_eq!(flush.decisions.len(), 400);
    for d in &flush.decisions {
        assert_ne!(d.patient, 1);
        assert!(d.decision.decision.is_some());
    }
    // The pool keeps serving fresh work, including the restarted slot.
    fleet.ingest_row(1, Some(&row(5.0))).unwrap();
    let flush = fleet.flush();
    assert_eq!(flush.decisions.len(), 1);
    assert_eq!(flush.decisions[0].decision.decision, Some(5.0));
    assert_eq!(fleet.stats().pending_windows, 0);
}

#[test]
fn row_ingest_event_metrics_have_monitored_time() {
    // Regression: a fleet fed exclusively through ingest_row (on-device
    // extraction) passes no samples through the server, but event
    // scoring must still derive monitored time — from the stride-spaced
    // span of decided windows — so FA/24h stays meaningful.
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    let fleet_cfg = FleetConfig {
        alarms: Some(AlarmConfig::k_of_n(1, 1)),
        ..FleetConfig::unbounded(cfg)
    };
    let mut fleet = FleetScheduler::new(Arc::new(pipeline().clone()), fleet_cfg).unwrap();
    fleet.admit(0).unwrap();
    let row = vec![0.0; epilepsy_monitor::features::N_FEATURES];
    for _ in 0..6 {
        fleet.ingest_row(0, Some(&row)).unwrap();
    }
    let mut alarms = BTreeMap::new();
    collect_alarms(&mut alarms, &fleet.flush());
    assert_eq!(fleet.patient_stats(0).unwrap().samples_in, 0);
    // No true seizures: every alarm the constant rows raise is false.
    let truth: BTreeMap<u64, Vec<TruthEvent>> = [(0u64, Vec::new())].into();
    let events = fleet.event_metrics(&alarms, &truth).unwrap();
    let expected_s = 6.0 * cfg.stride as f64 / cfg.fs;
    assert!((events.monitored_s - expected_s).abs() < 1e-9);
    assert!(
        events.false_alarms_per_24h().is_some(),
        "FA/24h must be reportable on the row-ingest path"
    );
}
