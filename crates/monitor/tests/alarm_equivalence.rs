//! Streaming-vs-batch **alarm** equivalence on a real `Tiny` cohort —
//! the alarm subsystem's acceptance property:
//!
//! For a synthesised session fed to an alarmed [`StreamingSession`] in
//! arbitrary chunk sizes (fixed sweep plus a deterministic seeded
//! random sweep), the raised [`AlarmEvent`]s are **identical** (every field) to
//! running [`AlarmStateMachine::scan`] over the batch decision sequence
//! of the same windows — for both the float pipeline and the quantised
//! engine. Also pins the `decision == 0.0` boundary regression through
//! `Confusion`, `classify` and streaming, and the fleet's pooled cohort
//! event metrics.

use epilepsy_monitor::prelude::*;
use seizure_core::alarm::{
    score_events, session_decision_sequence, truth_events, AlarmStateMachine, DroppedPolicy,
    EventScoring,
};
use seizure_core::eval::Confusion;
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

fn run_chunked_alarmed(
    monitor: &mut StreamingSession,
    ecg: &[f64],
    mut next_len: impl FnMut() -> usize,
) -> (Vec<WindowDecision>, Vec<AlarmEvent>) {
    let mut decisions = Vec::new();
    let mut alarms = Vec::new();
    let mut fed = 0usize;
    while fed < ecg.len() {
        let len = next_len().clamp(1, ecg.len() - fed);
        decisions.extend(monitor.push_samples(&ecg[fed..fed + len]));
        // Drain alarms mid-stream, like a real consumer would.
        alarms.extend(monitor.take_alarms());
        fed += len;
    }
    (decisions, alarms)
}

#[test]
fn streaming_alarms_match_batch_scan_for_both_engines() {
    let spec = spec();
    let window_s = spec.scale.window_s();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), window_s).expect("stream config");
    let p = pipeline();
    let quantized =
        QuantizedEngine::from_pipeline(p, BitConfig::paper_choice()).expect("quantized engine");
    let engines: [(&str, Arc<dyn ClassifierEngine>); 2] = [
        ("float", Arc::new(p.clone())),
        ("quantized", Arc::new(quantized)),
    ];
    // A sensitive operating point so the session actually alarms, plus
    // both dropped-window policies.
    let operating_points = [
        AlarmConfig {
            k: 1,
            n: 1,
            refractory_windows: 0,
            dropped: DroppedPolicy::VoteNonSeizure,
        },
        AlarmConfig {
            k: 1,
            n: 2,
            refractory_windows: 2,
            dropped: DroppedPolicy::Skip,
        },
    ];

    let session = spec
        .sessions
        .iter()
        .find(|s| !s.seizures.is_empty())
        .expect("Tiny cohort has seizures");
    let rec = session.synthesize();

    for (name, engine) in &engines {
        // The shared batch twin of the streaming decision path — the
        // sequence itself is pinned bit-identical to streaming by
        // streaming_equivalence.rs.
        let (decisions, window_len) = session_decision_sequence(&rec, window_s, engine.as_ref());
        assert_eq!(window_len, cfg.window_len);
        for alarm_cfg in operating_points {
            let reference =
                AlarmStateMachine::scan(alarm_cfg, &decisions, cfg.stride).expect("scan");
            assert!(
                !reference[..].is_empty() || alarm_cfg.k > 1,
                "{name}: seizure session should alarm at 1-of-1"
            );

            for chunk_len in [1usize, 13, 997, cfg.window_len, rec.ecg.len()] {
                let mut monitor =
                    StreamingSession::with_alarms(Arc::clone(engine), cfg, alarm_cfg).unwrap();
                let mut streamed = Vec::new();
                for chunk in rec.chunks(chunk_len) {
                    monitor.push_samples(chunk);
                    streamed.extend(monitor.take_alarms());
                }
                assert_eq!(
                    streamed, reference,
                    "{name}/chunk={chunk_len}/{alarm_cfg:?}: streaming alarms must equal \
                     the batch scan"
                );
                assert_eq!(monitor.stats().alarms, reference.len() as u64);
            }

            // Deterministic seeded sweep over random chunkings.
            let mut rng =
                StdRng::seed_from_u64(0xA1A2_0000 ^ name.len() as u64 ^ alarm_cfg.n as u64);
            for _round in 0..3 {
                let mut monitor =
                    StreamingSession::with_alarms(Arc::clone(engine), cfg, alarm_cfg).unwrap();
                let (_, streamed) = run_chunked_alarmed(&mut monitor, &rec.ecg, || {
                    1 + (rng.next_u64() as usize) % (2 * cfg.window_len)
                });
                assert_eq!(streamed, reference, "{name}/random/{alarm_cfg:?}");
            }
        }
    }
}

#[test]
fn cohort_alarm_report_pools_event_metrics() {
    let spec = spec();
    let cfg =
        StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).expect("config");
    let fleet_cfg = FleetConfig {
        alarms: Some(AlarmConfig::k_of_n(1, 2)),
        ..FleetConfig::unbounded(cfg)
    };
    let mut fleet = FleetScheduler::new(Arc::new(pipeline().clone()), fleet_cfg).unwrap();
    let recs: Vec<_> = spec.sessions.iter().map(|s| s.synthesize()).collect();
    let mut truth = BTreeMap::new();
    for (id, rec) in recs.iter().enumerate() {
        fleet.admit(id as u64).unwrap();
        truth.insert(id as u64, truth_events(&rec.seizures));
    }
    // Raw samples in 1280-sample chunks, round-robin across patients,
    // one flush per round; the caller collects each flush's alarms.
    let mut alarms: BTreeMap<u64, Vec<AlarmEvent>> = BTreeMap::new();
    let longest = recs.iter().map(|r| r.ecg.len()).max().unwrap_or(0);
    for start in (0..longest).step_by(1280) {
        for (id, rec) in recs.iter().enumerate() {
            if start < rec.ecg.len() {
                let end = (start + 1280).min(rec.ecg.len());
                fleet.ingest(id as u64, &rec.ecg[start..end]).unwrap();
            }
        }
        for (id, alarm) in fleet.flush().alarms {
            alarms.entry(id).or_default().push(alarm);
        }
    }

    let events = fleet.event_metrics(&alarms, &truth).expect("event metrics");
    assert_eq!(alarms.len(), recs.len());
    assert_eq!(
        alarms.values().map(Vec::len).sum::<usize>(),
        fleet.stream_stats().alarms as usize
    );
    assert_eq!(events.n_events, 8, "Tiny cohort has 8 seizures");
    assert!(events.monitored_s > 0.0);
    assert!(events.event_sensitivity().is_some());
    assert!(events.false_alarms_per_24h().is_some());

    // The pooled metrics equal scoring each patient's alarms by hand.
    let scoring = EventScoring::for_windows(cfg.fs, cfg.window_len);
    let mut by_hand = EventMetrics::default();
    for (id, rec) in recs.iter().enumerate() {
        by_hand.merge(&score_events(
            &alarms[&(id as u64)],
            &truth[&(id as u64)],
            rec.ecg.len() as f64 / rec.fs,
            &scoring,
        ));
    }
    assert_eq!(events, by_hand);
}

/// The `decision == 0.0` seizure-boundary regression, end to end: one
/// shared convention (`>= 0.0` ⇒ seizure) through batch confusion
/// counting, trait classification and the streaming path.
#[test]
fn zero_decision_boundary_is_one_convention_everywhere() {
    // 1. Confusion counting puts 0.0 on the seizure side.
    let mut c = Confusion::default();
    c.record(1, 0.0);
    c.record(-1, 0.0);
    assert_eq!((c.tp, c.fp, c.tn, c.fn_), (1, 1, 0, 0));

    // 2. Trait classification: a model whose decision is exactly zero
    // says seizure (+1), and confusion counting agrees with it.
    use epilepsy_monitor::ml::{Kernel, SvmModel};
    let model = SvmModel::from_parts(
        Kernel::Linear,
        DenseMatrix::from_rows(&[vec![1.0, 0.0]]),
        vec![1.0],
        vec![1.0],
        0.0,
    ); // f(x) = x0
    let boundary_row = [0.0, 3.5];
    assert_eq!(model.decision_value(&boundary_row), 0.0);
    assert_eq!(model.predict(&boundary_row), 1.0);
    let e: &dyn ClassifierEngine = &model;
    assert_eq!(e.classify(&boundary_row), 1.0);
    let batch = DenseMatrix::from_rows(&[boundary_row.to_vec()]);
    assert_eq!(e.classify_batch(&batch), vec![1.0]);
    assert_eq!(
        Confusion::from_batch(&[1], &e.classify_batch(&batch)),
        Confusion {
            tp: 1,
            tn: 0,
            fp: 0,
            fn_: 0
        }
    );

    // 3. decision_is_seizure is the single source of truth.
    assert!(decision_is_seizure(0.0));
    assert!(decision_is_seizure(-0.0));
    assert!(!decision_is_seizure(-f64::MIN_POSITIVE));
}
