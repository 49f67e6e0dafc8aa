//! Tick-driven vs caller-driven serving equivalence — the serving-clock
//! acceptance property:
//!
//! When the fleet is **unsaturated** (no admission gate engages), a
//! tick-driven fleet ([`FleetScheduler::tick_into`] on a deterministic virtual
//! clock) must produce **bit-identical** decision and alarm streams to
//! a caller-driven fleet flushed at the same points in the same ingest
//! schedule — for both engines and at every flush executor count
//! (serial / two-executor pool / machine default). The serving clock is
//! observability only: deadline accounting and latency histograms must
//! never change what gets decided.
//!
//! Under the virtual clock the decision-latency histogram itself is
//! also deterministic: every worker count must produce the exact same
//! histogram and deadline ledger, so SLO numbers from a simulation are
//! reproducible artifacts.

use epilepsy_monitor::prelude::*;
use seizure_core::clock::TickConfig;
use seizure_core::fleet::FleetFlush;
use seizure_core::stream::{SharedEngine, WindowDecision};
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

fn streams() -> &'static Vec<Vec<f64>> {
    static STREAMS: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        spec()
            .sessions
            .iter()
            .take(3)
            .map(|s| s.synthesize().ecg)
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

const WORKER_COUNTS: [Option<usize>; 3] = [Some(1), Some(2), None];

/// Per-patient decision streams plus the final fleet stats, driven over
/// the fixed schedule: round-robin patients, 128-sample chunks, a drain
/// (flush or tick) after every 5th ingest and once at the end.
fn drive(
    engine: &SharedEngine,
    cfg: StreamConfig,
    workers: Option<usize>,
    tick: Option<TickConfig>,
) -> (
    Vec<Vec<WindowDecision>>,
    BTreeMap<u64, Vec<AlarmEvent>>,
    FleetStats,
) {
    let cohort = streams();
    let ticked = tick.is_some();
    let fleet_cfg = FleetConfig {
        alarms: Some(AlarmConfig::k_of_n(1, 2)),
        workers,
        tick,
        ..FleetConfig::unbounded(cfg)
    };
    let mut mon = FleetScheduler::new(Arc::clone(engine), fleet_cfg).expect("fleet config");
    for p in 0..cohort.len() as u64 {
        mon.admit(p).expect("admit");
    }
    let mut decisions: Vec<Vec<WindowDecision>> = vec![Vec::new(); cohort.len()];
    let mut alarms: BTreeMap<u64, Vec<AlarmEvent>> =
        (0..cohort.len() as u64).map(|p| (p, Vec::new())).collect();
    let mut flush = FleetFlush::default();
    let mut drain = |mon: &mut FleetScheduler| {
        if ticked {
            mon.tick_into(&mut flush).expect("serving tick");
        } else {
            mon.flush_into(&mut flush);
        }
        for d in &flush.decisions {
            decisions[d.patient as usize].push(d.decision);
        }
        for &(p, a) in &flush.alarms {
            alarms.entry(p).or_default().push(a);
        }
    };
    let mut cursors = vec![0usize; cohort.len()];
    let mut live: Vec<usize> = (0..cohort.len()).collect();
    let mut ingests = 0usize;
    while !live.is_empty() {
        let pick = live[ingests % live.len()];
        let cur = cursors[pick];
        let len = 128.min(cohort[pick].len() - cur);
        mon.ingest(pick as u64, &cohort[pick][cur..cur + len])
            .expect("ingest");
        cursors[pick] += len;
        if cursors[pick] == cohort[pick].len() {
            live.retain(|&p| p != pick);
        }
        ingests += 1;
        if ingests.is_multiple_of(5) {
            drain(&mut mon);
        }
    }
    drain(&mut mon);
    assert_eq!(mon.stats().pending_windows, 0, "schedule must fully drain");
    (decisions, alarms, mon.stats())
}

/// A cadence long enough that the fixed schedule never saturates it —
/// the gate-free regime where ticking must be pure observability.
fn virtual_tick() -> TickConfig {
    TickConfig::deterministic(1_000_000, 10)
}

#[test]
fn tick_driven_is_bit_identical_to_caller_driven_when_unsaturated() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    for (name, engine) in &engines() {
        for workers in WORKER_COUNTS {
            let label = format!("{name}/workers-{workers:?}");
            let (flushed, flushed_alarms, _) = drive(engine, cfg, workers, None);
            let (ticked, ticked_alarms, stats) = drive(engine, cfg, workers, Some(virtual_tick()));
            for (p, (a, b)) in ticked.iter().zip(flushed.iter()).enumerate() {
                assert_eq!(a.len(), b.len(), "{label}: patient {p} window count");
                assert!(!a.is_empty(), "{label}: degenerate patient {p}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.window_index, y.window_index, "{label}: p{p}");
                    assert_eq!(
                        x.decision.map(f64::to_bits),
                        y.decision.map(f64::to_bits),
                        "{label}: patient {p} window {} must be bit-identical",
                        x.window_index
                    );
                    assert_eq!(x.is_seizure, y.is_seizure, "{label}: p{p}");
                }
            }
            assert_eq!(ticked_alarms, flushed_alarms, "{label}: alarm streams");
            // Ticking really ran: every drain was one accounted tick,
            // and nothing was shed in the unsaturated regime.
            assert!(stats.ticks > 0, "{label}: no ticks recorded");
            assert_eq!(
                stats.ticks,
                stats.deadlines_met + stats.deadlines_missed,
                "{label}: deadline ledger must cover every tick"
            );
            assert_eq!(stats.shed_windows, 0, "{label}: unsaturated run shed");
            assert_eq!(
                stats.decision_latency.count(),
                stats.windows_decided,
                "{label}: every decided window needs a latency sample"
            );
        }
    }
}

#[test]
fn virtual_clock_slo_numbers_are_identical_across_worker_counts() {
    let spec = spec();
    let cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s()).unwrap();
    for (name, engine) in &engines() {
        let runs: Vec<FleetStats> = WORKER_COUNTS
            .iter()
            .map(|&w| drive(engine, cfg, w, Some(virtual_tick())).2)
            .collect();
        for (w, s) in WORKER_COUNTS.iter().zip(&runs).skip(1) {
            assert_eq!(
                s.decision_latency, runs[0].decision_latency,
                "{name}/workers-{w:?}: virtual-clock latency histogram drifted"
            );
            assert_eq!(
                s.tick_work, runs[0].tick_work,
                "{name}/workers-{w:?}: virtual-clock tick-work histogram drifted"
            );
            assert_eq!(
                (
                    s.ticks,
                    s.deadlines_met,
                    s.deadlines_missed,
                    s.worst_overrun_ns
                ),
                (
                    runs[0].ticks,
                    runs[0].deadlines_met,
                    runs[0].deadlines_missed,
                    runs[0].worst_overrun_ns
                ),
                "{name}/workers-{w:?}: deadline ledger drifted"
            );
        }
        assert!(runs[0].decision_latency.count() > 0, "{name}: empty run");
    }
}
