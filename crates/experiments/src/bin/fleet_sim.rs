//! Fleet serving simulation: a cohort of live patient streams
//! multiplexed through [`FleetScheduler`], with interleaved chunk
//! arrivals, periodic batched flushes, an alarmed cohort report against
//! ground truth, and a backpressure demonstration for both
//! [`OverloadPolicy`] variants.
//!
//! Prints the fleet's flush-time throughput — windows decided per
//! second of wall time inside flushes (`FleetStats::wall_windows_per_sec`)
//! — next to the serial-equivalent figure from merged per-session stats,
//! the number that used to be the only one available, and that
//! under-reports a concurrent fleet (summed per-window latencies treat
//! parallel work as serial). Neither ingest path reads the clock per
//! call (a clock pair costs about a quarter of a 1-s chunk's ingest), so
//! the flush-time rate leaves out ingest copies and the driver's own
//! time: it is the decision pipeline's rate, not a whole-process rate.
//!
//! Run with: `cargo run --release --bin fleet_sim -- --scale tiny`
//! (add `--workers N` to pin the flush pipeline's executor count; the
//! default sizes to the machine — results are bit-identical either way).
//!
//! The final section drives the fleet on a **virtual serving clock**
//! ([`seizure_core::clock::TickConfig::deterministic`]) at `--overload`
//! times the per-tick classification budget (`--tick-ms` cadence):
//! without an admission gate the backlog compounds and p99 decision
//! latency grows without bound, while the watermark gate sheds the
//! excess fairly across patients and keeps every deadline. The entire
//! section is deterministic — simulated time, not wall time.

use experiments::{pct, render_table, RunConfig};
use seizure_core::alarm::{truth_events, AlarmConfig, AlarmEvent, TruthEvent};
use seizure_core::clock::TickConfig;
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::fleet::{FleetConfig, FleetFlush, FleetScheduler, OverloadPolicy, Watermarks};
use seizure_core::stream::{SharedEngine, StreamConfig};
use seizure_core::trained::FloatPipeline;
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    let cfg = RunConfig::parse(std::env::args());
    let spec = ecg_sim::dataset::DatasetSpec::new(cfg.scale, cfg.seed);
    let (matrix, _) = cfg.build_dataset();
    let stream_cfg = StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s())
        .expect("paper window geometry");

    let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit cohort");
    let quantized = QuantizedEngine::from_pipeline(&pipeline, BitConfig::paper_choice())
        .expect("paper bit config");
    let engines: [(&str, SharedEngine); 2] = [
        ("float", Arc::new(pipeline.clone())),
        ("quantized", Arc::new(quantized)),
    ];

    // Live material: every session becomes one patient stream.
    let recordings: Vec<_> = spec.sessions.iter().map(|s| s.synthesize()).collect();
    let mut truth: BTreeMap<u64, Vec<TruthEvent>> = BTreeMap::new();
    for (p, rec) in recordings.iter().enumerate() {
        truth.insert(p as u64, truth_events(&rec.seizures));
    }

    let mut rows = Vec::new();
    for (name, engine) in &engines {
        let fleet_cfg = FleetConfig {
            alarms: Some(AlarmConfig::k_of_n(1, 2)),
            workers: cfg.workers,
            ..FleetConfig::unbounded(stream_cfg)
        };
        let mut fleet = FleetScheduler::new(Arc::clone(engine), fleet_cfg).expect("fleet config");
        if rows.is_empty() {
            eprintln!(
                "flush pipeline: {} executor(s) ({})",
                fleet.flush_executors(),
                cfg.workers
                    .map_or("machine default".to_string(), |n| format!("--workers {n}")),
            );
        }
        for p in 0..recordings.len() as u64 {
            fleet.admit(p).expect("admit");
        }
        // Interleaved arrival: random patient, random chunk length,
        // flush roughly every third ingest — one batched kernel call
        // per flush, decisions bit-identical to solo streaming.
        let mut rng = StdRng::seed_from_u64(0xF1EE7 ^ cfg.seed);
        let mut cursors = vec![0usize; recordings.len()];
        let mut live: Vec<usize> = (0..recordings.len()).collect();
        let mut alarms: BTreeMap<u64, Vec<AlarmEvent>> = BTreeMap::new();
        let mut collect = |flush: FleetFlush| {
            for (p, a) in flush.alarms {
                alarms.entry(p).or_default().push(a);
            }
        };
        while !live.is_empty() {
            let p = live[(rng.next_u64() as usize) % live.len()];
            let ecg = &recordings[p].ecg;
            let cur = cursors[p];
            let len = (1 + (rng.next_u64() as usize) % (2 * stream_cfg.window_len))
                .clamp(1, ecg.len() - cur);
            fleet
                .ingest(p as u64, &ecg[cur..cur + len])
                .expect("ingest");
            cursors[p] += len;
            if cursors[p] == ecg.len() {
                live.retain(|&q| q != p);
            }
            if rng.next_u64().is_multiple_of(3) {
                collect(fleet.flush());
            }
        }
        collect(fleet.flush());

        // Cohort event metrics: per-patient alarms vs ground truth.
        let events = fleet
            .event_metrics(&alarms, &truth)
            .expect("every truth patient is admitted");
        let stats = fleet.stats();
        let stream = fleet.stream_stats();
        // Extract-vs-classify split, averaged per decided window: the
        // scheduler attributes every flush's kernel time to its windows
        // (FleetStats::{extract_ns, classify_ns}), so the table shows
        // where the serving wall actually is instead of one opaque
        // busy-time figure.
        let per_window_us = |ns: u128| {
            if stats.windows_decided == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", ns as f64 / stats.windows_decided as f64 / 1e3)
            }
        };
        rows.push(vec![
            name.to_string(),
            stats.patients.to_string(),
            stream.windows.to_string(),
            stats.rows_classified.to_string(),
            stats.flushes.to_string(),
            format!("{:.0}", stats.wall_windows_per_sec()),
            format!("{:.0}", stream.windows_per_sec()),
            per_window_us(stats.extract_ns),
            per_window_us(stats.classify_ns),
            format!("{:.1}", stream.latency.p50_ns() as f64 / 1e3),
            format!("{:.1}", stream.latency.p99_ns() as f64 / 1e3),
            format!("{:.1}", stream.max_latency_ns() as f64 / 1e3),
            events
                .event_sensitivity()
                .map_or("-".into(), |s| pct(s).to_string()),
            events
                .false_alarms_per_24h()
                .map_or("-".into(), |f| format!("{f:.1}")),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "engine",
                "patients",
                "windows",
                "rows batched",
                "flushes",
                "flush w/s",
                "serial-eq w/s",
                "extract us/w",
                "classify us/w",
                "p50 us/w",
                "p99 us/w",
                "max us/w",
                "event Se",
                "FA/24h",
            ],
            &rows,
        )
    );
    println!(
        "(flush w/s = windows per second of wall time inside flushes, ingest\n\
         copies excluded; serial-eq w/s sums per-window latencies across\n\
         sessions and under-reports concurrency;\n\
         extract/classify us/w split the per-window serving cost by kernel phase;\n\
         p50/p99/max us/w come from the merged per-window latency histogram)"
    );

    // Backpressure: a deliberately tiny row buffer under a burst, both
    // overload policies (the watermark gate sheds from 4 rows down to 2).
    // Shed windows are decided as dropped, in order.
    println!("\nbackpressure under a 4-row buffer (burst of whole sessions):");
    let gate = OverloadPolicy::Watermark(Watermarks { low: 2, high: 4 });
    for policy in [OverloadPolicy::Reject, gate] {
        let fleet_cfg = FleetConfig {
            max_pending_rows: 4,
            overload: policy,
            ..FleetConfig::unbounded(stream_cfg)
        };
        let mut fleet =
            FleetScheduler::new(Arc::clone(&engines[0].1), fleet_cfg).expect("fleet config");
        for (p, rec) in recordings.iter().enumerate() {
            fleet.admit(p as u64).expect("admit");
            fleet.ingest(p as u64, &rec.ecg).expect("ingest");
        }
        let flush = fleet.flush();
        let stats = fleet.stats();
        println!(
            "  {policy:?}: {} windows decided, {} rows classified, {} shed as dropped",
            flush.decisions.len(),
            flush.rows_classified,
            stats.shed_windows
        );
    }

    tick_overload_scenario(&cfg, &engines[1].1, &matrix, recordings.len() as u64);
}

/// Tick-driven serving under sustained overload, on a virtual clock.
///
/// The clock charges `ns_per_row` per classified row, so one tick's
/// cadence affords `CAPACITY_ROWS` rows; arrivals are generated at
/// `overload ×` that budget, round-robin across patients. Without an
/// admission gate every tick flushes its whole backlog, overruns its
/// deadline, and the next tick inherits a longer arrival interval — the
/// backlog (and p99 decision latency) compounds. The watermark gate
/// sheds down to `low` whenever pending rows cross `high < capacity`,
/// so ticks stay inside the cadence and latency stays bounded near one
/// cadence. Everything printed here is simulated time: reruns are
/// byte-identical.
fn tick_overload_scenario(
    cfg: &RunConfig,
    engine: &SharedEngine,
    matrix: &ecg_features::FeatureMatrix,
    n_patients: u64,
) {
    /// Rows one tick's cadence can classify on the virtual clock.
    const CAPACITY_ROWS: u64 = 64;
    /// Serving ticks simulated per run.
    const TICKS: usize = 8;
    /// Watermark band (rows): shed down to `low` when pending crosses
    /// `high`; `high < CAPACITY_ROWS` keeps every tick inside budget.
    const WM: Watermarks = Watermarks { low: 16, high: 48 };

    let tick_ms = cfg.tick_ms.unwrap_or(5);
    let overload = cfg.overload.unwrap_or(2.0);
    let cadence_ns = tick_ms.saturating_mul(1_000_000);
    let ns_per_row = cadence_ns / CAPACITY_ROWS;
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let arrival_dt = ((cadence_ns as f64 / (overload * CAPACITY_ROWS as f64)).max(1.0)) as u64;
    let stream_cfg = matrix_stream_cfg(cfg);

    println!(
        "\ntick-driven serving at {overload}x overload (virtual clock, {tick_ms} ms cadence, \
         {CAPACITY_ROWS} rows/tick budget, {n_patients} patients):"
    );
    let scenarios: [(&str, FleetConfig); 2] = [
        (
            "no gate",
            FleetConfig {
                tick: Some(TickConfig::deterministic(cadence_ns, ns_per_row)),
                ..FleetConfig::unbounded(stream_cfg)
            },
        ),
        (
            "watermark 16/48",
            FleetConfig {
                max_pending_rows: CAPACITY_ROWS as usize,
                overload: OverloadPolicy::Watermark(WM),
                tick: Some(TickConfig::deterministic(cadence_ns, ns_per_row)),
                ..FleetConfig::unbounded(stream_cfg)
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut fairness = Vec::new();
    for (label, fleet_cfg) in scenarios {
        let mut fleet = FleetScheduler::new(Arc::clone(engine), fleet_cfg).expect("fleet config");
        for p in 0..n_patients {
            fleet.admit(p).expect("admit");
        }
        let mut flush = FleetFlush::default();
        let mut per_patient: BTreeMap<u64, u64> = BTreeMap::new();
        let mut offered = 0u64;
        let mut next_arrival = arrival_dt;
        for _ in 0..TICKS {
            // Feed every arrival due before this tick fires, advancing
            // the virtual clock to each arrival instant so decision
            // latency measures real queueing delay.
            let due = fleet
                .next_tick_ns()
                .expect("serving clock")
                .max(fleet.clock_now_ns().expect("serving clock"));
            while next_arrival <= due {
                let now = fleet.clock_now_ns().expect("serving clock");
                fleet
                    .advance_clock(next_arrival.saturating_sub(now))
                    .expect("virtual clock");
                let row = matrix.row(offered as usize % matrix.n_rows());
                fleet
                    .ingest_row(offered % n_patients, Some(row))
                    .expect("ingest_row");
                offered += 1;
                next_arrival += arrival_dt;
            }
            fleet.tick_into(&mut flush).expect("tick");
            for d in &flush.decisions {
                if d.decision.decision.is_some() {
                    *per_patient.entry(d.patient).or_default() += 1;
                }
            }
        }
        let stats = fleet.stats();
        let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
        rows.push(vec![
            label.to_string(),
            stats.ticks.to_string(),
            offered.to_string(),
            stats.rows_classified.to_string(),
            stats.shed_windows.to_string(),
            stats.deadlines_missed.to_string(),
            ms(stats.decision_latency.p50_ns()),
            ms(stats.decision_latency.p99_ns()),
            ms(stats.decision_latency.max_ns()),
        ]);
        let (lo, hi) = per_patient
            .values()
            .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        fairness.push(format!(
            "  {label}: per-patient classified spread {lo}..{hi} across {} patients",
            per_patient.len()
        ));
    }
    println!(
        "{}",
        render_table(
            &[
                "admission",
                "ticks",
                "offered",
                "classified",
                "shed",
                "deadline miss",
                "p50 ms",
                "p99 ms",
                "max ms",
            ],
            &rows,
        )
    );
    println!(
        "(same arrival rate in both runs; without the gate each overrun tick\n\
         inherits a longer arrival interval, so 8 ticks span more simulated\n\
         time and decision latency compounds — the watermark run sheds the\n\
         excess fairly and keeps p99 near one cadence)"
    );
    for line in fairness {
        println!("{line}");
    }
}

/// The paper window geometry for the run's scale (shared with `main`).
fn matrix_stream_cfg(cfg: &RunConfig) -> StreamConfig {
    let spec = ecg_sim::dataset::DatasetSpec::new(cfg.scale, cfg.seed);
    StreamConfig::non_overlapping(spec.scale.fs(), spec.scale.window_s())
        .expect("paper window geometry")
}
