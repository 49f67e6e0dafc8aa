//! Per-layer ledger of the traced run: the fleet boundary spans, the
//! layer replay, the counters the program already exposes (`FleetStats`,
//! `FleetFlush::{extract_ns, classify_ns, rows_classified}`), and the
//! reconciliation of both parts against the untraced per-window cost.

use crate::replay::replay;
use crate::setup::{Cohort, EngineKind, Reference};
use crate::trace::{Kind, Tracer};
use crate::util::{median, quantile, Metric};
use crate::workload::{Outcome, Shape};
use hwmodel::tech::TechParams;
use std::time::Instant;

/// Timed empty-job dispatches behind `parallel.dispatch_us`.
const DISPATCH_REPS: usize = 2000;

fn slice_median(o: &Outcome, f: fn(&crate::workload::Slice) -> f64) -> f64 {
    median(&o.slices.iter().map(f).collect::<Vec<_>>())
}

/// Sum of span durations of `kind` inside throughput-measuring slices.
fn measured_ns(t: &Tracer, kind: Kind) -> u64 {
    t.spans
        .iter()
        .filter(|s| s.kind == kind && s.measured)
        .map(|s| s.dur_ns)
        .sum()
}

/// Total span time per item (ns) of `kind`, for spans covering batches.
fn ns_per_item(t: &Tracer, kind: Kind) -> f64 {
    let (total, items) = t
        .spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0u64, 0u64), |(a, b), s| (a + s.dur_ns, b + s.items));
    if items == 0 {
        0.0
    } else {
        total as f64 / items as f64
    }
}

/// Median wall time (µs) of an empty-job `par_map` over the fleet's
/// executor count on the machine-default pool the fleet dispatches to.
fn dispatch_us(executors: usize) -> f64 {
    let items = vec![0u8; executors];
    let mut d: Vec<u64> = (0..DISPATCH_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(seizure_core::parallel::par_map(&items, |_| ()));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    quantile(&mut d, 0.5) as f64 / 1e3
}

pub fn per_layer(
    shape: &Shape,
    cohort: &Cohort,
    reference: &Reference,
    untraced: &Outcome,
    mut traced: Outcome,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut t = traced.tracer.take().ok_or("the traced run kept no spans")?;
    let engine = cohort.engine(shape.engine);
    replay(cohort, &engine, reference, &traced.replay_log, &mut t)?;
    let path = std::path::PathBuf::from(format!(
        "fleetbench/trace-out/{}-seed{seed}.tsv",
        shape.name
    ));
    t.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# span log: {}", path.display());

    let c = traced.counts;
    let exec = traced.executors as f64;
    let mut out = Vec::new();
    let mut m = |name: &str, value: f64, unit: &'static str| {
        println!("{name} {value:.4} {unit}");
        out.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    };

    // loadgen: run validity.
    let (_, ingest_total, mut ingest_d) = t.of(Kind::Ingest);
    let (n_ticks, tick_total, mut tick_d) = t.of(Kind::Tick);
    let (n_life, life_total, _) = t.of(Kind::Lifecycle);
    let busy_ns = traced
        .run_ns
        .saturating_sub(traced.sleep_ns + ingest_total + tick_total + life_total);
    let mut lags = traced.lags_ns.clone();
    m(
        "loadgen.offered_wps",
        traced.fixed_offered as f64 / traced.fixed_s,
        "windows/s",
    );
    m(
        "loadgen.lag_p99_ms",
        quantile(&mut lags, 0.99) as f64 / 1e6,
        "ms",
    );
    m("loadgen.busy_s", busy_ns as f64 / 1e9, "s");

    // fleet boundary.
    m("fleet.ingest.calls", c.ingest_calls as f64, "count");
    m(
        "fleet.ingest.ns_p50",
        quantile(&mut ingest_d, 0.50) as f64,
        "ns",
    );
    m(
        "fleet.ingest.ns_p99",
        quantile(&mut ingest_d, 0.99) as f64,
        "ns",
    );
    m("fleet.ingest.errors", c.ingest_errors as f64, "count");
    let mut tick_rows: Vec<u64> = t
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Tick)
        .map(|s| s.items)
        .collect();
    let w = traced.measured_windows.max(1) as f64;
    let ks = traced.measured_stats;
    let kernels_ns = (ks.extract_ns + ks.classify_ns) as f64;
    let tick_meas = measured_ns(&t, Kind::Tick) as f64;
    let ingest_meas = t.ingest_measured.1 as f64;
    let life_meas = measured_ns(&t, Kind::Lifecycle) as f64;
    m("fleet.tick.count", n_ticks as f64, "count");
    m(
        "fleet.tick.work_p50_ms",
        quantile(&mut tick_d, 0.50) as f64 / 1e6,
        "ms",
    );
    m(
        "fleet.tick.work_p99_ms",
        quantile(&mut tick_d, 0.99) as f64 / 1e6,
        "ms",
    );
    m(
        "fleet.tick.rows_p50",
        quantile(&mut tick_rows, 0.50) as f64,
        "count",
    );
    // Executor time inside fleet calls not covered by the kernel
    // counters: ingest spans plus every executor's share of the tick
    // spans, minus extract_ns and classify_ns (an executor waiting on
    // another counts as fleet time).
    let fleet_self_ns = ingest_meas + life_meas + exec * tick_meas - kernels_ns;
    m(
        "fleet.tick.self_us_per_window",
        fleet_self_ns / w / 1e3,
        "us",
    );
    m(
        "fleet.tick.deadline_miss_ratio",
        traced.fixed_deadlines_missed as f64 / traced.fixed_ticks.max(1) as f64,
        "ratio",
    );
    m(
        "fleet.pending_rows_max",
        traced.pending_rows_max as f64,
        "count",
    );
    m(
        "fleet.lifecycle.us_per_call",
        if n_life == 0 {
            0.0
        } else {
            life_total as f64 / n_life as f64 / 1e3
        },
        "us",
    );
    m("fleet.shed_windows", c.shed as f64, "count");
    m("fleet.discarded_windows", c.discarded as f64, "count");
    m("fleet.shed_spread", traced.shed_spread, "ratio");
    m(
        "fleet.failed_ratio",
        (c.shed + c.ingest_errors + c.discarded) as f64 / c.offered.max(1) as f64,
        "ratio",
    );

    // stream: chunk pushes that complete no window; bytes each raw
    // window's samples are copied (computed from the code path: the
    // deferred fleet buffers a chunk in the patient's inbox, pushes it
    // into the ring at the tick, then copies the completed window out
    // for extraction; a serial fleet skips the inbox).
    let raw = !cohort.samples.is_empty();
    let copies = if exec > 1.0 { 3.0 } else { 2.0 };
    let window_bytes = (cohort.stream.window_len * std::mem::size_of::<f64>()) as f64;
    m(
        "stream.push_chunk_ns",
        t.mean_us(Kind::StreamPush) * 1e3,
        "ns",
    );
    m(
        "stream.bytes_copied_per_window",
        if raw { copies * window_bytes } else { 0.0 },
        "bytes",
    );

    // dsp and features (layer replay; zero calls on the row workloads).
    let filtfilt = t.mean_us(Kind::Filtfilt);
    let energy = t.mean_us(Kind::QrsEnergy);
    let detect = t.mean_us(Kind::Detect);
    let lanes8 = ns_per_item(&t, Kind::DetectLanes8) / 1e3;
    let extract = t.mean_us(Kind::Extract);
    let batch8 = ns_per_item(&t, Kind::ExtractBatch8) / 1e3;
    let family: [(&str, Kind); 5] = [
        ("features.hrv_us", Kind::Hrv),
        ("features.lorenz_us", Kind::Lorenz),
        ("features.edr_us", Kind::Edr),
        ("features.ar_us", Kind::Ar),
        ("features.psd_us", Kind::Psd),
    ];
    m("dsp.filtfilt_us", filtfilt, "us");
    m("dsp.qrs_energy_us", energy, "us");
    m("dsp.detect_us", detect, "us");
    m(
        "dsp.detect_self_us",
        if raw { detect - filtfilt - energy } else { 0.0 },
        "us",
    );
    m("dsp.detect_lanes8_us_per_window", lanes8, "us");
    m("features.extract_us", extract, "us");
    m("features.extract_batch_us_per_window", batch8, "us");
    m("features.tail_us", extract - detect, "us");
    let mut families_us = 0.0;
    for (name, kind) in family {
        let v = t.mean_us(kind);
        families_us += v;
        m(name, v, "us");
    }
    m(
        "features.drop_ratio",
        c.device_drops as f64 / (c.decided_value + c.device_drops + c.shed).max(1) as f64,
        "ratio",
    );

    // parallel executors.
    let parallel = traced.executors > 1;
    m(
        "parallel.extract_utilisation",
        if parallel {
            kernels_ns / (exec * tick_meas.max(1.0))
        } else {
            0.0
        },
        "ratio",
    );
    m(
        "parallel.dispatch_us",
        if parallel {
            dispatch_us(traced.executors)
        } else {
            0.0
        },
        "us",
    );

    // engine: replayed 256-row panels; sizes computed from the code's
    // storage (one i64 code or one f64 per support-vector element, plus
    // one coefficient per support vector).
    let info = engine.info();
    let engine_ns = ns_per_item(&t, Kind::EnginePanel);
    m("engine.ns_per_row", engine_ns, "ns");
    m("engine.n_sv", info.n_support_vectors as f64, "count");
    m(
        "engine.macs_per_decision",
        (info.n_support_vectors * info.n_features) as f64,
        "count",
    );
    m(
        "engine.sv_bytes_per_decision",
        (info.n_support_vectors * (info.n_features + 1) * 8) as f64,
        "bytes",
    );

    // alarm.
    let alarm_ns = ns_per_item(&t, Kind::Alarm);
    m("alarm.ns_per_window", alarm_ns, "ns");
    m("alarm.events", c.alarms as f64, "count");

    // hwmodel: the paper's modelled accelerator cost of one decision.
    let cost = (shape.engine == EngineKind::Quantized).then(|| {
        cohort
            .quantized
            .accelerator_config()
            .cost(&TechParams::default())
    });
    m(
        "hwmodel.cycles_per_decision",
        cost.as_ref().map_or(0.0, |r| r.cycles as f64),
        "cycles",
    );
    m(
        "hwmodel.energy_nj_per_decision",
        cost.as_ref().map_or(0.0, |r| r.energy_nj),
        "nJ",
    );

    // Reconciliation (µs per window decided with a value, throughput
    // slices). Boundary ledger: generator + fleet self + kernels against
    // the untraced process CPU per window.
    let per_w = |ns: f64| ns / w / 1e3;
    let untraced_cpu =
        untraced.measured_cpu_ns as f64 / untraced.measured_windows.max(1) as f64 / 1e3;
    let sleep_meas = traced.measured_sleep_ns as f64;
    let gen = per_w(
        (traced.measured_s * 1e9 - tick_meas - ingest_meas - life_meas - sleep_meas).max(0.0),
    );
    let x = per_w(ks.extract_ns as f64);
    let cls = per_w(ks.classify_ns as f64);
    let fleet_self = per_w(fleet_self_ns);
    let sum = gen + fleet_self + x + cls;
    let residual = untraced_cpu - sum;
    // Unsigned: over-attribution (executor wait counted as fleet time)
    // is as much a ledger error as unattributed CPU. The reconciliation
    // line below keeps the sign.
    m(
        "trace.residual_ratio",
        residual.abs() / untraced_cpu,
        "ratio",
    );
    let overhead =
        slice_median(&traced, |s| s.throughput_wps) / slice_median(untraced, |s| s.throughput_wps);
    m("trace.overhead_ratio", overhead, "ratio");

    println!(
        "# reconciliation (us per window decided with a value, throughput slices, {} \
         executor(s); FleetStats there: {} windows decided, {} rows classified):",
        traced.executors, ks.windows_decided, ks.rows_classified
    );
    println!(
        "#   boundary: loadgen {gen:.3} + fleet self {fleet_self:.3} (ingest, ring and inbox \
         copies, replay, route-back, tick bookkeeping, executor wait) + extract_ns {x:.3} + \
         classify_ns {cls:.3} = {sum:.3} vs untraced cpu {untraced_cpu:.3}: residual \
         {residual:.3} ({:.1}%)",
        100.0 * residual / untraced_cpu
    );
    let stream_w = if raw {
        t.mean_us(Kind::StreamPush)
            * (cohort.stream.window_len / crate::setup::CHUNK_SAMPLES - 1) as f64
    } else {
        0.0
    };
    let isolated = stream_w + extract + engine_ns / 1e3 + alarm_ns / 1e3;
    println!(
        "#   replay:   stream {stream_w:.3} + extract {extract:.3} + engine {:.3} + alarm {:.3} \
         = {isolated:.3} isolated vs untraced cpu {untraced_cpu:.3}: in-fleet surplus {:.3}",
        engine_ns / 1e3,
        alarm_ns / 1e3,
        untraced_cpu - isolated
    );
    if raw {
        println!(
            "#   in-fleet vs isolated extraction (ROADMAP 1a at paper geometry): untraced cpu \
             {untraced_cpu:.3} - isolated extract_into {extract:.3} = {:.3}, of which in-fleet \
             extraction penalty (extract_ns - isolated) {:.3}, fleet self {fleet_self:.3}, \
             classify {cls:.3}, loadgen {gen:.3}, residual {residual:.3}",
            untraced_cpu - extract,
            x - extract
        );
        println!(
            "#   lanes tail (ROADMAP 1b): extract_batch8 {batch8:.3} - detect_lanes8 {lanes8:.3} \
             = {:.3} per window; scalar tail extract - detect = {:.3}, of which the feature \
             families (rr cleaning+hrv, lorenz, edr, ar, psd) {families_us:.3} and row \
             assembly and call overhead {:.3}",
            batch8 - lanes8,
            extract - detect,
            extract - detect - families_us
        );
    }
    Ok(out)
}
