//! Fleet serving benchmark at the paper's window geometry.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload raw_ingest|row_serve|overload_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints the machine stamp, every metric
//! by name with its unit and sample count, and as the last line one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ledger of a separate traced run. Exits nonzero, without a result line,
//! when the correctness gate fails or the generator fell behind its
//! schedule. See `fleetbench/README.md`.

mod ledger;
mod replay;
mod setup;
mod trace;
mod util;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use util::{machine_stamp, median, peak_rss_mb, quantile, result_json, Metric};
use workload::{Driver, Outcome, Shape, Slice, SHAPES};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: integer")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds: number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let shape = SHAPES
        .iter()
        .copied()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    Ok(Args {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let shape = args.shape;
    println!("# fleetbench {} (seed {})", shape.name, args.seed);
    for (k, v) in machine_stamp(args.seed) {
        println!("# {k}: {v}");
    }

    // Set-up, several times: synthesis, features, fit, engine build and
    // fleet admission. The last one is served.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let cohort = setup::build_cohort(shape.raw);
        let driver = Driver::new(shape, &cohort, args.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        drop(driver);
    }
    let t = Instant::now();
    let cohort = setup::build_cohort(shape.raw);
    let driver = Driver::new(shape, &cohort, args.seed)?;
    setup_times.push(t.elapsed().as_secs_f64());
    let setup_s = median(&setup_times);
    println!(
        "# cohort: {} sessions, {} training rows, {} support vectors, {} executor(s)",
        cohort.n_sessions(),
        cohort.matrix_rows,
        driver.engine().info().n_support_vectors,
        driver.fleet.flush_executors()
    );

    // The correctness reference: outside set-up and the timed run.
    let reference =
        setup::reference(&cohort, driver.engine()).map_err(|e| format!("correctness gate: {e}"))?;

    let outcome = driver
        .run(args.seconds, &reference, 0)
        .map_err(|e| format!("correctness gate: {e}"))?;
    check_validity(&shape, &outcome)?;

    let attempted =
        outcome.counts.ingest_calls + outcome.counts.ticks + outcome.counts.lifecycle_calls;
    let failed = outcome.counts.ingest_errors;
    let metrics = if args.trace {
        let mut traced_driver = Driver::new(shape, &cohort, args.seed)?;
        traced_driver.tracer = Some(trace::Tracer::new());
        let traced = traced_driver
            .run(args.seconds, &reference, shape.replay_windows)
            .map_err(|e| format!("correctness gate (traced run): {e}"))?;
        check_validity(&shape, &traced)?;
        ledger::per_layer(&shape, &cohort, &reference, &outcome, traced, args.seed)?
    } else {
        end_to_end(&shape, &outcome, setup_s, &setup_times)
    };
    println!("{}", result_json(attempted, failed, &metrics));
    Ok(())
}

/// A run whose generator fell behind its schedule measured the
/// generator, not the program: it is reported invalid, without metrics.
fn check_validity(shape: &Shape, o: &Outcome) -> Result<(), String> {
    let mut lags = o.lags_ns.clone();
    let lag_p99_ms = quantile(&mut lags, 0.99) as f64 / 1e6;
    let offered_wps = o.fixed_offered as f64 / o.fixed_s;
    // The generator waits out every tick on its own thread, so a lag of
    // one tick is normal; four cadences means it fell behind.
    let lag_limit_ms = 4.0 * shape.cadence_ms as f64;
    println!(
        "# loadgen: offered {offered_wps:.1} windows/s (target {:.1}), lag p99 {lag_p99_ms:.3} ms \
         (limit {lag_limit_ms} ms, n={})",
        o.fixed_target_wps,
        lags.len()
    );
    let off = (offered_wps / o.fixed_target_wps - 1.0).abs();
    if off > 0.03 || lag_p99_ms > lag_limit_ms {
        println!("# run validity: INVALID (the generator fell behind its schedule)");
        return Err("invalid run: load generator fell behind its schedule".into());
    }
    if shape.saturation_wps.is_some() {
        println!(
            "# saturation: {} tick(s) waited for their due time (each one measured the \
             generator's ceiling, not the program)",
            o.saturation_waits
        );
    }
    println!("# run validity: valid");
    Ok(())
}

fn end_to_end(shape: &Shape, o: &Outcome, setup_s: f64, setup_times: &[f64]) -> Vec<Metric> {
    let c = o.counts;
    let med = |f: fn(&Slice) -> f64| median(&o.slices.iter().map(f).collect::<Vec<_>>());
    let throughput = med(|s| s.throughput_wps);
    let p50 = med(|s| s.p50_ns as f64 / 1e6);
    let p99 = med(|s| s.p99_ns as f64 / 1e6);
    let cpu_us = med(|s| s.cpu_us_per_window);
    let failed_windows = c.shed + c.ingest_errors + c.discarded;
    let decided_ratio = c.decided_value as f64 / c.offered.max(1) as f64;
    let latency_n: usize = o.slices.iter().map(|s| s.latency_n).sum();
    let min_n = o.slices.iter().map(|s| s.latency_n).min().unwrap_or(0);
    // clock_lead_ms: how far the serving clock's next tick lay ahead of
    // wall time when the fixed-rate slice began (at most one cadence;
    // waited out before the slice's schedule starts).
    println!("# slice  throughput_wps  cpu_us/window  p50_ms  p99_ms  latency_n  clock_lead_ms");
    for (i, s) in o.slices.iter().enumerate() {
        println!(
            "# {i:>5}  {:>14.1}  {:>13.3}  {:>6.3}  {:>6.3}  {:>9}  {:>13.3}",
            s.throughput_wps,
            s.cpu_us_per_window,
            s.p50_ns as f64 / 1e6,
            s.p99_ns as f64 / 1e6,
            s.latency_n,
            s.clock_lead_ns as f64 / 1e6
        );
    }
    let times: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    println!(
        "setup_s {setup_s:.4} s (median of {} set-ups: {})",
        setup_times.len(),
        times.join(", ")
    );
    println!(
        "throughput_wps {throughput:.1} windows/s (median of {} slices; {} windows decided \
         with a value in {:.3} s of throughput slices)",
        o.slices.len(),
        o.measured_windows,
        o.measured_s
    );
    let limit_ms = 2.0 * shape.cadence_ms as f64;
    println!(
        "decision_p50_ms {p50:.4} ms, decision_p99_ms {p99:.4} ms (medians of per-slice \
         quantiles; n={latency_n} windows, at least {min_n} per slice); latency limit p99 <= \
         {limit_ms} ms: {}",
        if p99 <= limit_ms { "met" } else { "not met" }
    );
    println!(
        "decided_ratio {decided_ratio:.6} ({} decided with a value / {} offered)",
        c.decided_value, c.offered
    );
    println!(
        "failed_ratio {:.6} ((shed {} + ingest errors {} + discarded {}) / offered {}); \
         device-dropped {}, pending at end {}",
        failed_windows as f64 / c.offered.max(1) as f64,
        c.shed,
        c.ingest_errors,
        c.discarded,
        c.offered,
        c.device_drops,
        o.pending_end
    );
    println!(
        "cpu_us_per_window {cpu_us:.3} us (median of {} slices; {:.3} s CPU over {} windows)",
        o.slices.len(),
        o.measured_cpu_ns as f64 / 1e9,
        o.measured_windows
    );
    let rss = peak_rss_mb();
    println!("peak_rss_mb {rss:.1} MB (VmHWM)");
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    vec![
        m("setup_s", setup_s, "s"),
        m("throughput_wps", throughput, "windows/s"),
        m("decision_p50_ms", p50, "ms"),
        m("decision_p99_ms", p99, "ms"),
        m("decided_ratio", decided_ratio, "ratio"),
        m("cpu_us_per_window", cpu_us, "us"),
        m("peak_rss_mb", rss, "MB"),
    ]
}
