//! The workloads and the single-process, open-loop load generator that
//! drives the production serving path: a [`FleetScheduler`] under the
//! tick runtime (`FleetConfig::tick = TickConfig::wall`, driven by
//! `tick_into`). The generator runs on the caller thread; the fleet's
//! executors are at most the machine default.

use crate::setup::{Cohort, EngineKind, Reference, CHUNK_SAMPLES, WINDOWS_PER_SESSION};
use crate::trace::{Kind, Tracer};
use crate::util::{process_cpu_ns, quantile};
use seizure_core::alarm::{AlarmConfig, AlarmEvent};
use seizure_core::clock::TickConfig;
use seizure_core::fleet::{
    FleetConfig, FleetFlush, FleetScheduler, FleetStats, OverloadPolicy, Watermarks,
};
use seizure_core::stream::{PendingWindow, SharedEngine, StreamingSession};
use simrand::rngs::StdRng;
use simrand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One workload's shape. Rates are absolute and were fixed once on the
/// reference machine (see the README): the fixed-rate phase offers a
/// fifth of the saturated rate measured there or less, and the
/// saturation ceiling lies about four times above it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub patients: usize,
    /// Raw ECG in 1-s chunks (`true`) or one pre-extracted row per window.
    pub raw: bool,
    pub engine: EngineKind,
    /// `FleetConfig::workers` (`None` = machine default).
    pub workers: Option<usize>,
    /// Watermark gate `(max_pending_rows, low, high)`; `None` = unbounded.
    pub gate: Option<(usize, usize, usize)>,
    pub cadence_ms: u64,
    /// Offered windows per second in the fixed-rate (open-loop) phase.
    pub offered_wps: f64,
    /// Split the run into a fixed-rate half and a saturation half whose
    /// ticks are each fed one cadence of windows at this rate (the
    /// generator's ceiling; `None` = fixed rate only).
    pub saturation_wps: Option<f64>,
    /// Seeded admit/remove/restart schedule, one event per this many ms.
    pub churn_ms: Option<u64>,
    /// Decided windows the traced run's layer replay re-runs.
    pub replay_windows: usize,
}

pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "raw_ingest",
        patients: 256,
        raw: true,
        engine: EngineKind::Quantized,
        workers: None,
        gate: None,
        cadence_ms: 50,
        offered_wps: 400.0,
        saturation_wps: Some(10_000.0),
        churn_ms: None,
        replay_windows: 256,
    },
    Shape {
        name: "row_serve",
        patients: 1024,
        raw: false,
        engine: EngineKind::Quantized,
        workers: None,
        gate: None,
        cadence_ms: 20,
        offered_wps: 100_000.0,
        saturation_wps: Some(2_500_000.0),
        churn_ms: None,
        replay_windows: 8192,
    },
    Shape {
        name: "overload_churn",
        patients: 256,
        raw: false,
        engine: EngineKind::Float,
        workers: Some(1),
        gate: Some((1024, 480, 512)),
        cadence_ms: 20,
        // Twice the gate's admission capacity: `high` rows per cadence.
        offered_wps: 2.0 * 512.0 * 1000.0 / 20.0,
        saturation_wps: None,
        churn_ms: Some(20),
        replay_windows: 8192,
    },
];

/// k-of-n alarm stage every workload runs.
pub fn alarm_config() -> AlarmConfig {
    AlarmConfig::k_of_n(2, 3)
}

/// Generator wake-up quantum: every item due by a wake-up is ingested
/// in one batch, so the generator sleeps instead of spinning.
const QUANTUM: Duration = Duration::from_millis(1);

/// Length of one measurement slice (a fixed-rate or a saturation slice).
const SLICE_S: f64 = 1.0;

/// Uniform draw in `0..n` (`n > 0`) from the seeded generator.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Chunks per analysis window.
fn chunks_per_window(cohort: &Cohort) -> u64 {
    (cohort.stream.window_len / CHUNK_SAMPLES) as u64
}

struct Patient {
    session: usize,
    /// Window offset into the session loop this generation replays from.
    offset: usize,
    /// Raw: chunks ingested this generation (pre-roll included).
    chunks: u64,
    /// Windows offered this generation.
    sent: u64,
    /// Windows returned this generation (the next expected index).
    decided: u64,
    /// Due times (ns from the run epoch) of offered, undecided windows.
    due: VecDeque<u64>,
    admitted: bool,
    shed: u64,
    alarms: Vec<AlarmEvent>,
}

impl Patient {
    fn reset(&mut self, offset: usize) {
        self.offset = offset;
        self.chunks = 0;
        self.sent = 0;
        self.decided = 0;
        self.due.clear();
        self.alarms.clear();
    }

    fn window_of(&self, k: u64) -> usize {
        (self.offset + k as usize) % WINDOWS_PER_SESSION
    }
}

/// Window and call accounting over a whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub offered: u64,
    pub decided_value: u64,
    pub device_drops: u64,
    pub shed: u64,
    pub discarded: u64,
    pub ingest_errors: u64,
    pub ingest_calls: u64,
    pub ticks: u64,
    pub lifecycle_calls: u64,
    pub alarms: u64,
}

/// One measurement slice. On the saturation workloads it pairs a
/// fixed-rate slice (latency) with the saturation slice that follows it
/// (throughput, CPU); on the overload workload all four figures come
/// from one fixed-rate slice. The run reports the median over slices,
/// so a transient stall of the machine moves one slice, not the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub latency_n: usize,
    pub throughput_wps: f64,
    pub cpu_us_per_window: f64,
    /// How far the serving clock led wall time when the fixed-rate
    /// slice began (waited out before its schedule starts).
    pub clock_lead_ns: u64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub counts: Counts,
    pub pending_end: u64,
    pub slices: Vec<Slice>,
    /// Generator lag (ns) per ingestion batch in the fixed-rate slices.
    pub lags_ns: Vec<u64>,
    pub fixed_s: f64,
    pub fixed_offered: u64,
    pub fixed_target_wps: f64,
    pub fixed_ticks: u64,
    pub fixed_deadlines_missed: u64,
    /// Totals over the throughput-measuring slices.
    pub measured_s: f64,
    pub measured_windows: u64,
    pub measured_cpu_ns: u64,
    pub measured_sleep_ns: u64,
    pub measured_stats: FleetStatsDelta,
    pub sleep_ns: u64,
    /// Saturation ticks that had to wait for their due time.
    pub saturation_waits: u64,
    pub run_ns: u64,
    pub pending_rows_max: u64,
    pub shed_spread: f64,
    /// First decided windows, in decision order: (session, window).
    pub replay_log: Vec<(usize, usize)>,
    pub executors: usize,
    /// The traced run's span log.
    pub tracer: Option<Tracer>,
}

/// Difference of two [`FleetStats`] snapshots (kernel attribution).
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetStatsDelta {
    pub extract_ns: u128,
    pub classify_ns: u128,
    pub windows_decided: u64,
    pub rows_classified: u64,
}

impl FleetStatsDelta {
    fn between(a: &FleetStats, b: &FleetStats) -> Self {
        FleetStatsDelta {
            extract_ns: b.extract_ns - a.extract_ns,
            classify_ns: b.classify_ns - a.classify_ns,
            windows_decided: b.windows_decided - a.windows_decided,
            rows_classified: b.rows_classified - a.rows_classified,
        }
    }

    fn add(&mut self, o: &FleetStatsDelta) {
        self.extract_ns += o.extract_ns;
        self.classify_ns += o.classify_ns;
        self.windows_decided += o.windows_decided;
        self.rows_classified += o.rows_classified;
    }
}

/// Counter snapshot opening a throughput-measuring slice.
struct Mark {
    t: u64,
    sleep_ns: u64,
    decided: u64,
    cpu: u64,
    stats: FleetStats,
}

/// The generator plus the fleet it drives.
pub struct Driver<'a> {
    shape: Shape,
    cohort: &'a Cohort,
    engine: SharedEngine,
    pub fleet: FleetScheduler,
    patients: Vec<Patient>,
    removed: VecDeque<usize>,
    rng: StdRng,
    flush: FleetFlush,
    epoch: Instant,
    next_item: u64,
    churn_step: u64,
    pub tracer: Option<Tracer>,
    out: Outcome,
    reference: Option<&'a Reference>,
    /// Windows with a due time before this are not latency-sampled.
    latency_from_ns: u64,
    record_latency: bool,
    /// Decision latencies (ns) of the current fixed-rate slice.
    latencies: Vec<u64>,
    next_churn_ns: u64,
    replay_cap: usize,
    error: Option<String>,
}

impl<'a> Driver<'a> {
    /// Fleet construction, admission of every patient and the raw
    /// workloads' staggered pre-roll (part of the timed set-up).
    pub fn new(shape: Shape, cohort: &'a Cohort, seed: u64) -> Result<Self, String> {
        let engine = cohort.engine(shape.engine);
        let (max_pending_rows, overload) = match shape.gate {
            Some((max, low, high)) => (max, OverloadPolicy::Watermark(Watermarks { low, high })),
            None => (usize::MAX, OverloadPolicy::Reject),
        };
        let cfg = FleetConfig {
            alarms: Some(alarm_config()),
            max_pending_rows,
            overload,
            workers: shape.workers,
            tick: Some(TickConfig::wall(shape.cadence_ms * 1_000_000)),
            ..FleetConfig::unbounded(cohort.stream)
        };
        let mut fleet =
            FleetScheduler::new(Arc::clone(&engine), cfg).map_err(|e| format!("fleet: {e}"))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let n_sessions = cohort.n_sessions();
        let mut patients = Vec::with_capacity(shape.patients);
        for p in 0..shape.patients {
            fleet
                .admit(p as u64)
                .map_err(|e| format!("admit {p}: {e}"))?;
            let mut patient = Patient {
                session: p % n_sessions,
                offset: 0,
                chunks: 0,
                sent: 0,
                decided: 0,
                due: VecDeque::new(),
                admitted: true,
                shed: 0,
                alarms: Vec::new(),
            };
            patient.reset(below(&mut rng, WINDOWS_PER_SESSION));
            patients.push(patient);
        }
        let mut driver = Driver {
            shape,
            cohort,
            engine,
            fleet,
            patients,
            removed: VecDeque::new(),
            rng,
            flush: FleetFlush::default(),
            epoch: Instant::now(),
            next_item: 0,
            churn_step: 0,
            tracer: None,
            out: Outcome::default(),
            reference: None,
            latency_from_ns: u64::MAX,
            record_latency: false,
            latencies: Vec::new(),
            next_churn_ns: u64::MAX,
            replay_cap: 0,
            error: None,
        };
        if shape.raw {
            // Stagger window completion across patients: patient p starts
            // p/P of a window ahead, so completions spread evenly over
            // time while every window stays aligned with a cohort window.
            let cpw = chunks_per_window(cohort);
            for p in 0..shape.patients {
                let preroll = p as u64 * cpw / shape.patients as u64;
                for _ in 0..preroll {
                    let chunk = driver.chunk_of(p);
                    driver
                        .fleet
                        .ingest(p as u64, chunk)
                        .map_err(|e| format!("pre-roll {p}: {e}"))?;
                    driver.patients[p].chunks += 1;
                }
            }
        }
        Ok(driver)
    }

    pub fn engine(&self) -> &SharedEngine {
        &self.engine
    }

    /// The next 1-s chunk of patient `p`'s session loop.
    fn chunk_of(&self, p: usize) -> &'a [f64] {
        let st = &self.patients[p];
        let cohort = self.cohort;
        let loop_chunks = (cohort.samples[st.session].len() / CHUNK_SAMPLES) as u64;
        let first = st.offset as u64 * chunks_per_window(cohort);
        let c = ((first + st.chunks) % loop_chunks) as usize;
        &cohort.samples[st.session][c * CHUNK_SAMPLES..(c + 1) * CHUNK_SAMPLES]
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Offers the next item of the global round-robin schedule: one
    /// chunk or one row of patient `item mod P`.
    fn ingest_item(&mut self, due_ns: u64) {
        let p = (self.next_item % self.shape.patients as u64) as usize;
        self.next_item += 1;
        if !self.patients[p].admitted {
            return;
        }
        let start = self.tracer.as_ref().map(|_| Instant::now());
        let result = if self.shape.raw {
            let chunk = self.chunk_of(p);
            self.patients[p].chunks += 1;
            self.fleet.ingest(p as u64, chunk).map(|w| w as u64)
        } else {
            let st = &self.patients[p];
            let row = self.cohort.rows[st.session][st.window_of(st.sent)].as_deref();
            self.fleet.ingest_row(p as u64, row).map(|()| 1)
        };
        if let (Some(t), Some(start)) = (self.tracer.as_mut(), start) {
            t.record(Kind::Ingest, start, 0);
        }
        self.out.counts.ingest_calls += 1;
        match result {
            Ok(windows) => {
                let st = &mut self.patients[p];
                for _ in 0..windows {
                    st.due.push_back(due_ns);
                }
                st.sent += windows;
                self.out.counts.offered += windows;
            }
            Err(e) => {
                self.out.counts.ingest_errors += 1;
                self.out.counts.offered += u64::from(!self.shape.raw);
                self.fail(format!("ingest patient {p}: {e}"));
            }
        }
    }

    /// Records the first correctness failure; the run stops early and
    /// reports it instead of metrics.
    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// One `tick_into`, then the decided windows are checked against the
    /// reference and their latencies taken.
    fn tick(&mut self) {
        if self.tracer.is_some() {
            let pending = self.fleet.stats().pending_rows as u64;
            self.out.pending_rows_max = self.out.pending_rows_max.max(pending);
        }
        let mut flush = std::mem::take(&mut self.flush);
        let start = Instant::now();
        if let Err(e) = self.fleet.tick_into(&mut flush) {
            self.fail(format!("tick: {e}"));
        }
        let t_ret = self.now_ns();
        if let Some(t) = self.tracer.as_mut() {
            t.record(Kind::Tick, start, flush.rows_classified as u64);
        }
        self.out.counts.ticks += 1;
        self.consume(&flush, t_ret);
        self.flush = flush;
    }

    fn consume(&mut self, flush: &FleetFlush, t_ret: u64) {
        let stride = self.cohort.stream.stride as u64;
        for d in &flush.decisions {
            let p = d.patient as usize;
            let st = &mut self.patients[p];
            let w = d.decision;
            if w.window_index != st.decided || w.start_sample != st.decided * stride {
                let msg = format!(
                    "patient {p}: window {} (start {}) returned, expected window {}",
                    w.window_index, w.start_sample, st.decided
                );
                self.fail(msg);
                continue;
            }
            let window = st.window_of(st.decided);
            let expected = self.reference.and_then(|r| r[st.session][window]);
            let gated = self.shape.gate.is_some();
            match (w.decision.map(f64::to_bits), expected) {
                (Some(v), Some(e)) if v == e => self.out.counts.decided_value += 1,
                (None, None) => self.out.counts.device_drops += 1,
                (None, Some(_)) if gated => {
                    self.out.counts.shed += 1;
                    st.shed += 1;
                }
                (got, want) => {
                    let msg = format!(
                        "patient {p} window {}: decision {:?}, reference {:?}",
                        w.window_index,
                        got.map(f64::from_bits),
                        want.map(f64::from_bits)
                    );
                    self.error.get_or_insert(msg);
                }
            }
            let due = st.due.pop_front().unwrap_or(t_ret);
            st.decided += 1;
            if self.record_latency && w.decision.is_some() && due >= self.latency_from_ns {
                self.latencies.push(t_ret.saturating_sub(due));
            }
            if w.decision.is_some() && self.out.replay_log.len() < self.replay_cap {
                self.out.replay_log.push((st.session, window));
            }
        }
        for (p, a) in &flush.alarms {
            self.patients[*p as usize].alarms.push(*a);
            self.out.counts.alarms += 1;
        }
    }

    /// One event of the seeded lifecycle schedule: remove, restart or
    /// re-admit, in rotation.
    fn lifecycle_event(&mut self) {
        let op = self.churn_step % 3;
        self.churn_step += 1;
        let n = self.shape.patients;
        let pick = |rng: &mut StdRng, patients: &[Patient]| {
            let start = below(rng, n);
            (0..n)
                .map(|k| (start + k) % n)
                .find(|&p| patients[p].admitted)
        };
        let start = self.tracer.as_ref().map(|_| Instant::now());
        match op {
            0 | 1 => {
                let Some(p) = pick(&mut self.rng, &self.patients) else {
                    return;
                };
                let result = if op == 0 {
                    self.fleet.remove(p as u64)
                } else {
                    self.fleet.restart(p as u64)
                };
                match result {
                    Ok(gone) => {
                        let st = &self.patients[p];
                        let undecided = st.sent - st.decided;
                        if gone.discarded_windows as u64 != undecided {
                            let msg = format!(
                                "patient {p}: {} windows discarded, {undecided} undecided",
                                gone.discarded_windows
                            );
                            self.fail(msg);
                        }
                        self.out.counts.discarded += gone.discarded_windows as u64;
                        let offset = below(&mut self.rng, WINDOWS_PER_SESSION);
                        let st = &mut self.patients[p];
                        st.reset(offset);
                        if op == 0 {
                            st.admitted = false;
                            self.removed.push_back(p);
                        }
                    }
                    Err(e) => self.fail(format!("lifecycle on patient {p}: {e}")),
                }
            }
            _ => {
                let Some(p) = self.removed.pop_front() else {
                    return;
                };
                match self.fleet.admit(p as u64) {
                    Ok(()) => self.patients[p].admitted = true,
                    Err(e) => self.fail(format!("admit {p}: {e}")),
                }
            }
        }
        if let (Some(t), Some(start)) = (self.tracer.as_mut(), start) {
            t.record(Kind::Lifecycle, start, 0);
        }
        self.out.counts.lifecycle_calls += 1;
    }

    /// Sleeps until the next tick is due; returns the lead waited out.
    fn wait_until_due(&mut self) -> u64 {
        let lead = self.clock_lead_ns();
        if lead > 0 {
            let t = Instant::now();
            std::thread::sleep(Duration::from_nanos(lead));
            self.out.sleep_ns += t.elapsed().as_nanos() as u64;
        }
        lead
    }

    /// Waits for the next tick's due time, then ticks (paced ticking).
    fn paced_tick(&mut self) {
        self.wait_until_due();
        self.tick();
    }

    fn mark(&self) -> Mark {
        Mark {
            t: self.now_ns(),
            sleep_ns: self.out.sleep_ns,
            decided: self.out.counts.decided_value,
            cpu: process_cpu_ns(),
            stats: self.fleet.stats(),
        }
    }

    fn set_measured(&mut self, on: bool) {
        if let Some(t) = self.tracer.as_mut() {
            t.measured = on;
        }
    }

    /// Closes a throughput-measuring slice opened at `m`.
    fn close_measured(&mut self, m: &Mark, slice: &mut Slice) {
        let end = self.mark();
        let windows = end.decided - m.decided;
        let cpu = end.cpu.saturating_sub(m.cpu);
        slice.throughput_wps = windows as f64 * 1e9 / (end.t - m.t) as f64;
        slice.cpu_us_per_window = cpu as f64 / 1e3 / windows.max(1) as f64;
        self.out.measured_s += (end.t - m.t) as f64 / 1e9;
        self.out.measured_windows += windows;
        self.out.measured_cpu_ns += cpu;
        self.out.measured_sleep_ns += end.sleep_ns - m.sleep_ns;
        self.out
            .measured_stats
            .add(&FleetStatsDelta::between(&m.stats, &end.stats));
    }

    /// Open loop at the fixed rate for `dur_ns`, then one paced tick
    /// drains what is pending; the slice's latency quantiles.
    fn fixed_slice(&mut self, dur_ns: u64, item_ns: f64, slice: &mut Slice) {
        let cadence_ns = self.shape.cadence_ms * 1_000_000;
        let churn_ns = self.shape.churn_ms.map_or(u64::MAX, |ms| ms * 1_000_000);
        // The last tick may have set the next one up to a cadence ahead;
        // the slice's schedule starts once that tick is due, so no window
        // waits on the clock instead of the program.
        slice.clock_lead_ns = self.wait_until_due();
        let start = self.now_ns();
        let base_item = self.next_item;
        let offered0 = self.out.counts.offered;
        let stats0 = self.fleet.stats();
        // The first ticks of a slice may still carry the previous
        // slice's schedule; sample latency after two cadences.
        self.latency_from_ns = start + 2 * cadence_ns;
        self.record_latency = true;
        self.latencies.clear();
        loop {
            let now = self.now_ns();
            let elapsed = now - start;
            let stop = elapsed >= dur_ns;
            let horizon = elapsed.min(dur_ns);
            let mut batch_lag = None;
            loop {
                let k = self.next_item - base_item;
                let due = (k as f64 * item_ns) as u64;
                if due > horizon {
                    break;
                }
                batch_lag.get_or_insert(elapsed.saturating_sub(due));
                self.ingest_item(start + due);
            }
            if let Some(lag) = batch_lag {
                self.out.lags_ns.push(lag);
            }
            while self.next_churn_ns <= start + horizon {
                self.lifecycle_event();
                self.next_churn_ns = self.next_churn_ns.saturating_add(churn_ns);
            }
            if stop || self.error.is_some() {
                break;
            }
            let lead = self.clock_lead_ns();
            if lead == 0 {
                self.tick();
            } else {
                let wait = QUANTUM.min(Duration::from_nanos(lead));
                let t = Instant::now();
                std::thread::sleep(wait);
                self.out.sleep_ns += t.elapsed().as_nanos() as u64;
            }
        }
        self.paced_tick();
        self.record_latency = false;
        let stats1 = self.fleet.stats();
        self.out.fixed_s += dur_ns as f64 / 1e9;
        self.out.fixed_offered += self.out.counts.offered - offered0;
        self.out.fixed_ticks += stats1.ticks - stats0.ticks;
        self.out.fixed_deadlines_missed += stats1.deadlines_missed - stats0.deadlines_missed;
        slice.latency_n = self.latencies.len();
        slice.p50_ns = quantile(&mut self.latencies, 0.50);
        slice.p99_ns = quantile(&mut self.latencies, 0.99);
    }

    /// Saturation for `dur_ns`: before every tick the generator offers
    /// `batch` more windows, so the fleet never waits for input. A tick
    /// never starts before it is due, so the serving clock cannot run
    /// ahead of wall time; a tick that has to wait means the program
    /// served `batch` in less than a cadence, and the slice measured
    /// the ceiling `batch / cadence`, not the program (counted).
    fn saturation_slice(&mut self, dur_ns: u64, batch: u64) {
        let start = self.now_ns();
        while self.now_ns() - start < dur_ns && self.error.is_none() {
            let target = self.out.counts.offered + batch;
            while self.out.counts.offered < target && self.error.is_none() {
                let now = self.now_ns();
                self.ingest_item(now);
            }
            if self.wait_until_due() > 0 {
                self.out.saturation_waits += 1;
            }
            self.tick();
        }
    }

    /// How far the serving clock's next tick lies ahead of its now.
    fn clock_lead_ns(&self) -> u64 {
        let now = self.fleet.clock_now_ns().unwrap_or(0);
        self.fleet.next_tick_ns().unwrap_or(0).saturating_sub(now)
    }

    /// Runs the workload for `seconds` in interleaved slices and returns
    /// what it measured, or the first correctness failure.
    pub fn run(
        mut self,
        seconds: f64,
        reference: &'a Reference,
        replay_cap: usize,
    ) -> Result<Outcome, String> {
        self.reference = Some(reference);
        self.replay_cap = replay_cap;
        self.out.executors = self.fleet.flush_executors();
        let items_per_window = if self.shape.raw {
            chunks_per_window(self.cohort) as f64
        } else {
            1.0
        };
        let item_ns = 1e9 / (self.shape.offered_wps * items_per_window);
        let cadence_s = self.shape.cadence_ms as f64 / 1e3;
        let batch = self
            .shape
            .saturation_wps
            .map_or(0, |wps| ((wps * cadence_s).round() as u64).max(1));
        let phases = if batch > 0 { 2 } else { 1 };
        let rounds = ((seconds / (SLICE_S * phases as f64)).floor() as usize).max(1);
        let slice_ns = (seconds * 1e9 / (rounds * phases) as f64) as u64;
        // Re-anchor the serving clock after set-up: the first tick fires
        // now instead of being charged the set-up time as a miss.
        self.tick();
        let run_start = self.now_ns();
        if let Some(ms) = self.shape.churn_ms {
            self.next_churn_ns = run_start + ms * 1_000_000;
        }
        for _ in 0..rounds {
            if self.error.is_some() {
                break;
            }
            let mut slice = Slice::default();
            if batch > 0 {
                self.fixed_slice(slice_ns, item_ns, &mut slice);
                // The fixed slice's last tick set the next one on its
                // cadence; wait it out, so that a wait inside the
                // saturation slice means the ceiling was reached.
                self.wait_until_due();
                self.set_measured(true);
                let m = self.mark();
                self.saturation_slice(slice_ns, batch);
                self.close_measured(&m, &mut slice);
            } else {
                self.set_measured(true);
                let m = self.mark();
                self.fixed_slice(slice_ns, item_ns, &mut slice);
                self.close_measured(&m, &mut slice);
            }
            self.set_measured(false);
            self.out.slices.push(slice);
        }
        let admitted_share =
            self.patients.iter().filter(|p| p.admitted).count() as f64 / self.shape.patients as f64;
        self.out.fixed_target_wps = self.shape.offered_wps * admitted_share;
        self.out.run_ns = self.now_ns() - run_start;
        self.finish()
    }

    /// End-of-run checks: conservation, the fleet's own counters, and —
    /// on ungated workloads — alarms against per-patient solo sessions.
    fn finish(mut self) -> Result<Outcome, String> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let stats = self.fleet.stats();
        let c = self.out.counts;
        let pending: u64 = self
            .patients
            .iter()
            .filter(|p| p.admitted)
            .map(|p| p.sent - p.decided)
            .sum();
        self.out.pending_end = pending;
        if pending != stats.pending_windows as u64 {
            return Err(format!(
                "generator counts {pending} pending windows, fleet {}",
                stats.pending_windows
            ));
        }
        let accounted =
            c.decided_value + c.device_drops + c.shed + c.discarded + c.ingest_errors + pending;
        if accounted != c.offered {
            return Err(format!(
                "conservation: offered {} != decided {} + device drops {} + shed {} + \
                 discarded {} + ingest errors {} + pending {pending}",
                c.offered, c.decided_value, c.device_drops, c.shed, c.discarded, c.ingest_errors
            ));
        }
        // A shed window that is later discarded by a remove or restart
        // counts in both of the fleet's counters but returns as neither.
        let shed_then_discarded = stats.shed_windows.checked_sub(c.shed);
        if c.discarded != stats.discarded_windows
            || shed_then_discarded.is_none_or(|n| n > c.discarded)
        {
            return Err(format!(
                "fleet counts {} shed / {} discarded, generator saw {} / {}",
                stats.shed_windows, stats.discarded_windows, c.shed, c.discarded
            ));
        }
        if self.shape.gate.is_none() {
            self.check_alarms()?;
        }
        let sheds: Vec<u64> = self.patients.iter().map(|p| p.shed).collect();
        let mean = sheds.iter().sum::<u64>() as f64 / sheds.len() as f64;
        if mean > 0.0 {
            let max = *sheds.iter().max().unwrap_or(&0) as f64;
            let min = *sheds.iter().min().unwrap_or(&0) as f64;
            self.out.shed_spread = (max - min) / mean;
        }
        self.out.tracer = self.tracer.take();
        Ok(std::mem::take(&mut self.out))
    }

    /// Alarms must be bit-identical to a solo [`StreamingSession`] per
    /// patient fed the reference decisions of the same windows in the
    /// same order (runs after the timed region).
    fn check_alarms(&self) -> Result<(), String> {
        let reference = self.reference.ok_or("no reference")?;
        let stride = self.cohort.stream.stride as u64;
        for (p, st) in self.patients.iter().enumerate() {
            let mut solo = StreamingSession::with_alarms(
                Arc::clone(&self.engine),
                self.cohort.stream,
                alarm_config(),
            )
            .map_err(|e| format!("reference session: {e}"))?;
            for k in 0..st.decided {
                let pending = PendingWindow {
                    window_index: k,
                    start_sample: k * stride,
                    row: None,
                    extract_ns: 0,
                };
                let decision = reference[st.session][st.window_of(k)].map(f64::from_bits);
                solo.decide_window(&pending, decision, 0);
            }
            let want = solo.take_alarms();
            if want != st.alarms {
                return Err(format!(
                    "patient {p}: fleet raised {} alarms, solo reference {}",
                    st.alarms.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}
