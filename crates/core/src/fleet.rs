//! Fleet-scale session multiplexing: thousands of patient streams, one
//! staged multi-core inference pipeline.
//!
//! A solo [`StreamingSession`] classifies **one window at a time**, so
//! the tiled [`svm::ClassifierEngine::decision_batch`] kernels never run
//! on its path. [`FleetScheduler`] is the multi-patient path: it
//! owns N per-patient [`StreamingSession`]s, accepts
//! [`FleetScheduler::ingest`] calls in arbitrary patient interleavings,
//! and each [`FleetScheduler::flush`] drives a three-stage pipeline over
//! the fleet's executors (the flushing caller plus scoped threads):
//!
//! ```text
//! ingest(p, chunk) ──► window p     (raw samples, one copy into the
//!                                    patient's assembling window)
//! ingest_row(p, r) ──► queue p      (pre-extracted rows, buffered as-is)
//!                          │ flush()
//!   ┌──────────────────────┴──────────────────────────────────────┐
//!   │ stage 1 · fleet-wide lane-batched extraction                │
//!   │   every window completed since the last flush, whatever     │
//!   │   patient it belongs to, joins a lane group of up to 8;     │
//!   │   executors claim whole groups (par_map_with), each with    │
//!   │   its own lane scratch, and run the SoA lane kernels on     │
//!   │   windows read in place from their assembly buffers —       │
//!   │   then the extracted windows join the                       │
//!   │   pending queues replayed in ingest order (overload policy) │
//!   │ stage 2 · parallel panel fan-out                            │
//!   │   ready rows across all queues → panels of 256 row refs →   │
//!   │   decision_rows_into fanned across the executors (par_map)  │
//!   │   (order-preserving, so panel k's values land at offset     │
//!   │   256·k exactly as a serial loop would place them)          │
//!   │ stage 3 · ordered route-back                                │
//!   │   decisions scatter to each session's decide stage (stats,  │
//!   │   alarm state machine) in (patient asc, window) order       │
//!   └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Decisions come back **bit-identical** to solo streaming at every
//! worker count because each stage preserves order: a window's features
//! depend on its samples alone (lane-batched extraction is bit-identical
//! to extracting each window by itself, so which patients share a lane
//! group cannot matter), the panel map is
//! order-preserving by construction, and route-back is a single ordered
//! scatter — so the alarm state machines, drop accounting and window
//! geometry cannot diverge (the `fleet_equivalence` suite pins this on a
//! real cohort for both engines, under random interleavings, both
//! [`crate::alarm::DroppedPolicy`] variants and worker counts
//! {1, 2, machine default}).
//!
//! ## One schedule on every executor set
//!
//! Between flushes the fleet only buffers: samples go into the
//! patient's assembling window, rows into its pending queue. Every
//! extraction and every classification runs inside the flush, whatever
//! [`FleetConfig::workers`] resolves to — with one executor the lane
//! groups and panels simply run inline on the caller. The overload
//! policy therefore settles which rows to shed before any kernel sees
//! them, and a shed row is never classified.
//!
//! ## Backpressure
//!
//! A fleet taking live traffic can be offered more windows than it can
//! classify. [`FleetConfig::max_pending_rows`] bounds the feature rows
//! buffered between flushes; when the bound is hit,
//! [`OverloadPolicy`] decides who pays: `Reject` sheds the **newest**
//! window, and `Watermark` runs a high/low hysteresis gate with
//! **per-patient fair shedding**: when pending rows exceed the high
//! watermark the gate sheds down to the low watermark in one pass,
//! picking victims round-robin among the patients holding more than
//! their fair share (`⌈pending / active patients⌉`) — a single flooding
//! patient pays first, and no patient is ever starved to protect
//! another (patients at or under fair share are only shed once
//! *everyone* is at fair share). Whatever the policy, the shed window
//! stays in its session's queue as a *dropped* window (decision `None`)
//! — it is still decided in order at the next flush, so per-session
//! window accounting and the alarm dropped-window semantics stay exact
//! — and the shed count surfaces in [`FleetStats`]. Raw-sample windows reach the bounded
//! buffer when their extraction runs, at the head of `flush` — replayed
//! in the exact fleet-wide ingest order, so a pure raw-sample workload
//! sheds exactly as if each window had been extracted the moment it
//! completed; in a *mixed* raw+row fleet under a bound, rows buffered
//! at ingest are simply already present when the raw windows replay.
//!
//! ## Tick-driven serving
//!
//! Production serving is cadence-driven, not caller-driven: configure
//! [`FleetConfig::tick`] and drive the fleet with
//! [`FleetScheduler::tick_into`] instead of ad-hoc `flush` calls
//! (pacing — waiting for [`FleetScheduler::next_tick_ns`] — is the
//! caller's). Each tick is one flush wrapped in
//! [`crate::clock::FleetClock`] deadline accounting (met/missed/slack
//! vs the fixed cadence), and every ingested window carries an arrival
//! timestamp so the fleet can histogram true **decision latency**
//! (arrival → decision) in [`FleetStats::decision_latency`], alongside
//! per-tick work in [`FleetStats::tick_work`]. Under the deterministic
//! virtual clock the whole tick schedule — timestamps, histograms,
//! deadline verdicts — is bit-identical across runs and worker counts;
//! a tick performs exactly the flush a caller would have performed, so
//! tick-driven and caller-driven serving produce identical decisions
//! (pinned by the `tick_equivalence` suite).
//!
//! ## Ingest modes
//!
//! * [`FleetScheduler::ingest`] — raw ECG chunks; samples are copied
//!   once, into the patient's assembling window, and every completed
//!   window is extracted fleet-wide, lane-batched, inside the next flush
//!   (the monitor-parity mode the equivalence tests drive).
//! * [`FleetScheduler::ingest_row`] — pre-extracted 53-feature rows; the
//!   on-device-extraction topology where wearables run DSP locally and
//!   the fleet spends its cycles purely on classification, which is
//!   where cross-patient batching pays (fleetbench's `row_serve`
//!   workload measures it).

// lint: allow-file(hot-index) — scheduler bookkeeping: slot/queue offsets are
// maintained by the fleet's own maps and cursors; each is re-derived from the
// structure it indexes in the same scope.
use crate::alarm::{score_events, AlarmConfig, AlarmEvent, EventMetrics, EventScoring, TruthEvent};
use crate::clock::{FleetClock, LatencyHistogram, TickConfig, TickOutcome};
use crate::error::CoreError;
use crate::parallel::{par_map_n, par_map_with, worker_count};
use crate::stream::{
    extract_group, ExtractJob, PendingWindow, SharedEngine, StreamConfig, StreamStats,
    StreamingSession, WindowDecision, LANE_GROUP,
};
use ecg_features::extract::{BatchExtractScratch, WindowExtractor};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Identifies one patient stream within a fleet.
pub type PatientId = u64;

/// Rows per [`svm::ClassifierEngine::decision_rows_into`] panel inside
/// [`FleetScheduler::flush`]. Panelling keeps a huge fleet's flush
/// working set cache-sized (256 rows × 53 features ≈ 106 KiB) instead
/// of streaming one multi-megabyte batch through the kernels, and is
/// the grain the parallel fan-out distributes across executors; it
/// cannot change results because batch decisions are bit-identical to
/// per-row decisions.
pub const FLUSH_PANEL_ROWS: usize = 256;

/// Who pays when the fleet's pending-row buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// The **newest** window is shed: its feature row is discarded and
    /// the window is decided as dropped at the next flush. Established
    /// work is never thrown away — latecomers queue-fail first.
    #[default]
    Reject,
    /// High/low watermark admission gate with per-patient fair
    /// shedding: rows are admitted freely until pending rows exceed
    /// [`Watermarks::high`], then the gate sheds down to
    /// [`Watermarks::low`] in one pass, oldest-first per victim,
    /// victims chosen round-robin among patients above their fair share
    /// (see the module's *Backpressure* section). The hysteresis band
    /// keeps shedding bursty instead of per-row once saturated, and the
    /// fair-share rule means one flooding patient cannot crowd out the
    /// rest of the fleet. `Reject` remains the degenerate
    /// single-threshold configuration.
    Watermark(Watermarks),
}

/// The hysteresis band of [`OverloadPolicy::Watermark`]. Validated by
/// [`FleetConfig::validate`]: `low < high <= max_pending_rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Shedding, once triggered, stops at this many pending rows.
    pub low: usize,
    /// Admitting a row beyond this many pending rows triggers shedding.
    pub high: usize,
}

/// Configuration of a fleet: shared window geometry, optional per-patient
/// alarm stage, the overload policy, and the flush executor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Windowing every patient session runs under.
    pub stream: StreamConfig,
    /// Per-patient alarm stage (`None` = decisions only).
    pub alarms: Option<AlarmConfig>,
    /// Feature rows the fleet may buffer between flushes (`>= 1`).
    /// Bounds flush batch size and row memory; windows beyond it are
    /// shed per [`OverloadPolicy`].
    pub max_pending_rows: usize,
    /// What to shed when `max_pending_rows` is reached.
    pub overload: OverloadPolicy,
    /// Executors for the flush pipeline's parallel stages (sharded
    /// extraction, panel fan-out). `None` = size to the machine
    /// ([`crate::parallel::worker_count`]); `Some(n)` = exactly `n`
    /// executors (`1` runs fully serial on the caller; `n ≥ 2` adds
    /// `n − 1` scoped threads to the flushing caller for each parallel
    /// stage). Must be `>= 1`. Every executor set runs the same
    /// schedule (see the module docs); the count cannot change results,
    /// only wall-clock.
    pub workers: Option<usize>,
    /// Serving clock for the tick-driven runtime
    /// ([`FleetScheduler::tick_into`]):
    /// `Some` gives the fleet a [`FleetClock`] at the configured
    /// cadence/time source and turns on arrival stamping + decision
    /// latency histograms. `None` (the default) is pure caller-driven
    /// serving with zero clock overhead.
    pub tick: Option<TickConfig>,
}

impl FleetConfig {
    /// A fleet without practical backpressure (buffer bound
    /// `usize::MAX` — the default that disables shedding entirely), no
    /// alarm stage, machine-default executors, caller-driven flushes —
    /// the configuration the equivalence suite compares against solo
    /// sessions.
    pub fn unbounded(stream: StreamConfig) -> Self {
        FleetConfig {
            stream,
            alarms: None,
            max_pending_rows: usize::MAX,
            overload: OverloadPolicy::Reject,
            workers: None,
            tick: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for `max_pending_rows == 0`,
    /// `workers == Some(0)`, watermark bands that are not
    /// `low < high <= max_pending_rows`, a zero tick cadence, or an
    /// invalid alarm configuration (the stream configuration is
    /// validated when the first session is built, and once up front by
    /// [`FleetScheduler::new`]).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_pending_rows == 0 {
            return Err(CoreError::InvalidConfig(
                "fleet needs max_pending_rows >= 1 (0 would shed every window)".into(),
            ));
        }
        if self.workers == Some(0) {
            return Err(CoreError::InvalidConfig(
                "fleet needs workers >= 1 (the flush caller is an executor; \
                 None sizes to the machine)"
                    .into(),
            ));
        }
        if let OverloadPolicy::Watermark(wm) = self.overload {
            if wm.low >= wm.high || wm.high > self.max_pending_rows {
                return Err(CoreError::InvalidConfig(format!(
                    "watermark gate needs low < high <= max_pending_rows, \
                     got low {} / high {} / max_pending_rows {}",
                    wm.low, wm.high, self.max_pending_rows
                )));
            }
        }
        if let Some(t) = self.tick {
            t.validate()?;
        }
        if let Some(a) = self.alarms {
            a.validate()?;
        }
        Ok(())
    }
}

/// Fleet-level accounting — the scheduler's own counters, on top of the
/// per-session [`StreamStats`] (merge those via
/// [`FleetScheduler::stream_stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Sessions currently admitted.
    pub patients: usize,
    /// Admissions over the fleet's lifetime.
    pub admitted: u64,
    /// Removals over the fleet's lifetime.
    pub removed: u64,
    /// Session restarts over the fleet's lifetime.
    pub restarted: u64,
    /// Ingest calls accepted (chunks + rows).
    pub ingests: u64,
    /// Windows currently awaiting a decision: queued rows, shed and
    /// extraction-dropped windows, plus raw-sample windows whose
    /// deferred extraction has not run yet (counted by geometry).
    pub pending_windows: usize,
    /// Feature rows currently buffered for the next flush. Raw-sample
    /// windows contribute only once their deferred extraction runs, at
    /// the head of that flush.
    pub pending_rows: usize,
    /// Flushes performed.
    pub flushes: u64,
    /// Rows driven through the batch kernel across all flushes.
    pub rows_classified: u64,
    /// Windows decided (classified + dropped) across all flushes.
    pub windows_decided: u64,
    /// Windows shed by the overload policy (decided as dropped).
    pub shed_windows: u64,
    /// Pending windows discarded undecided by [`FleetScheduler::remove`].
    pub discarded_windows: u64,
    /// Wall-clock nanoseconds spent inside flushes (and so inside
    /// ticks) — the denominator of
    /// [`FleetStats::wall_windows_per_sec`]. Neither ingest path reads
    /// the clock per call: [`FleetScheduler::ingest`] and
    /// [`FleetScheduler::ingest_row`] only copy and count, and a
    /// wall-clock pair (about 90 ns on a 2-vCPU x86-64 host) would cost
    /// about a quarter of a 1-s chunk's ingest. Every kernel a window
    /// needs — extraction, classification, route-back, alarms — runs,
    /// and is timed, inside the flush.
    pub busy_ns: u128,
    /// Nanoseconds attributed to feature extraction across every decided
    /// window — the per-window `extract_ns` figures summed at route-back.
    /// Together with [`FleetStats::classify_ns`] this splits the serving
    /// pipeline's cost into its two kernel phases, so reports can show
    /// where the wall actually is (extraction dominates; see
    /// `fleet_sim`'s throughput table).
    pub extract_ns: u128,
    /// Nanoseconds attributed to classification across every decided
    /// window — the evenly-attributed batch-kernel shares summed at
    /// route-back. Counterpart of [`FleetStats::extract_ns`].
    pub classify_ns: u128,
    /// Ticks completed by the tick-driven runtime (0 when serving is
    /// caller-driven).
    pub ticks: u64,
    /// Ticks that finished within their cadence deadline.
    pub deadlines_met: u64,
    /// Ticks that overran their cadence deadline.
    pub deadlines_missed: u64,
    /// Worst single-tick overrun (ns past the deadline; 0 when every
    /// deadline was met).
    pub worst_overrun_ns: u64,
    /// Distribution of per-tick flush work (`end − start` ns per tick).
    pub tick_work: LatencyHistogram,
    /// Distribution of end-to-end **decision latency** — window arrival
    /// at the fleet to the end of the tick that decided it. Only
    /// recorded under the tick-driven runtime (arrival stamps need the
    /// serving clock); deterministic and worker-count-invariant under a
    /// virtual clock.
    pub decision_latency: LatencyHistogram,
}

impl FleetStats {
    /// Windows decided per **flush-second**: per second of wall time
    /// inside flushes ([`FleetStats::busy_ns`]). Ingest copies and the
    /// caller's own time between flushes are not in the denominator, so
    /// this is the rate of the fleet's decision pipeline, not a
    /// whole-process rate. It is the pooled figure the summed
    /// per-window latencies of a merged [`StreamStats`] cannot provide
    /// (they treat concurrent work as serial — see
    /// [`StreamStats::windows_per_sec`]).
    /// `0.0` before any window is decided; `INFINITY` when windows were
    /// decided in sub-resolution busy time, mirroring
    /// [`StreamStats::windows_per_sec`].
    pub fn wall_windows_per_sec(&self) -> f64 {
        if self.windows_decided == 0 {
            0.0
        } else if self.busy_ns == 0 {
            f64::INFINITY
        } else {
            self.windows_decided as f64 * 1e9 / self.busy_ns as f64
        }
    }
}

/// What [`FleetScheduler::remove`] hands back: the session's final
/// accounting plus anything still buffered.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedPatient {
    /// The removed session's lifetime stats (`samples_in` counts every
    /// sample ingested, extracted or not).
    pub stats: StreamStats,
    /// Alarms the session had raised but nobody had collected.
    pub alarms: Vec<AlarmEvent>,
    /// Pending windows discarded undecided (flush before removing to
    /// decide them instead).
    pub discarded_windows: usize,
}

/// One decided window of a flush, tagged with its patient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDecision {
    /// The patient whose window this is.
    pub patient: PatientId,
    /// The decided window.
    pub decision: WindowDecision,
}

/// Everything one [`FleetScheduler::flush`] decided: windows grouped by
/// ascending patient id (window order within a patient), the alarms
/// those windows raised, and the batch size that produced them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetFlush {
    /// Decided windows, grouped by ascending patient id.
    pub decisions: Vec<FleetDecision>,
    /// Alarms raised by this flush, in the same patient-grouped order.
    pub alarms: Vec<(PatientId, AlarmEvent)>,
    /// Feature rows classified through the batch-kernel panels.
    pub rows_classified: usize,
    /// Extraction nanoseconds attributed to this flush's decided
    /// windows (summed per-window `extract_ns`).
    pub extract_ns: u128,
    /// Classification nanoseconds attributed to this flush's decided
    /// windows (summed per-row batch-kernel shares).
    pub classify_ns: u128,
}

/// One raw-sample ingest call that completed windows — the replay unit
/// that reconstructs the fleet-wide arrival order after the deferred,
/// shard-parallel extract stage has run.
struct ChunkRecord {
    patient: PatientId,
    /// Windows the chunk completed (by geometry, exactly what the
    /// extractor will stage).
    windows: u64,
    /// Serving-clock reading when the chunk was ingested (0 without a
    /// clock); stamped onto every window the chunk completed when the
    /// record replays.
    arrival_ns: u64,
}

/// One buffered window awaiting its decision at the next flush.
struct QueuedWindow {
    window: PendingWindow,
    /// Serving-clock reading when the window arrived at the fleet (0
    /// without a clock); the tick runtime turns this into decision
    /// latency at route-back.
    arrival_ns: u64,
}

/// One admitted patient: the session (which holds its assembled,
/// not-yet-extracted windows), the per-flush staging buffer the extract
/// stage fills, and its queue of extracted, not-yet-decided windows.
struct Slot {
    session: StreamingSession,
    /// Windows the extract stage produced this flush, awaiting ordered
    /// replay into `queue`; empty between flushes.
    staged: Vec<PendingWindow>,
    /// Replay cursor into `staged`.
    staged_next: usize,
    queue: VecDeque<QueuedWindow>,
    /// Queue index before which every window is known rowless — rows
    /// are only shed front-to-back between flushes, so the watermark
    /// gate resumes its victim scan here instead of re-walking the
    /// already-shed prefix (keeps sustained overload O(1) per shed).
    /// Reset whenever the queue empties (flush / restart).
    shed_cursor: usize,
    /// Row-bearing windows currently queued on this slot — the
    /// watermark gate's per-patient pending count, maintained
    /// incrementally (enqueue +1, shed −1, reset when the queue
    /// settles) so fair-share victim selection never walks the queues.
    pending_rows: usize,
}

impl Slot {
    fn new(session: StreamingSession) -> Self {
        Slot {
            session,
            staged: Vec::new(),
            staged_next: 0,
            queue: VecDeque::new(),
            shed_cursor: 0,
            pending_rows: 0,
        }
    }

    /// Moves the next staged window out (replay order).
    fn take_staged(&mut self) -> PendingWindow {
        let i = self.staged_next;
        self.staged_next += 1;
        std::mem::replace(
            &mut self.staged[i],
            PendingWindow {
                window_index: 0,
                start_sample: 0,
                row: None,
                extract_ns: 0,
            },
        )
    }
}

/// Multiplexes N per-patient [`StreamingSession`]s over one shared
/// engine, micro-batching ready feature rows across patients into
/// panelled [`svm::ClassifierEngine::decision_rows_into`] calls fanned across
/// the flush executors (see the module docs for the staged pipeline).
///
/// ```no_run
/// use seizure_core::fleet::{FleetConfig, FleetScheduler};
/// use seizure_core::stream::StreamConfig;
/// # fn engine() -> seizure_core::stream::SharedEngine { unimplemented!() }
///
/// let cfg = FleetConfig::unbounded(StreamConfig::non_overlapping(128.0, 30.0)?);
/// let mut fleet = FleetScheduler::new(engine(), cfg)?;
/// fleet.admit(7)?;
/// fleet.admit(12)?;
/// fleet.ingest(7, &vec![0.0; 4096])?;   // any interleaving
/// fleet.ingest(12, &vec![0.0; 8192])?;
/// for d in fleet.flush().decisions {     // one staged pipeline run
///     println!("patient {} window {}", d.patient, d.decision.window_index);
/// }
/// # Ok::<(), seizure_core::error::CoreError>(())
/// ```
pub struct FleetScheduler {
    engine: SharedEngine,
    cfg: FleetConfig,
    /// Admitted patient ids, ascending — index-parallel with `slots`,
    /// so lookups are a binary search and every flush iterates in
    /// deterministic patient order without tree-walking overhead on the
    /// row-serving hot path.
    ids: Vec<PatientId>,
    slots: Vec<Slot>,
    /// Raw-sample ingest calls (in fleet-wide order) whose windows are
    /// still awaiting the deferred extract stage — the replay script
    /// that reconstructs fleet-wide ingest order at flush time.
    pending_chunks: Vec<ChunkRecord>,
    stats: FleetStats,
    /// Reused decision-value buffer of the flush classify stage.
    values: Vec<f64>,
    /// Feature extractor of the fleet-wide extract stage (every session
    /// shares the fleet's stream geometry).
    extractor: WindowExtractor,
    /// Reused work list of the fleet-wide extract stage: every window
    /// assembled since the last flush, in (patient asc, window) order.
    extract_jobs: Vec<ExtractJob>,
    /// Executors for the flush pipeline's parallel stages, resolved
    /// once from [`FleetConfig::workers`].
    executors: usize,
    /// One lane-batch extraction scratch per executor: the SoA buffers
    /// are sized by `window_len × 8`, so they stay warm across flushes
    /// instead of being re-faulted by each flush's fresh scoped threads.
    batch_scratch: Vec<BatchExtractScratch>,
    /// The serving clock when the fleet is tick-driven
    /// ([`FleetConfig::tick`]); `None` = caller-driven flushes, no
    /// arrival stamping.
    clock: Option<FleetClock>,
    /// Watermark round-robin cursor: slot index where the next
    /// fair-share victim scan starts, so sustained shedding rotates
    /// across patients instead of always hitting the lowest slot.
    /// Reset whenever slot indices shift (admit/remove).
    fair_cursor: usize,
    /// Reused scratch: arrival stamps of the windows the current flush
    /// decided, drained by [`FleetScheduler::tick_into`] into
    /// [`FleetStats::decision_latency`] once the tick's end time is
    /// known. Only populated while a clock is configured.
    tick_arrivals: Vec<u64>,
}

impl std::fmt::Debug for FleetScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetScheduler")
            .field("cfg", &self.cfg)
            .field("engine", &self.engine.info())
            .field("executors", &self.executors)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FleetScheduler {
    /// Builds an empty fleet over a shared engine. No thread is spawned
    /// here: each flush runs its parallel stages on scoped threads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// [`FleetConfig`] (stream geometry, alarm operating point, a zero
    /// row buffer or a zero worker count).
    pub fn new(engine: SharedEngine, cfg: FleetConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        // Validate the stream configuration once, up front, with a probe
        // session — admits can then only fail on duplicate ids.
        StreamingSession::new(Arc::clone(&engine), cfg.stream)?;
        let executors = cfg.workers.unwrap_or(worker_count(usize::MAX));
        let clock = match cfg.tick {
            Some(t) => Some(FleetClock::new(t)?),
            None => None,
        };
        Ok(FleetScheduler {
            engine,
            cfg,
            ids: Vec::new(),
            slots: Vec::new(),
            pending_chunks: Vec::new(),
            stats: FleetStats::default(),
            values: Vec::new(),
            extractor: WindowExtractor::new(cfg.stream.fs),
            extract_jobs: Vec::new(),
            executors,
            batch_scratch: (0..executors)
                .map(|_| BatchExtractScratch::default())
                .collect(),
            clock,
            fair_cursor: 0,
            tick_arrivals: Vec::new(),
        })
    }

    /// The fleet's configuration.
    pub fn config(&self) -> FleetConfig {
        self.cfg
    }

    /// Executors the flush pipeline's parallel stages use (the flushing
    /// caller plus scoped threads) — resolved from
    /// [`FleetConfig::workers`], so `None` reports the machine's width.
    pub fn flush_executors(&self) -> usize {
        self.executors
    }

    /// Fleet-level counters.
    pub fn stats(&self) -> FleetStats {
        self.stats.clone()
    }

    /// Cost metadata of the shared engine behind every session.
    pub fn engine_info(&self) -> svm::EngineInfo {
        self.engine.info()
    }

    /// Admitted patient count.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no patient is admitted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `patient` is admitted.
    pub fn contains(&self, patient: PatientId) -> bool {
        self.slot_index(patient).is_some()
    }

    /// Admitted patient ids in ascending order.
    pub fn patients(&self) -> impl Iterator<Item = PatientId> + '_ {
        self.ids.iter().copied()
    }

    /// Index of `patient` in the sorted id/slot vectors.
    fn slot_index(&self, patient: PatientId) -> Option<usize> {
        self.ids.binary_search(&patient).ok()
    }

    /// Admits a new patient with a fresh session (alarm stage per the
    /// fleet configuration).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `patient` is already
    /// admitted.
    pub fn admit(&mut self, patient: PatientId) -> Result<(), CoreError> {
        let Err(pos) = self.ids.binary_search(&patient) else {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is already admitted"
            )));
        };
        let session = self.fresh_session()?;
        self.ids.insert(pos, patient);
        self.slots.insert(pos, Slot::new(session));
        self.fair_cursor = 0; // indices shifted
        self.stats.admitted += 1;
        self.stats.patients = self.ids.len();
        Ok(())
    }

    /// Removes a patient, handing back the session's final stats, any
    /// uncollected alarms and the count of pending windows discarded
    /// undecided (flush first to decide them). Windows assembled but not
    /// yet extracted are discarded without running extraction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient.
    pub fn remove(&mut self, patient: PatientId) -> Result<RemovedPatient, CoreError> {
        let Some(idx) = self.slot_index(patient) else {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is not admitted"
            )));
        };
        self.ids.remove(idx);
        let mut slot = self.slots.remove(idx);
        self.fair_cursor = 0; // indices shifted
        let discarded_rows = slot.pending_rows;
        let discarded = slot.queue.len() + slot.session.assembled_windows();
        self.pending_chunks.retain(|r| r.patient != patient);
        self.stats.pending_windows -= discarded;
        self.stats.pending_rows -= discarded_rows;
        self.stats.discarded_windows += discarded as u64;
        self.stats.removed += 1;
        self.stats.patients = self.ids.len();
        Ok(RemovedPatient {
            stats: slot.session.stats(),
            alarms: slot.session.take_alarms(),
            discarded_windows: discarded,
        })
    }

    /// Restarts a patient's session in place — fresh ring, scheduler,
    /// stats and alarm state, pending windows discarded — the device
    /// reconnect / session rollover lifecycle. Returns what
    /// [`FleetScheduler::remove`] would have.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient.
    pub fn restart(&mut self, patient: PatientId) -> Result<RemovedPatient, CoreError> {
        let fresh = self.fresh_session()?;
        let Some(idx) = self.slot_index(patient) else {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is not admitted"
            )));
        };
        let slot = &mut self.slots[idx];
        let discarded_rows = slot.pending_rows;
        let discarded = slot.queue.len() + slot.session.assembled_windows();
        slot.queue.clear();
        slot.shed_cursor = 0;
        slot.pending_rows = 0;
        let mut old = std::mem::replace(&mut slot.session, fresh);
        self.pending_chunks.retain(|r| r.patient != patient);
        self.stats.pending_windows -= discarded;
        self.stats.pending_rows -= discarded_rows;
        self.stats.discarded_windows += discarded as u64;
        self.stats.restarted += 1;
        Ok(RemovedPatient {
            stats: old.stats(),
            alarms: old.take_alarms(),
            discarded_windows: discarded,
        })
    }

    /// Ingests one raw-sample chunk for `patient` and returns how many
    /// windows it completed. The samples are copied once, straight into
    /// the patient's assembling window; completed windows wait there
    /// until the next [`FleetScheduler::flush`] extracts them
    /// fleet-wide in 8-lane groups and replays them into the pending
    /// queues in fleet-wide ingest order.
    ///
    /// The call only copies and counts. It reads no wall clock, so it
    /// adds nothing to [`FleetStats::busy_ns`]: a clock pair would cost
    /// about a quarter of a 1-s chunk's ingest, and a 3-min window takes
    /// 180 such chunks. A serving clock ([`FleetConfig::tick`]) is read
    /// once per chunk that *completes* a window, to stamp its arrival
    /// for [`FleetStats::decision_latency`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient, or a
    /// patient already fed through [`FleetScheduler::ingest_row`] (the
    /// two ingest modes number windows independently and must not mix
    /// on one session).
    pub fn ingest(&mut self, patient: PatientId, chunk: &[f64]) -> Result<usize, CoreError> {
        let Some(idx) = self.slot_index(patient) else {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is not admitted"
            )));
        };
        let slot = &mut self.slots[idx];
        if slot.session.is_row_fed() {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is row-fed; cannot mix raw-sample ingestion \
                 (window numbering would fork)"
            )));
        }
        let completed = slot.session.assemble(chunk);
        if completed > 0 {
            self.pending_chunks.push(ChunkRecord {
                patient,
                windows: completed as u64,
                arrival_ns: self.clock.as_ref().map_or(0, FleetClock::now_ns),
            });
            self.stats.pending_windows += completed;
        }
        self.stats.ingests += 1;
        Ok(completed)
    }

    /// Ingests one **pre-extracted** feature row for `patient` (`None` =
    /// the device reported a dropped window) — the on-device-extraction
    /// topology; see [`StreamingSession::push_row`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient, a
    /// row that is not exactly [`ecg_features::N_FEATURES`] wide, or a
    /// patient already fed through [`FleetScheduler::ingest`] (the
    /// ingest modes must not mix on one session).
    pub fn ingest_row(&mut self, patient: PatientId, row: Option<&[f64]>) -> Result<(), CoreError> {
        // No per-call timer, as on the raw path (`ingest`): row
        // ingestion is a buffered copy, and two clock reads per row
        // would cost as much as the bookkeeping they measure. Busy time
        // is read once per flush instead (see `FleetStats::busy_ns`).
        // A *serving* clock (`FleetConfig::tick`) does stamp each row's
        // arrival — that single read is what decision-latency
        // histograms are made of, and a virtual clock reads for free.
        let Some(idx) = self.slot_index(patient) else {
            return Err(CoreError::InvalidConfig(format!(
                "patient {patient} is not admitted"
            )));
        };
        // `pend_row` rejects a sample-fed session and a malformed row.
        let pending = self.slots[idx].session.pend_row(row)?;
        let arrival_ns = self.clock.as_ref().map_or(0, FleetClock::now_ns);
        self.stats.pending_windows += 1;
        self.enqueue_at(idx, pending, arrival_ns);
        self.stats.ingests += 1;
        Ok(())
    }

    /// Decides every pending window across the fleet through the staged
    /// pipeline: (1) sessions with buffered raw samples run their
    /// extract stage shard-parallel on the flush executors, each into its
    /// own slot (their windows then replay into the pending queues in
    /// fleet-wide ingest order, under the overload policy); (2) every
    /// buffered feature row is gathered by reference into
    /// [`FLUSH_PANEL_ROWS`]-row panels and the panels fan out across
    /// the executors through [`svm::ClassifierEngine::decision_rows_into`];
    /// (3) decisions scatter back through each session's decide stage
    /// (stats, alarm state machine, pending-alarm buffer) in
    /// (patient asc, window) order. Windows without a row
    /// (extraction-dropped or shed) are decided as dropped. No stage
    /// reorders anything, so results are bit-identical at every worker
    /// count — and identical to solo streaming.
    pub fn flush(&mut self) -> FleetFlush {
        let mut out = FleetFlush::default();
        self.flush_into(&mut out);
        out
    }

    /// [`FleetScheduler::flush`] into a caller-owned buffer (cleared
    /// first), so steady-state serving loops reuse the decision/alarm
    /// allocations across flushes.
    pub fn flush_into(&mut self, out: &mut FleetFlush) {
        out.decisions.clear();
        out.alarms.clear();
        out.rows_classified = 0;
        out.extract_ns = 0;
        out.classify_ns = 0;
        let t0 = Instant::now();

        // Stage 1: sharded extraction + ordered replay.
        self.extract_stage();
        self.replay_stage();

        // Stage 2: gather every pending row in (patient asc, window)
        // order into panels; more than one executor fans the panels
        // out, one runs them inline. The parallel map is
        // order-preserving, so `values` is laid out exactly as the
        // serial loop would lay it out.
        self.values.clear();
        let panel_rows: Vec<&[f64]> = self
            .slots
            .iter()
            .flat_map(|slot| slot.queue.iter().filter_map(|e| e.window.row.as_deref()))
            // lint: allow(hot-alloc) — per-flush staging of borrowed row refs:
            // the borrows are tied to this flush's slot iteration so they
            // cannot live in persistent scratch; pointer-sized entries bounded
            // by the queue depth.
            .collect();
        let kt0 = Instant::now();
        if panel_rows.len() > FLUSH_PANEL_ROWS && self.executors > 1 {
            // lint: allow(hot-alloc) — same per-flush ref staging as above.
            let panels: Vec<&[&[f64]]> = panel_rows.chunks(FLUSH_PANEL_ROWS).collect();
            let engine = &self.engine;
            let panel_values = par_map_n(&panels, self.executors, |panel| {
                // lint: allow(hot-alloc) — per-executor output buffer; results
                // must be owned to cross the parallel boundary back to the
                // caller, so shared scratch cannot serve here.
                let mut v = Vec::with_capacity(panel.len());
                engine.decision_rows_into(panel, &mut v);
                v
            });
            for v in &panel_values {
                self.values.extend_from_slice(v);
            }
        } else {
            for panel in panel_rows.chunks(FLUSH_PANEL_ROWS) {
                self.engine.decision_rows_into(panel, &mut self.values);
            }
        }
        let kernel_ns = kt0.elapsed().as_nanos();
        drop(panel_rows);
        let rows_classified = self.values.len();
        debug_assert_eq!(rows_classified, self.stats.pending_rows);
        // Attribute the batch kernels' cost evenly across their rows so
        // per-window latency accounting survives batching.
        let classify_share_ns = if rows_classified == 0 {
            0
        } else {
            (kernel_ns / rows_classified as u128) as u64
        };

        // Stage 3: ordered route-back — decide every window in order,
        // batch values consumed in step with the gather order.
        out.rows_classified = rows_classified;
        // Under a serving clock, remember each decided window's arrival
        // stamp: `tick_into` turns them into decision latencies once the
        // tick's end time is known.
        let stamp = self.clock.is_some();
        self.tick_arrivals.clear();
        let mut next = 0usize;
        for (&patient, slot) in self.ids.iter().zip(self.slots.iter_mut()) {
            if slot.queue.is_empty() {
                continue;
            }
            for e in slot.queue.drain(..) {
                if stamp {
                    self.tick_arrivals.push(e.arrival_ns);
                }
                let (decision, share) = if e.window.row.is_some() {
                    let v = self.values[next];
                    next += 1;
                    (Some(v), classify_share_ns)
                } else {
                    (None, 0)
                };
                out.extract_ns += e.window.extract_ns as u128;
                out.classify_ns += share as u128;
                out.decisions.push(FleetDecision {
                    patient,
                    decision: slot.session.decide_window(&e.window, decision, share),
                });
                // Recycle the row allocation into the owning session's
                // pool, where both ingest modes draw from.
                if let Some(row) = e.window.row {
                    slot.session.recycle_row(row);
                }
            }
            slot.shed_cursor = 0;
            slot.pending_rows = 0;
            for alarm in slot.session.take_alarms() {
                out.alarms.push((patient, alarm));
            }
        }
        debug_assert_eq!(next, self.values.len());
        self.stats.pending_windows = 0;
        self.stats.pending_rows = 0;
        self.stats.flushes += 1;
        self.stats.rows_classified += rows_classified as u64;
        self.stats.windows_decided += out.decisions.len() as u64;
        self.stats.extract_ns += out.extract_ns;
        self.stats.classify_ns += out.classify_ns;
        self.stats.busy_ns += t0.elapsed().as_nanos();
    }

    /// The serving clock, or an error when the fleet is caller-driven.
    fn clock_required(&mut self) -> Result<&mut FleetClock, CoreError> {
        self.clock.as_mut().ok_or_else(|| {
            CoreError::InvalidConfig(
                "tick-driven serving needs FleetConfig::tick (a cadence and \
                 a wall or virtual clock source)"
                    .into(),
            )
        })
    }

    /// Current serving-clock reading (`None` when caller-driven).
    pub fn clock_now_ns(&self) -> Option<u64> {
        self.clock.as_ref().map(FleetClock::now_ns)
    }

    /// Nominal due time of the next tick (`None` when caller-driven).
    pub fn next_tick_ns(&self) -> Option<u64> {
        self.clock.as_ref().map(FleetClock::next_tick_ns)
    }

    /// Advances a **virtual** serving clock by `ns` — how simulations
    /// model inter-tick time passing (device arrivals land at distinct
    /// timestamps). A documented no-op on a wall clock, which advances
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the fleet has no
    /// serving clock.
    pub fn advance_clock(&mut self, ns: u64) -> Result<(), CoreError> {
        self.clock_required()?.advance(ns);
        Ok(())
    }

    /// One serving tick: exactly one [`FleetScheduler::flush_into`]
    /// (`out` is cleared first and reused across ticks) wrapped in the
    /// serving clock's deadline accounting. The tick starts at
    /// `max(now, scheduled)`, performs the flush (identical decisions
    /// to a caller-driven flush — the clock never reorders work), and
    /// ends measured (wall) or modeled (virtual, `rows × ns_per_row`).
    /// Deadline verdicts land in [`FleetStats`]
    /// (`ticks`/`deadlines_met`/`deadlines_missed`/`worst_overrun_ns`,
    /// plus the [`FleetStats::tick_work`] histogram), and each decided
    /// window's arrival→decision time lands in
    /// [`FleetStats::decision_latency`]. Never sleeps — pacing belongs
    /// to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the fleet has no
    /// serving clock ([`FleetConfig::tick`] is `None`).
    pub fn tick_into(&mut self, out: &mut FleetFlush) -> Result<TickOutcome, CoreError> {
        let timing = self.clock_required()?.begin_tick();
        self.flush_into(out);
        let rows = out.rows_classified as u64;
        let outcome = self.clock_required()?.end_tick(&timing, rows);
        self.stats.ticks += 1;
        if outcome.met {
            self.stats.deadlines_met += 1;
        } else {
            self.stats.deadlines_missed += 1;
            let overrun = outcome.slack_ns.unsigned_abs();
            self.stats.worst_overrun_ns = self.stats.worst_overrun_ns.max(overrun);
        }
        self.stats.tick_work.record(outcome.work_ns);
        // Decision latency = arrival at the fleet → end of the deciding
        // tick. Arrival stamps were stashed by the flush's route-back;
        // windows that arrived with no clock reading (stamp 0 before
        // the clock's epoch is impossible — stamps come from this
        // clock) saturate harmlessly.
        for &arrival in &self.tick_arrivals {
            self.stats
                .decision_latency
                .record(outcome.end_ns.saturating_sub(arrival));
        }
        self.tick_arrivals.clear();
        Ok(outcome)
    }

    /// Flush stage 1a: fleet-wide lane-batched extraction. Every window
    /// assembled since the last flush, whichever patient it belongs to,
    /// is dealt into lane groups of up to [`LANE_GROUP`] in
    /// (patient asc, window) order; executors claim whole groups and run
    /// them through the SoA lane kernels, reading each window in place.
    /// Groups shrink below 8 only when there are too few windows to give
    /// every executor one. The extracted windows stage on their slots for
    /// the ordered replay. A window's row depends on its samples alone,
    /// so neither the grouping nor the claim order can change a result.
    fn extract_stage(&mut self) {
        let mut jobs = std::mem::take(&mut self.extract_jobs);
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            slot.session.drain_assembled(idx, &mut jobs);
        }
        if !jobs.is_empty() {
            let group_len = jobs.len().div_ceil(self.executors).clamp(1, LANE_GROUP);
            // lint: allow(hot-alloc) — per-flush staging of borrowed group
            // slices (pointer-sized entries, one per lane group): the borrows
            // are tied to this flush's work list.
            let mut groups: Vec<&mut [ExtractJob]> = jobs.chunks_mut(group_len).collect();
            let extractor = &self.extractor;
            par_map_with(&mut self.batch_scratch, &mut groups, |scratch, group| {
                extract_group(extractor, scratch, group)
            });
        }
        for job in jobs.drain(..) {
            let slot = &mut self.slots[job.owner];
            let window = slot.session.finish_extracted(job);
            slot.staged.push(window);
        }
        self.extract_jobs = jobs;
    }

    /// Flush stage 1b: replays the staged windows into the pending
    /// queues in fleet-wide ingest order (the chunk records), applying
    /// the overload policy exactly as per-ingest extraction would have.
    fn replay_stage(&mut self) {
        if self.pending_chunks.is_empty() {
            return;
        }
        let records = std::mem::take(&mut self.pending_chunks);
        for rec in &records {
            let idx = self
                .slot_index(rec.patient)
                // lint: allow(hot-panic) — invariant: `pending_chunks` records
                // are purged in `remove_patient`, so a live record always has
                // a slot.
                .expect("chunk records are dropped with their patient");
            for _ in 0..rec.windows {
                let w = self.slots[idx].take_staged();
                self.enqueue_at(idx, w, rec.arrival_ns);
            }
        }
        // Keep the records allocation for the next ingest burst.
        self.pending_chunks = records;
        self.pending_chunks.clear();
        for slot in &mut self.slots {
            debug_assert_eq!(
                slot.staged_next,
                slot.staged.len(),
                "every staged window replayed"
            );
            slot.staged.clear();
            slot.staged_next = 0;
        }
    }

    /// Merged per-session accounting across the currently admitted
    /// sessions (sessions already removed are not included — collect
    /// their stats from [`RemovedPatient`]). `samples_in` counts samples at
    /// ingest, before their windows are extracted at the next flush.
    /// Remember the merged `windows_per_sec`
    /// is serial-equivalent, not wall-clock — see
    /// [`StreamStats::windows_per_sec`] and
    /// [`FleetStats::wall_windows_per_sec`].
    pub fn stream_stats(&self) -> StreamStats {
        let mut merged = StreamStats::default();
        for slot in &self.slots {
            merged.merge(&slot.session.stats());
        }
        merged
    }

    /// One admitted patient's session stats (same settling caveat as
    /// [`FleetScheduler::stream_stats`]).
    pub fn patient_stats(&self, patient: PatientId) -> Option<StreamStats> {
        self.slot_index(patient)
            .map(|i| self.slots[i].session.stats())
    }

    /// Pooled event metrics (event sensitivity, FA/24h, detection
    /// latency) of the patients in `truth`, scoring each patient's
    /// `alarms` — collected by the caller from [`FleetFlush::alarms`] —
    /// against their ground-truth seizures. A patient missing from
    /// `alarms` raised none. A patient's monitored time is their
    /// session's ingested samples or, on the row-ingest path where no
    /// samples pass through the server, the span their decided windows
    /// cover (`(windows − 1) · stride + window_len` samples), whichever
    /// is larger, over the sampling rate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `truth` names a patient
    /// who is not admitted.
    pub fn event_metrics(
        &self,
        alarms: &BTreeMap<PatientId, Vec<AlarmEvent>>,
        truth: &BTreeMap<PatientId, Vec<TruthEvent>>,
    ) -> Result<EventMetrics, CoreError> {
        let StreamConfig {
            fs,
            window_len,
            stride,
        } = self.cfg.stream;
        let scoring = EventScoring::for_windows(fs, window_len);
        let mut pooled = EventMetrics::default();
        for (patient, events) in truth {
            let Some(stats) = self.patient_stats(*patient) else {
                return Err(CoreError::InvalidConfig(format!(
                    "ground truth supplied for patient {patient}, who is not admitted"
                )));
            };
            let window_span = match stats.windows {
                0 => 0,
                w => (w - 1) * stride as u64 + window_len as u64,
            };
            let monitored_s = stats.samples_in.max(window_span) as f64 / fs;
            let raised = alarms.get(patient).map_or(&[][..], Vec::as_slice);
            pooled.merge(&score_events(raised, events, monitored_s, &scoring));
        }
        Ok(pooled)
    }

    fn fresh_session(&self) -> Result<StreamingSession, CoreError> {
        match self.cfg.alarms {
            Some(a) => StreamingSession::with_alarms(Arc::clone(&self.engine), self.cfg.stream, a),
            None => StreamingSession::new(Arc::clone(&self.engine), self.cfg.stream),
        }
    }

    /// Applies the overload policy and queues one extracted window for
    /// the slot at `idx`. The caller has already counted the window in
    /// `pending_windows` (at ingest time — rows directly, raw windows by
    /// geometry).
    fn enqueue_at(&mut self, idx: usize, mut w: PendingWindow, arrival_ns: u64) {
        // Row freed by the overload policy, recycled into the owning
        // session's pool below so sustained overload stays
        // allocation-free.
        let mut recycled: Option<Vec<f64>> = None;
        if w.row.is_some() {
            let at_cap = self.stats.pending_rows >= self.cfg.max_pending_rows;
            match self.cfg.overload {
                OverloadPolicy::Reject if at_cap => {
                    // Shed the newcomer: it queues as a dropped
                    // window so per-session order stays intact.
                    recycled = w.row.take();
                    self.stats.shed_windows += 1;
                }
                // Watermark admits unconditionally; the gate sheds
                // *after* the newcomer queues (below), so it is a
                // candidate like every other pending row.
                OverloadPolicy::Reject | OverloadPolicy::Watermark(_) => {
                    self.stats.pending_rows += 1;
                }
            }
        }
        let slot = &mut self.slots[idx];
        if let Some(row) = recycled {
            slot.session.recycle_row(row);
        }
        if w.row.is_some() {
            slot.pending_rows += 1;
        }
        slot.queue.push_back(QueuedWindow {
            window: w,
            arrival_ns,
        });
        // Watermark gate: crossing the high watermark sheds down to the
        // low watermark in one fair round-robin pass (the hysteresis
        // band keeps shedding bursty once saturated).
        if let OverloadPolicy::Watermark(wm) = self.cfg.overload {
            if self.stats.pending_rows > wm.high {
                self.shed_to_low(wm.low);
            }
        }
    }

    /// Sheds the oldest pending row of the slot at `idx` (the watermark
    /// gate's victim): the window stays queued, rowless, and will be
    /// decided as dropped; the row allocation returns to the session's
    /// pool. The per-slot cursor skips the already-shed rowless prefix,
    /// so a sustained overload burst sheds in O(1) per window instead of
    /// re-scanning the queue front every time. No-op on a slot with no
    /// pending rows.
    fn shed_row_at(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some((offset, entry)) = slot
            .queue
            .iter_mut()
            .skip(slot.shed_cursor)
            .enumerate()
            .find(|(_, e)| e.window.row.is_some())
        else {
            debug_assert_eq!(slot.pending_rows, 0, "victims are picked by pending_rows");
            return;
        };
        // lint: allow(hot-panic) — `find` matched on `row.is_some()` above.
        let row = entry.window.row.take().expect("found by row.is_some()");
        slot.shed_cursor += offset + 1;
        slot.pending_rows -= 1;
        slot.session.recycle_row(row);
        self.stats.pending_rows -= 1;
        self.stats.shed_windows += 1;
    }

    /// The watermark gate's shed pass: sheds pending rows down to `low`,
    /// one victim at a time, each victim the next patient (round-robin
    /// from `fair_cursor`) holding **more than its fair share**
    /// (`⌈pending / patients-with-rows⌉`). When every patient is at or
    /// under fair share — an exactly even spread — the rotation falls
    /// back to any patient with rows, so shedding stays strictly
    /// round-robin and no patient is ever starved to protect another.
    fn shed_to_low(&mut self, low: usize) {
        while self.stats.pending_rows > low {
            let active = self.slots.iter().filter(|s| s.pending_rows > 0).count();
            if active == 0 {
                return;
            }
            let fair = self.stats.pending_rows.div_ceil(active);
            let n = self.slots.len();
            let scan = |threshold: usize, from: usize| -> Option<usize> {
                (0..n)
                    .map(|step| (from + step) % n)
                    .find(|&i| self.slots[i].pending_rows > threshold)
            };
            let Some(victim) = scan(fair, self.fair_cursor).or_else(|| scan(0, self.fair_cursor))
            else {
                return;
            };
            self.fair_cursor = (victim + 1) % n;
            self.shed_row_at(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarm::DroppedPolicy;
    use ecg_features::N_FEATURES;
    use svm::{ClassifierEngine, EngineInfo};

    /// Toy backend: decision = Σ row — deterministic, no training.
    struct SumEngine;

    impl ClassifierEngine for SumEngine {
        fn decision(&self, row: &[f64]) -> f64 {
            row.iter().sum()
        }
        fn n_features(&self) -> usize {
            N_FEATURES
        }
        fn info(&self) -> EngineInfo {
            EngineInfo {
                kind: "sum-test",
                n_support_vectors: 1,
                n_features: N_FEATURES,
                d_bits: None,
                a_bits: None,
            }
        }
    }

    fn engine() -> SharedEngine {
        Arc::new(SumEngine)
    }

    fn cfg() -> FleetConfig {
        FleetConfig::unbounded(StreamConfig::non_overlapping(128.0, 30.0).unwrap())
    }

    /// A row whose SumEngine decision equals `v`.
    fn row(v: f64) -> Vec<f64> {
        let mut r = vec![0.0; N_FEATURES];
        r[0] = v;
        r
    }

    #[test]
    fn config_and_lifecycle_validation() {
        assert!(FleetConfig {
            max_pending_rows: 0,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            alarms: Some(AlarmConfig::k_of_n(5, 2)),
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            workers: Some(0),
            ..cfg()
        }
        .validate()
        .is_err());
        // Watermark bands must satisfy low < high <= max_pending_rows.
        for (low, high, max) in [(4, 4, 8), (5, 4, 8), (2, 9, 8)] {
            assert!(
                FleetConfig {
                    max_pending_rows: max,
                    overload: OverloadPolicy::Watermark(Watermarks { low, high }),
                    ..cfg()
                }
                .validate()
                .is_err(),
                "low {low} high {high} max {max}"
            );
        }
        assert!(FleetConfig {
            max_pending_rows: 8,
            overload: OverloadPolicy::Watermark(Watermarks { low: 2, high: 8 }),
            ..cfg()
        }
        .validate()
        .is_ok());
        // Tick cadence must be positive.
        assert!(FleetConfig {
            tick: Some(TickConfig::wall(0)),
            ..cfg()
        }
        .validate()
        .is_err());
        // A caller-driven fleet cannot tick.
        let mut untick = FleetScheduler::new(engine(), cfg()).unwrap();
        assert!(untick.tick_into(&mut FleetFlush::default()).is_err());
        assert!(untick.advance_clock(1).is_err());
        assert_eq!(untick.clock_now_ns(), None);
        assert_eq!(untick.next_tick_ns(), None);
        let bad_stream = FleetConfig::unbounded(StreamConfig {
            fs: 0.0,
            window_len: 10,
            stride: 10,
        });
        assert!(FleetScheduler::new(engine(), bad_stream).is_err());

        let mut fleet = FleetScheduler::new(engine(), cfg()).unwrap();
        assert!(fleet.is_empty());
        fleet.admit(3).unwrap();
        assert!(fleet.admit(3).is_err(), "duplicate admit");
        assert!(fleet.ingest(99, &[0.0; 16]).is_err(), "unknown patient");
        assert!(fleet.ingest_row(99, None).is_err());
        assert!(fleet.remove(99).is_err());
        assert!(fleet.restart(99).is_err());
        assert!(fleet.contains(3) && !fleet.contains(99));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.patients().collect::<Vec<_>>(), vec![3]);
        // Row width is validated.
        assert!(fleet.ingest_row(3, Some(&[1.0; 3])).is_err());
        let stats = fleet.stats();
        assert_eq!((stats.patients, stats.admitted), (1, 1));
    }

    #[test]
    fn worker_counts_resolve_and_cannot_change_results() {
        // The same workload at every executor configuration, including
        // enough rows for multiple panels, must produce identical
        // flushes.
        let run = |workers: Option<usize>| {
            let mut fleet =
                FleetScheduler::new(engine(), FleetConfig { workers, ..cfg() }).unwrap();
            for p in 0..3 {
                fleet.admit(p).unwrap();
            }
            for i in 0..(2 * FLUSH_PANEL_ROWS + 17) {
                let p = (i % 3) as PatientId;
                if i % 7 == 3 {
                    fleet.ingest_row(p, None).unwrap();
                } else {
                    fleet.ingest_row(p, Some(&row(i as f64 - 200.0))).unwrap();
                }
            }
            fleet.flush()
        };
        // Latency fields are wall-clock and differ run to run; the
        // decision payload must not.
        let payload = |flush: &FleetFlush| -> Vec<(PatientId, u64, u64, Option<f64>, bool)> {
            flush
                .decisions
                .iter()
                .map(|d| {
                    (
                        d.patient,
                        d.decision.window_index,
                        d.decision.start_sample,
                        d.decision.decision,
                        d.decision.is_seizure,
                    )
                })
                .collect()
        };
        let serial = run(Some(1));
        assert_eq!(serial.rows_classified, 2 * FLUSH_PANEL_ROWS + 17 - 76);
        for workers in [Some(2), Some(4), None] {
            let other = run(workers);
            assert_eq!(payload(&serial), payload(&other), "workers {workers:?}");
            assert_eq!(serial.alarms, other.alarms);
        }
        // The executor count resolves as configured.
        let f1 = FleetScheduler::new(
            engine(),
            FleetConfig {
                workers: Some(1),
                ..cfg()
            },
        )
        .unwrap();
        assert_eq!(f1.flush_executors(), 1);
        let f3 = FleetScheduler::new(
            engine(),
            FleetConfig {
                workers: Some(3),
                ..cfg()
            },
        )
        .unwrap();
        assert_eq!(f3.flush_executors(), 3);
        let fd = FleetScheduler::new(engine(), cfg()).unwrap();
        assert!(fd.flush_executors() >= 1);
    }

    #[test]
    fn raw_ingest_assembles_at_ingest_and_extracts_at_flush() {
        // Every executor set behaves alike: samples count the moment
        // they are ingested (they are copied into the assembling window),
        // while extraction waits for the flush, where windows of every
        // patient meet in lane groups.
        for workers in [Some(1), Some(2)] {
            let mut fleet =
                FleetScheduler::new(engine(), FleetConfig { workers, ..cfg() }).unwrap();
            fleet.admit(1).unwrap();
            // A full flat window completes at ingest time…
            assert_eq!(fleet.ingest(1, &[0.0; 3840]).unwrap(), 1);
            assert_eq!(fleet.stats().pending_windows, 1);
            assert_eq!(fleet.patient_stats(1).unwrap().samples_in, 3840);
            // …but it is not extracted yet: no row is buffered.
            assert_eq!(fleet.stats().pending_rows, 0);
            // Partial chunks complete nothing but still count their samples.
            assert_eq!(fleet.ingest(1, &[0.0; 100]).unwrap(), 0);
            assert_eq!(fleet.patient_stats(1).unwrap().samples_in, 3940);
            // The flush extracts and decides the window (dropped — a flat
            // line has no beats).
            let flush = fleet.flush();
            assert_eq!(flush.decisions.len(), 1, "workers {workers:?}");
            assert_eq!(flush.decisions[0].decision.decision, None);
            assert_eq!(fleet.stats().pending_windows, 0);
            // Removal discards a completed but unextracted window, and the
            // departing stats count every sample.
            assert_eq!(fleet.ingest(1, &[0.0; 4000]).unwrap(), 1);
            let removed = fleet.remove(1).unwrap();
            assert_eq!(removed.stats.samples_in, 3940 + 4000);
            assert_eq!(removed.stats.windows, 1);
            assert_eq!(removed.discarded_windows, 1);
            assert_eq!(fleet.stats().discarded_windows, 1);
            assert_eq!(fleet.stats().pending_windows, 0);
        }
    }

    #[test]
    fn raw_ingest_is_untimed_and_busy_time_is_flush_time() {
        // `ingest` reads no clock: chunks only copy and count, whether or
        // not they complete a window. Busy time starts with the flush.
        let mut fleet = FleetScheduler::new(engine(), cfg()).unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        for _ in 0..3 {
            assert_eq!(fleet.ingest(1, &[0.0; 1000]).unwrap(), 0);
            assert_eq!(fleet.ingest(2, &[0.0; 500]).unwrap(), 0);
        }
        assert_eq!(fleet.stats().busy_ns, 0);
        assert_eq!(fleet.stats().ingests, 6);
        assert_eq!(fleet.stream_stats().samples_in, 4500);
        // A chunk that completes a window is untimed as well.
        assert_eq!(fleet.ingest(1, &[0.0; 840]).unwrap(), 1);
        assert_eq!(fleet.stats().busy_ns, 0);
        // The flush that extracts and decides it is timed.
        assert_eq!(fleet.flush().decisions.len(), 1);
        let stats = fleet.stats();
        assert!(stats.busy_ns > 0);
        assert_eq!(stats.windows_decided, 1);
    }

    #[test]
    fn ingest_modes_cannot_mix_per_patient() {
        let mut fleet = FleetScheduler::new(engine(), cfg()).unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        // Patient 1 is sample-fed: rows are rejected.
        fleet.ingest(1, &[0.0; 64]).unwrap();
        assert!(matches!(
            fleet.ingest_row(1, Some(&row(1.0))),
            Err(CoreError::InvalidConfig(_))
        ));
        // Patient 2 is row-fed: raw samples are rejected (with an
        // error, not the session's panic).
        fleet.ingest_row(2, Some(&row(2.0))).unwrap();
        assert!(matches!(
            fleet.ingest(2, &[0.0; 64]),
            Err(CoreError::InvalidConfig(_))
        ));
        // Each patient keeps working in its own mode.
        fleet.ingest(1, &[0.0; 64]).unwrap();
        fleet.ingest_row(2, Some(&row(3.0))).unwrap();
        let flush = fleet.flush();
        assert_eq!(flush.rows_classified, 2);
        // The sample-fed guard persists across the flush (the session
        // keeps its sample history).
        assert!(fleet.ingest_row(1, Some(&row(4.0))).is_err());
        // …until a restart wipes the mode.
        fleet.restart(1).unwrap();
        fleet.ingest_row(1, Some(&row(5.0))).unwrap();
    }

    #[test]
    fn flush_batches_across_patients_in_id_order() {
        let mut fleet = FleetScheduler::new(engine(), cfg()).unwrap();
        for p in [9, 2, 5] {
            fleet.admit(p).unwrap();
        }
        // Arbitrary interleaving: rows arrive out of patient order.
        fleet.ingest_row(9, Some(&row(90.0))).unwrap();
        fleet.ingest_row(2, Some(&row(20.0))).unwrap();
        fleet.ingest_row(5, None).unwrap(); // device-side drop
        fleet.ingest_row(2, Some(&row(21.0))).unwrap();
        fleet.ingest_row(5, Some(&row(50.0))).unwrap();
        assert_eq!(fleet.stats().pending_windows, 5);
        assert_eq!(fleet.stats().pending_rows, 4);

        let flush = fleet.flush();
        assert_eq!(flush.rows_classified, 4);
        let got: Vec<(PatientId, u64, Option<f64>)> = flush
            .decisions
            .iter()
            .map(|d| (d.patient, d.decision.window_index, d.decision.decision))
            .collect();
        // Ascending patient id, window order within a patient, dropped
        // windows decided as None in place.
        assert_eq!(
            got,
            vec![
                (2, 0, Some(20.0)),
                (2, 1, Some(21.0)),
                (5, 0, None),
                (5, 1, Some(50.0)),
                (9, 0, Some(90.0)),
            ]
        );
        // Window geometry: stride-spaced start samples.
        assert_eq!(flush.decisions[1].decision.start_sample, 3840);
        // Stats settled.
        let stats = fleet.stats();
        assert_eq!(stats.pending_windows, 0);
        assert_eq!(stats.pending_rows, 0);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.rows_classified, 4);
        assert_eq!(stats.windows_decided, 5);
        assert!(stats.wall_windows_per_sec() > 0.0);
        // Per-session accounting flowed through the decide stage.
        let p5 = fleet.patient_stats(5).unwrap();
        assert_eq!((p5.windows, p5.dropped), (2, 1));
        let merged = fleet.stream_stats();
        assert_eq!((merged.windows, merged.dropped), (5, 1));
        // An empty flush is a no-op that still counts.
        let empty = fleet.flush();
        assert!(empty.decisions.is_empty() && empty.rows_classified == 0);
        assert_eq!(fleet.stats().flushes, 2);
    }

    #[test]
    fn flush_into_reuses_the_output_buffers() {
        let mut fleet = FleetScheduler::new(engine(), cfg()).unwrap();
        fleet.admit(1).unwrap();
        let mut out = FleetFlush::default();
        for round in 0..3 {
            fleet.ingest_row(1, Some(&row(f64::from(round)))).unwrap();
            fleet.flush_into(&mut out);
            assert_eq!(out.decisions.len(), 1, "cleared between flushes");
            assert_eq!(out.rows_classified, 1);
            assert_eq!(out.decisions[0].decision.decision, Some(f64::from(round)));
        }
    }

    #[test]
    fn reject_policy_sheds_the_newest_window() {
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                max_pending_rows: 2,
                overload: OverloadPolicy::Reject,
                ..cfg()
            },
        )
        .unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        fleet.ingest_row(1, Some(&row(10.0))).unwrap();
        fleet.ingest_row(2, Some(&row(20.0))).unwrap();
        fleet.ingest_row(2, Some(&row(21.0))).unwrap(); // over capacity
        assert_eq!(fleet.stats().shed_windows, 1);
        assert_eq!(fleet.stats().pending_rows, 2);
        assert_eq!(fleet.stats().pending_windows, 3);
        let flush = fleet.flush();
        assert_eq!(flush.rows_classified, 2);
        let got: Vec<(PatientId, Option<f64>)> = flush
            .decisions
            .iter()
            .map(|d| (d.patient, d.decision.decision))
            .collect();
        // The newcomer (patient 2's second window) was shed; the
        // established rows survived, and the shed window is still
        // decided — as dropped, in order.
        assert_eq!(got, vec![(1, Some(10.0)), (2, Some(20.0)), (2, None)],);
    }

    #[test]
    fn sustained_watermark_burst_sheds_front_to_back() {
        // One patient under a low = 1 / high = 2 gate: every third row
        // trips the gate, which sheds the two oldest pending rows. The
        // shed cursor marches through the growing rowless prefix (each
        // pass resumes where the last one stopped), and only the newest
        // row survives to the flush. A second burst after the flush
        // starts shedding from the front again (cursor reset).
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                max_pending_rows: 2,
                overload: OverloadPolicy::Watermark(Watermarks { low: 1, high: 2 }),
                ..cfg()
            },
        )
        .unwrap();
        fleet.admit(1).unwrap();
        let mut cursors = Vec::new();
        for v in 0..5 {
            fleet.ingest_row(1, Some(&row(f64::from(v)))).unwrap();
            cursors.push(fleet.slots[0].shed_cursor);
        }
        assert_eq!(cursors, vec![0, 0, 2, 2, 4]);
        assert_eq!(fleet.stats().shed_windows, 4);
        assert_eq!(fleet.stats().pending_rows, 1);
        let got: Vec<Option<f64>> = fleet
            .flush()
            .decisions
            .iter()
            .map(|d| d.decision.decision)
            .collect();
        assert_eq!(got, vec![None, None, None, None, Some(4.0)]);
        assert_eq!(fleet.slots[0].shed_cursor, 0, "flush resets the cursor");
        for v in 5..8 {
            fleet.ingest_row(1, Some(&row(f64::from(v)))).unwrap();
        }
        assert_eq!(fleet.slots[0].shed_cursor, 2);
        let got: Vec<Option<f64>> = fleet
            .flush()
            .decisions
            .iter()
            .map(|d| d.decision.decision)
            .collect();
        assert_eq!(got, vec![None, None, Some(7.0)]);
        assert_eq!(fleet.stats().shed_windows, 6);
    }

    /// [`SumEngine`] that logs every row its batch kernel classifies
    /// (by the row's first feature, which the tests use as a tag).
    #[derive(Default)]
    struct LoggingEngine {
        seen: std::sync::Mutex<Vec<f64>>,
    }

    impl ClassifierEngine for LoggingEngine {
        fn decision(&self, row: &[f64]) -> f64 {
            SumEngine.decision(row)
        }
        fn decision_rows_into(&self, rows: &[&[f64]], out: &mut Vec<f64>) {
            self.seen.lock().unwrap().extend(rows.iter().map(|r| r[0]));
            out.extend(rows.iter().map(|r| self.decision(r)));
        }
        fn n_features(&self) -> usize {
            N_FEATURES
        }
        fn info(&self) -> EngineInfo {
            SumEngine.info()
        }
    }

    #[test]
    fn serial_fleet_never_classifies_a_shed_row() {
        // A serial executor set behind a watermark gate, offered more
        // than one panel of rows between flushes: the gate sheds before
        // any kernel runs, so the engine sees exactly the surviving rows,
        // in route-back order, and nothing else.
        let logger = Arc::new(LoggingEngine::default());
        let mut fleet = FleetScheduler::new(
            Arc::clone(&logger) as SharedEngine,
            FleetConfig {
                max_pending_rows: 400,
                overload: OverloadPolicy::Watermark(Watermarks {
                    low: 100,
                    high: 300,
                }),
                workers: Some(1),
                ..cfg()
            },
        )
        .unwrap();
        for p in 0..3 {
            fleet.admit(p).unwrap();
        }
        let offered = 2 * FLUSH_PANEL_ROWS + 40;
        for i in 0..offered {
            let p = if i % 4 == 0 {
                0
            } else {
                1 + (i % 2) as PatientId
            };
            fleet.ingest_row(p, Some(&row(i as f64 + 1.0))).unwrap();
        }
        assert!(
            logger.seen.lock().unwrap().is_empty(),
            "ingest classifies nothing"
        );
        let flush = fleet.flush();
        let survivors: Vec<f64> = flush
            .decisions
            .iter()
            .filter_map(|d| d.decision.decision)
            .collect();
        let shed = fleet.stats().shed_windows as usize;
        assert!(shed > FLUSH_PANEL_ROWS, "the gate shed more than a panel");
        assert_eq!(survivors.len() + shed, offered);
        assert_eq!(flush.rows_classified, survivors.len());
        assert_eq!(*logger.seen.lock().unwrap(), survivors);
    }

    #[test]
    fn non_finite_rows_are_rejected_before_they_queue() {
        // Both paper engines (float pipeline and quantised) and the toy
        // engine: a NaN or ±inf feature is an error naming the feature,
        // and the row never reaches the queue, the stats or the window
        // numbering.
        let m = crate::quickfeat::synthetic_matrix(&Default::default());
        let float = crate::trained::FloatPipeline::fit(&m, &Default::default()).unwrap();
        let quant = crate::engine::QuantizedEngine::from_pipeline(
            &float,
            crate::engine::BitConfig::paper_choice(),
        )
        .unwrap();
        let engines: [SharedEngine; 3] = [engine(), Arc::new(float), Arc::new(quant)];
        for e in engines {
            let mut fleet = FleetScheduler::new(Arc::clone(&e), cfg()).unwrap();
            fleet.admit(1).unwrap();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut r = row(1.0);
                r[17] = bad;
                let Err(CoreError::InvalidConfig(msg)) = fleet.ingest_row(1, Some(&r)) else {
                    panic!("non-finite row accepted by {}", e.info().kind);
                };
                assert!(msg.contains("feature 17"), "{msg}");
            }
            let stats = fleet.stats();
            assert_eq!(
                (stats.ingests, stats.pending_windows, stats.pending_rows),
                (0, 0, 0)
            );
            let good = m.features.row(0).to_vec();
            fleet.ingest_row(1, Some(&good)).unwrap();
            let flush = fleet.flush();
            assert_eq!(flush.decisions.len(), 1);
            assert_eq!(flush.decisions[0].decision.window_index, 0);
            assert_eq!(
                flush.decisions[0].decision.decision,
                Some(e.decision(&good))
            );
        }
    }

    #[test]
    fn watermark_gate_sheds_to_low_with_per_patient_fairness() {
        // 3 patients, high = 6, low = 3. Patient 1 floods (6 rows),
        // patients 2 and 3 each queue one row. Crossing high must shed
        // down to low by taking from the flooder — the fair share is
        // ⌈7/3⌉ = 3, so only patient 1 (6 > 3) is above it — and never
        // from the patients at one row each.
        let wm = OverloadPolicy::Watermark(Watermarks { low: 3, high: 6 });
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                max_pending_rows: 64,
                overload: wm,
                ..cfg()
            },
        )
        .unwrap();
        for p in 1..=3 {
            fleet.admit(p).unwrap();
        }
        for v in 0..5 {
            fleet.ingest_row(1, Some(&row(f64::from(v)))).unwrap();
        }
        fleet.ingest_row(2, Some(&row(20.0))).unwrap();
        assert_eq!(fleet.stats().shed_windows, 0, "at high, not over it");
        fleet.ingest_row(1, Some(&row(5.0))).unwrap(); // 7 rows: gate trips
        let stats = fleet.stats();
        assert_eq!(stats.pending_rows, 3, "shed down to low");
        assert_eq!(stats.shed_windows, 4);
        fleet.ingest_row(3, Some(&row(30.0))).unwrap(); // back under high: admitted freely
        assert_eq!(fleet.stats().shed_windows, 4);
        let got: Vec<(PatientId, Option<f64>)> = fleet
            .flush()
            .decisions
            .iter()
            .map(|d| (d.patient, d.decision.decision))
            .collect();
        // All four shed windows are patient 1's oldest; patients 2 and 3
        // kept their single rows (they were never above fair share).
        assert_eq!(
            got,
            vec![
                (1, None),
                (1, None),
                (1, None),
                (1, None),
                (1, Some(4.0)),
                (1, Some(5.0)),
                (2, Some(20.0)),
                (3, Some(30.0)),
            ],
        );
    }

    #[test]
    fn watermark_fairness_rotates_when_everyone_is_at_fair_share() {
        // An exactly even spread over the low..=high band: the shed
        // pass falls back to strict round-robin, so the pain spreads
        // one row per patient instead of emptying whoever sorts first.
        let wm = OverloadPolicy::Watermark(Watermarks { low: 6, high: 8 });
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                max_pending_rows: 64,
                overload: wm,
                ..cfg()
            },
        )
        .unwrap();
        for p in 1..=3 {
            fleet.admit(p).unwrap();
        }
        // 3 rows each, round-robin: 9 rows > high = 8 trips the gate at
        // the last admit; fair share is ⌈9/3⌉ = 3 with nobody above it,
        // so the fallback rotation sheds 9 − 6 = 3 rows, one per
        // patient.
        for v in 0..3 {
            for p in 1..=3 {
                fleet
                    .ingest_row(p, Some(&row(f64::from(v) + 10.0 * p as f64)))
                    .unwrap();
            }
        }
        let stats = fleet.stats();
        assert_eq!(stats.pending_rows, 6);
        assert_eq!(stats.shed_windows, 3);
        let rows_kept: Vec<PatientId> = fleet
            .flush()
            .decisions
            .iter()
            .filter(|d| d.decision.decision.is_some())
            .map(|d| d.patient)
            .collect();
        // Every patient lost exactly one row — nobody was emptied.
        for p in 1..=3 {
            assert_eq!(
                rows_kept.iter().filter(|&&q| q == p).count(),
                2,
                "patient {p} keeps 2 of 3 rows"
            );
        }
    }

    #[test]
    fn tick_is_one_flush_with_deadline_accounting() {
        // Virtual clock: 1000 ns cadence, 10 ns per row — everything
        // below is exact arithmetic, reproducible run to run.
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                tick: Some(TickConfig::deterministic(1_000, 10)),
                ..cfg()
            },
        )
        .unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        // Two rows arrive at t = 0; the first tick runs at its schedule
        // (t = 1000), classifies both (20 ns of modeled work) and meets
        // its deadline.
        fleet.ingest_row(1, Some(&row(1.0))).unwrap();
        fleet.ingest_row(2, Some(&row(2.0))).unwrap();
        let mut flush = FleetFlush::default();
        let o = fleet.tick_into(&mut flush).unwrap();
        assert_eq!(flush.decisions.len(), 2);
        assert_eq!(flush.rows_classified, 2);
        assert_eq!((o.start_ns, o.end_ns, o.work_ns), (1_000, 1_020, 20));
        assert!(o.met);
        let stats = fleet.stats();
        assert_eq!(
            (stats.ticks, stats.deadlines_met, stats.deadlines_missed),
            (1, 1, 0)
        );
        assert_eq!(stats.worst_overrun_ns, 0);
        // Decision latency = arrival (t = 0) → tick end (t = 1020),
        // for both windows, exactly.
        assert_eq!(stats.decision_latency.count(), 2);
        assert_eq!(stats.decision_latency.min_ns(), 1_020);
        assert_eq!(stats.decision_latency.max_ns(), 1_020);
        assert_eq!(stats.tick_work.max_ns(), 20);
        // An overloaded tick (200 rows × 10 ns = 2000 ns > cadence)
        // misses its deadline and records the overrun.
        for i in 0..200 {
            fleet.ingest_row(1, Some(&row(f64::from(i)))).unwrap();
        }
        let o = fleet.tick_into(&mut flush).unwrap();
        assert!(!o.met);
        assert!(o.slack_ns < 0);
        let stats = fleet.stats();
        assert_eq!((stats.ticks, stats.deadlines_missed), (2, 1));
        assert_eq!(stats.worst_overrun_ns, o.slack_ns.unsigned_abs());
        // An idle tick decides nothing and is a zero-work deadline met.
        let o = fleet.tick_into(&mut flush).unwrap();
        assert!(flush.decisions.is_empty());
        assert_eq!(o.work_ns, 0);
        assert!(o.met);
    }

    #[test]
    fn tick_decisions_match_caller_driven_flush_when_unsaturated() {
        // Same interleaved workload, one fleet ticked and one flushed:
        // unsaturated (no shedding), the decision payloads must be
        // bit-identical — a tick is exactly one flush.
        let workload = |fleet: &mut FleetScheduler| {
            for p in 1..=3 {
                fleet.admit(p).unwrap();
            }
            for i in 0..40 {
                let p = (i % 3 + 1) as PatientId;
                if i % 11 == 5 {
                    fleet.ingest_row(p, None).unwrap();
                } else {
                    fleet.ingest_row(p, Some(&row(i as f64 - 15.0))).unwrap();
                }
            }
        };
        let payload = |flush: &FleetFlush| -> Vec<(PatientId, u64, Option<f64>)> {
            flush
                .decisions
                .iter()
                .map(|d| (d.patient, d.decision.window_index, d.decision.decision))
                .collect()
        };
        let mut ticked = FleetScheduler::new(
            engine(),
            FleetConfig {
                tick: Some(TickConfig::deterministic(1_000_000, 10)),
                ..cfg()
            },
        )
        .unwrap();
        let mut flushed = FleetScheduler::new(engine(), cfg()).unwrap();
        workload(&mut ticked);
        workload(&mut flushed);
        let mut tick_flush = FleetFlush::default();
        let outcome = ticked.tick_into(&mut tick_flush).unwrap();
        assert!(outcome.met, "40 rows × 10 ns is far inside the cadence");
        assert_eq!(payload(&tick_flush), payload(&flushed.flush()));
    }

    #[test]
    fn alarms_route_through_per_patient_state_machines() {
        let alarm_cfg = AlarmConfig {
            k: 2,
            n: 2,
            refractory_windows: 0,
            dropped: DroppedPolicy::VoteNonSeizure,
        };
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                alarms: Some(alarm_cfg),
                ..cfg()
            },
        )
        .unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        // Patient 1: two seizure votes (positive sums) → alarm at its
        // second window. Patient 2: seizure then non-seizure → silent.
        for (p, v) in [(1, 1.0), (2, 1.0), (1, 2.0), (2, -1.0)] {
            fleet.ingest_row(p, Some(&row(v))).unwrap();
        }
        let flush = fleet.flush();
        assert_eq!(flush.alarms.len(), 1);
        let (patient, alarm) = flush.alarms[0];
        assert_eq!(patient, 1);
        assert_eq!(alarm.window_index, 1);
        assert_eq!(alarm.votes, 2);
        assert_eq!(fleet.patient_stats(1).unwrap().alarms, 1);
        assert_eq!(fleet.patient_stats(2).unwrap().alarms, 0);

        // Event scoring over the caller's alarm map: patient 1's alarm
        // (end of window 1 = 60 s) detects its seizure; patient 2 raised
        // nothing and has no map entry, so its seizure is missed rather
        // than an error. Row-fed, each patient's two 30-s windows are
        // its monitored time.
        let mut alarms: BTreeMap<PatientId, Vec<AlarmEvent>> = BTreeMap::new();
        for &(p, a) in &flush.alarms {
            alarms.entry(p).or_default().push(a);
        }
        let seizure = |onset_s, offset_s| vec![TruthEvent { onset_s, offset_s }];
        let mut truth = BTreeMap::from([(1, seizure(50.0, 70.0)), (2, seizure(10.0, 20.0))]);
        let m = fleet.event_metrics(&alarms, &truth).unwrap();
        assert_eq!((m.n_events, m.detected, m.false_alarms), (2, 1, 0));
        assert_eq!(m.monitored_s, 120.0);
        // Ground truth for a patient who is not admitted is rejected.
        truth.insert(99, Vec::new());
        assert!(fleet.event_metrics(&alarms, &truth).is_err());
    }

    #[test]
    fn remove_and_restart_settle_pending_state() {
        let mut fleet = FleetScheduler::new(
            engine(),
            FleetConfig {
                max_pending_rows: 4,
                overload: OverloadPolicy::Watermark(Watermarks { low: 2, high: 3 }),
                ..cfg()
            },
        )
        .unwrap();
        fleet.admit(1).unwrap();
        fleet.admit(2).unwrap();
        fleet.ingest_row(1, Some(&row(1.0))).unwrap();
        fleet.ingest_row(2, Some(&row(2.0))).unwrap();
        // Removing patient 1 discards its pending window undecided and
        // takes its row out of the gate's count.
        let removed = fleet.remove(1).unwrap();
        assert_eq!(removed.discarded_windows, 1);
        assert_eq!(removed.stats.windows, 0, "never decided");
        assert_eq!(fleet.stats().pending_rows, 1);
        assert_eq!(fleet.stats().pending_windows, 1);
        assert_eq!(fleet.stats().discarded_windows, 1);
        // Patient 2 alone now fills the band: reaching high sheds
        // nothing, crossing it sheds patient 2's oldest rows down to low
        // — the departed patient 1 is neither counted nor chased.
        fleet.ingest_row(2, Some(&row(3.0))).unwrap();
        fleet.ingest_row(2, Some(&row(4.0))).unwrap();
        assert_eq!(fleet.stats().shed_windows, 0);
        fleet.ingest_row(2, Some(&row(5.0))).unwrap();
        assert_eq!(fleet.stats().shed_windows, 2);
        let flush = fleet.flush();
        let got: Vec<Option<f64>> = flush
            .decisions
            .iter()
            .map(|d| d.decision.decision)
            .collect();
        assert_eq!(got, vec![None, None, Some(4.0), Some(5.0)]);
        // Restart mid-burst: the queue, its shed cursor and its gate
        // count all start again.
        for v in [6.0, 7.0, 8.0, 9.0] {
            fleet.ingest_row(2, Some(&row(v))).unwrap();
        }
        assert_eq!(fleet.stats().shed_windows, 4);
        let restarted = fleet.restart(2).unwrap();
        assert_eq!(restarted.discarded_windows, 4);
        assert_eq!(restarted.stats.windows, 4);
        assert_eq!(fleet.stats().restarted, 1);
        assert_eq!(fleet.stats().pending_rows, 0);
        assert_eq!(fleet.slots[0].shed_cursor, 0);
        for v in [10.0, 11.0, 12.0, 13.0] {
            fleet.ingest_row(2, Some(&row(v))).unwrap();
        }
        let flush = fleet.flush();
        let got: Vec<(u64, Option<f64>)> = flush
            .decisions
            .iter()
            .map(|d| (d.decision.window_index, d.decision.decision))
            .collect();
        assert_eq!(
            got,
            vec![(0, None), (1, None), (2, Some(12.0)), (3, Some(13.0))]
        );
        // Re-admitting a removed id works.
        fleet.admit(1).unwrap();
        assert_eq!(fleet.len(), 2);
    }
}
