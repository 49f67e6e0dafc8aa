//! Streaming inference: chunked samples in, per-window decisions out.
//!
//! The batch path synthesises a whole session, extracts every window and
//! classifies one matrix. A wearable monitor sees the opposite shape:
//! samples arrive in arbitrary chunks (one per ADC interrupt, a packet
//! per second, a file at a time) and decisions must leave as soon as each
//! window completes. [`StreamingSession`] bridges the two worlds:
//!
//! ```text
//! push_samples(chunk) ─► WindowAssembler ─► extract_batch_into
//!                        (biodsp; one copy   (lane groups of up to 8,
//!                         per sample)         reused lane scratch)
//!                                                  │
//!                       WindowDecision ◄── ClassifierEngine ◄──┘
//! ```
//!
//! Two properties are pinned by the test suites:
//!
//! * **chunking invariance / batch equivalence** — for any chunk sizes,
//!   the decision stream is bit-identical to running the batch pipeline
//!   on the same windows (window `i` covers samples
//!   `[i·stride, i·stride + window_len)`), for every
//!   [`ClassifierEngine`] backend;
//! * **allocation-light hot loop** — window buffers, the QRS scratch
//!   (all of the sample-rate-proportional work) and the feature rows are
//!   reused across windows; after warm-up the only per-window heap
//!   traffic is a handful of row-sized (53-element) vectors (buffers
//!   inside the engine's `decision`) and the beat-rate buffers of RR/EDR
//!   processing, two orders of magnitude below the window itself. Each
//!   sample is copied once, from the pushed chunk into its window's
//!   buffer, which extraction then reads in place.
//!
//! The per-window pipeline is split into two stages so it can be driven
//! two ways: the **extract stage**
//! ([`StreamingSession::extract_windows_into`]) turns chunks into
//! [`PendingWindow`]s (feature row or dropped marker), and the **decide
//! stage** ([`StreamingSession::decide_window`]) folds a decision value
//! into stats, alarms and the output. [`StreamingSession::push_samples`]
//! fuses them per row; [`crate::fleet::FleetScheduler`] batches the
//! decide stage across thousands of patients.

use crate::alarm::{AlarmConfig, AlarmEvent, AlarmStateMachine};
use crate::clock::LatencyHistogram;
use crate::error::CoreError;
use biodsp::stream::{AssembledWindow, WindowAssembler};
use ecg_features::extract::{BatchExtractScratch, WindowExtractor};
use ecg_features::N_FEATURES;
use std::sync::Arc;
use std::time::Instant;
use svm::{decision_is_seizure, ClassifierEngine};

/// Shared engine handle used by streaming sessions (one engine, many
/// concurrent patient streams).
pub type SharedEngine = Arc<dyn ClassifierEngine>;

/// Windowing configuration of a sample stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// ECG sampling rate in Hz.
    pub fs: f64,
    /// Analysis window length in samples.
    pub window_len: usize,
    /// Stride between window starts in samples (`== window_len` for the
    /// paper's non-overlapping protocol).
    pub stride: usize,
}

impl StreamConfig {
    /// Non-overlapping `window_s`-second windows at `fs` Hz — the exact
    /// geometry of [`ecg_sim::session::SessionRecording::window_labels`]
    /// (window length rounded to the nearest sample), so streaming and
    /// batch agree on window boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-finite or
    /// non-positive `fs` or `window_s`, or a window shorter than one
    /// sample — validated here, up front, instead of surfacing later as
    /// a misleading zero-length-window error.
    pub fn non_overlapping(fs: f64, window_s: f64) -> Result<Self, CoreError> {
        if !fs.is_finite() || fs <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "stream sampling rate must be positive and finite, got {fs}"
            )));
        }
        if !window_s.is_finite() || window_s <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "stream window length must be positive and finite, got {window_s} s"
            )));
        }
        let window_len = (window_s * fs).round() as usize;
        if window_len == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "stream window of {window_s} s at {fs} Hz rounds to zero samples"
            )));
        }
        Ok(StreamConfig {
            fs,
            window_len,
            stride: window_len,
        })
    }

    /// Number of windows completed once `samples` total samples have
    /// been fed — pure geometry, exactly the count the window assembler
    /// completes (window `i` completes at sample `i·stride + window_len`).
    pub fn windows_in(&self, samples: u64) -> u64 {
        let (w, s) = (self.window_len as u64, self.stride as u64);
        if samples >= w {
            (samples - w) / s + 1
        } else {
            0
        }
    }
}

/// One completed analysis window waiting for its decision — the output
/// of the **extract stage** ([`StreamingSession::extract_windows_into`])
/// and the input of the **decide stage**
/// ([`StreamingSession::decide_window`]).
///
/// The solo streaming path decides each pending window immediately with
/// a per-row `engine.decision` call; the fleet layer
/// ([`crate::fleet::FleetScheduler`]) instead buffers pending windows
/// across many patients and drives one
/// [`ClassifierEngine::decision_batch`] call over all of them — the
/// split exists so both paths share one extraction and one accounting
/// implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingWindow {
    /// Window index (0-based over the stream).
    pub window_index: u64,
    /// Absolute index of the window's first sample.
    pub start_sample: u64,
    /// Extracted feature row, or `None` when extraction failed (too few
    /// beats, …) — the window is already known dropped and must be
    /// decided with `decision = None`.
    pub row: Option<Vec<f64>>,
    /// Wall-clock cost of extraction (ns); the decide stage adds the
    /// classification share on top so per-window latency accounting
    /// survives the stage split.
    pub extract_ns: u64,
}

/// One completed analysis window's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDecision {
    /// Window index (0-based over the stream).
    pub window_index: u64,
    /// Absolute index of the window's first sample.
    pub start_sample: u64,
    /// Engine decision value, or `None` when feature extraction failed
    /// (too few beats, …) and the window was dropped — exactly the
    /// windows the batch assembly path drops.
    pub decision: Option<f64>,
    /// Predicted class: `true` ⇔ seizure, by the shared
    /// [`decision_is_seizure`] boundary (`decision >= 0`); always `false`
    /// for dropped windows.
    pub is_seizure: bool,
    /// Wall-clock cost of this window (extraction + classification).
    pub latency_ns: u64,
}

/// Running latency/throughput accounting of one stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Samples ingested.
    pub samples_in: u64,
    /// Windows completed (classified + dropped).
    pub windows: u64,
    /// Windows dropped because extraction failed.
    pub dropped: u64,
    /// Windows classified as seizure.
    pub seizure_windows: u64,
    /// Alarms raised by the optional alarm stage (0 when disabled).
    pub alarms: u64,
    /// Per-window latency distribution (extraction + classification
    /// share): p50/p99/max + jitter via the log-bucketed
    /// [`LatencyHistogram`], replacing the old sum/max pair — the sum
    /// and max remain available exactly via
    /// [`StreamStats::total_latency_ns`] / [`StreamStats::max_latency_ns`].
    pub latency: LatencyHistogram,
}

impl StreamStats {
    /// Summed per-window latency (ns) — exact, from the histogram.
    pub fn total_latency_ns(&self) -> u128 {
        self.latency.sum_ns()
    }

    /// Worst single-window latency (ns) — exact, from the histogram.
    pub fn max_latency_ns(&self) -> u64 {
        self.latency.max_ns()
    }

    /// Mean per-window latency in nanoseconds (0 before any window).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.total_latency_ns() as f64 / self.windows as f64
        }
    }

    /// Sustained throughput implied by the summed window latencies —
    /// the **serial-equivalent** rate: windows divided by the total CPU
    /// time spent inside the per-window hot path, as if every window had
    /// run back to back on one core.
    ///
    /// On a single stream this is the stream's real throughput. On a
    /// [`StreamStats::merge`]d cohort it is **not**: summing
    /// `total_latency_ns` across concurrent streams treats parallel work
    /// as serial, so the pooled figure *under-reports* fleet throughput
    /// by up to the concurrency factor. For the cohort-level rate use the
    /// fleet's wall-clock figure over flush time instead
    /// ([`crate::fleet::FleetStats::wall_windows_per_sec`]).
    /// The serial-equivalent number remains meaningful on merged stats as
    /// a *per-core cost* metric — windows per CPU-second — just not as a
    /// wall-clock rate.
    ///
    /// `0.0` before any window completes. When windows completed but the
    /// coarse clock recorded zero total latency (sub-resolution windows),
    /// the true throughput is unmeasurably high, not zero — reported as
    /// `f64::INFINITY` so bench harnesses never under-report it.
    pub fn windows_per_sec(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else if self.total_latency_ns() == 0 {
            f64::INFINITY
        } else {
            self.windows as f64 * 1e9 / self.total_latency_ns() as f64
        }
    }

    /// Merges another stream's accounting into this one.
    ///
    /// Counters add up and histograms fold bucket-wise (exact and
    /// order-independent); `total_latency_ns` therefore becomes a
    /// **summed CPU-time** figure across streams that may have run
    /// concurrently — see [`StreamStats::windows_per_sec`] for what the
    /// merged rate does (and does not) mean.
    pub fn merge(&mut self, other: &StreamStats) {
        self.samples_in += other.samples_in;
        self.windows += other.windows;
        self.dropped += other.dropped;
        self.seizure_windows += other.seizure_windows;
        self.alarms += other.alarms;
        self.latency.merge(&other.latency);
    }
}

/// One patient stream: single-copy window assembly + lane-batched
/// extraction + a shared [`ClassifierEngine`].
pub struct StreamingSession {
    cfg: StreamConfig,
    engine: SharedEngine,
    assembler: WindowAssembler,
    /// Windows the assembler completed that await extraction (at most
    /// one lane group on the solo path; a fleet drains them fleet-wide
    /// at its next flush).
    assembled: Vec<AssembledWindow>,
    /// Reused work list of the solo lane-group drain.
    jobs: Vec<ExtractJob>,
    /// Lane scratch of the solo drain, built on first use. A fleet's
    /// sessions never drain solo (the fleet extracts on its own
    /// per-executor scratch), so they stay one pointer wide.
    batch_scratch: Option<Box<BatchExtractScratch>>,
    extractor: WindowExtractor,
    stats: StreamStats,
    /// Optional alarm stage folding decisions into alarms online.
    alarm: Option<AlarmStateMachine>,
    /// Alarms raised since the last [`StreamingSession::take_alarms`].
    pending_alarms: Vec<AlarmEvent>,
    /// Reused pending-window buffer of the solo extract+decide loop.
    pending_scratch: Vec<PendingWindow>,
    /// Recycled row allocations (see [`StreamingSession::recycle_row`]).
    row_pool: Vec<Vec<f64>>,
    /// Next window index handed out by [`StreamingSession::pend_row`].
    next_row_window: u64,
}

/// Recycled row allocations a session keeps at most (a row is 53 `f64`s;
/// the cap only matters for a fleet that buffers many windows of one
/// patient between flushes).
const ROW_POOL_CAP: usize = 64;

/// Windows per lane-batched extraction call — the widest SoA lane group
/// ([`WindowExtractor::extract_batch_into`] packs 8/4/2 lanes greedily).
/// Also the cap on the completed windows a solo session holds between
/// drains (`LANE_GROUP × window_len` samples).
pub(crate) const LANE_GROUP: usize = 8;

/// One assembled window on its way through lane-batched extraction —
/// the work item of a solo session's drain and of the fleet's
/// fleet-wide extract stage alike.
#[derive(Debug)]
pub(crate) struct ExtractJob {
    /// Who owns the window: the fleet's slot index (0 on the solo path).
    pub(crate) owner: usize,
    window: AssembledWindow,
    /// A recycled row allocation of the owning session; holds the
    /// 53-feature row once `ok`.
    row: Vec<f64>,
    ok: bool,
    /// The window's share of its group's extraction wall clock.
    extract_ns: u64,
}

/// Extracts one lane group of at most [`LANE_GROUP`] jobs through
/// [`WindowExtractor::extract_batch_into`] on the executor's `scratch`,
/// reading each window in place from its assembly buffer. Every row is
/// bit-identical to extracting its window alone, whichever windows
/// share its group. The group runs as one unit, so each window carries
/// an even share of the group's wall clock (the first absorbs the
/// remainder) — per-window latency stays meaningful while the sum stays
/// exact.
pub(crate) fn extract_group(
    extractor: &WindowExtractor,
    scratch: &mut BatchExtractScratch,
    group: &mut [ExtractJob],
) {
    debug_assert!(group.len() <= LANE_GROUP, "one lane group at a time");
    let n = group.len().min(LANE_GROUP);
    if n == 0 {
        return;
    }
    let t0 = Instant::now();
    let mut rows: [Vec<f64>; LANE_GROUP] = Default::default();
    let mut ok = [false; LANE_GROUP];
    for (row, job) in rows.iter_mut().zip(group.iter_mut()) {
        *row = std::mem::take(&mut job.row);
    }
    let mut windows: [&[f64]; LANE_GROUP] = [&[]; LANE_GROUP];
    for (w, job) in windows.iter_mut().zip(group.iter()) {
        *w = &job.window.samples;
    }
    let windows = windows.get(..n).unwrap_or_default();
    extractor.extract_batch_into(windows, scratch, |j, result| {
        if let (Ok(values), Some(row), Some(flag)) = (result, rows.get_mut(j), ok.get_mut(j)) {
            row.clear();
            row.extend_from_slice(values);
            *flag = true;
        }
    });
    let total = t0.elapsed().as_nanos() as u64;
    let (share, rem) = (total / n as u64, total % n as u64);
    for (k, ((job, row), flag)) in group.iter_mut().zip(rows).zip(ok).enumerate() {
        job.row = row;
        job.ok = flag;
        job.extract_ns = share + if k == 0 { rem } else { 0 };
    }
}

// `dyn ClassifierEngine` has no Debug of its own; show its cost metadata.
impl std::fmt::Debug for StreamingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSession")
            .field("cfg", &self.cfg)
            .field("engine", &self.engine.info())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl StreamingSession {
    /// Builds a session over a shared engine.
    ///
    /// The engine must consume **raw** 53-feature rows (the float
    /// pipeline or the quantised engine — not a bare [`svm::SvmModel`],
    /// which expects already-normalised, feature-selected rows).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive sampling
    /// rate, zero window/stride, or an engine that wants more features
    /// than extraction produces.
    pub fn new(engine: SharedEngine, cfg: StreamConfig) -> Result<Self, CoreError> {
        let wanted = engine.info().n_features;
        if wanted > N_FEATURES {
            return Err(CoreError::InvalidConfig(format!(
                "engine consumes {wanted} features but extraction produces {N_FEATURES}"
            )));
        }
        if !cfg.fs.is_finite() || cfg.fs <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "stream sampling rate must be positive".into(),
            ));
        }
        let assembler = WindowAssembler::new(cfg.window_len, cfg.stride)
            .map_err(|e| CoreError::InvalidConfig(format!("stream windowing: {e}")))?;
        Ok(StreamingSession {
            cfg,
            extractor: WindowExtractor::new(cfg.fs),
            engine,
            assembler,
            assembled: Vec::new(),
            jobs: Vec::new(),
            batch_scratch: None,
            stats: StreamStats::default(),
            alarm: None,
            pending_alarms: Vec::new(),
            pending_scratch: Vec::new(),
            row_pool: Vec::new(),
            next_row_window: 0,
        })
    }

    /// Builds a session with the alarm stage enabled from the start.
    ///
    /// # Errors
    ///
    /// The [`StreamingSession::new`] failure modes plus
    /// [`CoreError::InvalidConfig`] for an invalid [`AlarmConfig`].
    pub fn with_alarms(
        engine: SharedEngine,
        cfg: StreamConfig,
        alarm_cfg: AlarmConfig,
    ) -> Result<Self, CoreError> {
        let mut session = StreamingSession::new(engine, cfg)?;
        session.enable_alarms(alarm_cfg)?;
        Ok(session)
    }

    /// Enables (or reconfigures) the alarm stage: every completed window
    /// from now on also feeds a k-of-n [`AlarmStateMachine`], and raised
    /// alarms surface through [`StreamingSession::take_alarms`] next to
    /// the window decisions. Replacing an existing stage resets its
    /// voting state and discards pending alarms.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// [`AlarmConfig`].
    pub fn enable_alarms(&mut self, alarm_cfg: AlarmConfig) -> Result<(), CoreError> {
        self.alarm = Some(AlarmStateMachine::new(alarm_cfg)?);
        self.pending_alarms.clear();
        Ok(())
    }

    /// Alarms raised since the last call, in firing order (empty when
    /// the alarm stage is disabled). Drains the internal buffer.
    pub fn take_alarms(&mut self) -> Vec<AlarmEvent> {
        std::mem::take(&mut self.pending_alarms)
    }

    /// Borrow of the alarms raised since the last
    /// [`StreamingSession::take_alarms`], without draining.
    pub fn pending_alarms(&self) -> &[AlarmEvent] {
        &self.pending_alarms
    }

    /// Windowing configuration.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Cost metadata of the engine behind this stream.
    pub fn engine_info(&self) -> svm::EngineInfo {
        self.engine.info()
    }

    /// Running stats.
    pub fn stats(&self) -> StreamStats {
        self.stats.clone()
    }

    /// Ingests one chunk of any length and returns the decisions of every
    /// window that completed inside it (often none, several after a large
    /// chunk). Allocation-convenient twin of
    /// [`StreamingSession::push_samples_into`].
    pub fn push_samples(&mut self, chunk: &[f64]) -> Vec<WindowDecision> {
        let mut out = Vec::new();
        self.push_samples_into(chunk, &mut out);
        out
    }

    /// Ingests one chunk, clearing and refilling `out` with the decisions
    /// of every window that completed — the allocation-light hot-loop
    /// entry point. Equivalent to the extract stage followed immediately
    /// by a per-window decide stage (`engine.decision` on each extracted
    /// row).
    pub fn push_samples_into(&mut self, chunk: &[f64], out: &mut Vec<WindowDecision>) {
        out.clear();
        let mut pending = std::mem::take(&mut self.pending_scratch);
        pending.clear();
        self.extract_windows_into(chunk, &mut pending);
        for w in pending.drain(..) {
            let t0 = Instant::now();
            let decision = w.row.as_deref().map(|r| self.engine.decision(r));
            let classify_ns = t0.elapsed().as_nanos() as u64;
            out.push(self.decide_window(&w, decision, classify_ns));
            if let Some(row) = w.row {
                self.recycle_row(row);
            }
        }
        self.pending_scratch = pending;
    }

    /// **Extract stage**: ingests one chunk and appends a
    /// [`PendingWindow`] (extracted feature row, or `None` when
    /// extraction dropped the window) for every window that completed
    /// inside it. Decisions, stats beyond `samples_in`, and the alarm
    /// stage are deferred to [`StreamingSession::decide_window`] — feed
    /// every pending window there, **in order**, exactly once.
    ///
    /// # Panics
    ///
    /// Panics when the session has already ingested pre-extracted rows
    /// ([`StreamingSession::push_row`] / [`StreamingSession::pend_row`])
    /// — the two ingest modes number windows independently, so mixing
    /// them would silently corrupt window indices. (`pend_row` rejects
    /// the opposite mixing order with an error; this direction can only
    /// arise from caller code, so it fails loudly.)
    pub fn extract_windows_into(&mut self, chunk: &[f64], pending: &mut Vec<PendingWindow>) {
        // lint: allow(hot-panic) — documented `# Panics` contract: mixing
        // ingest modes would silently fork window numbering, so it fails
        // loudly; the reverse order is rejected with a typed error.
        assert!(
            self.next_row_window == 0,
            "session already ingested pre-extracted rows; cannot mix raw-sample ingestion \
             (window numbering would fork)"
        );
        // At most LANE_GROUP windows complete within LANE_GROUP strides,
        // so draining after every such sub-chunk extracts in full lane
        // groups while capping the windows held at one group.
        for sub in chunk.chunks(LANE_GROUP.saturating_mul(self.cfg.stride)) {
            self.assemble(sub);
            self.extract_assembled_into(pending);
        }
    }

    /// Feeds raw samples to the window assembler — the one copy each
    /// sample makes — and returns how many windows completed. They wait
    /// in the session, unextracted, for [`StreamingSession::extract_windows_into`]
    /// or the fleet's extract stage. The caller has ruled out a row-fed
    /// session.
    pub(crate) fn assemble(&mut self, chunk: &[f64]) -> usize {
        self.stats.samples_in += chunk.len() as u64;
        self.assembler.push_into(chunk, &mut self.assembled)
    }

    /// Completed windows awaiting extraction.
    pub(crate) fn assembled_windows(&self) -> usize {
        self.assembled.len()
    }

    /// Moves every completed window onto `jobs`, tagged with `owner` and
    /// carrying a recycled row allocation to extract into.
    pub(crate) fn drain_assembled(&mut self, owner: usize, jobs: &mut Vec<ExtractJob>) {
        for window in self.assembled.drain(..) {
            jobs.push(ExtractJob {
                owner,
                window,
                row: self.row_pool.pop().unwrap_or_default(),
                ok: false,
                extract_ns: 0,
            });
        }
    }

    /// Turns an extracted job back into a [`PendingWindow`]: the row when
    /// extraction succeeded (otherwise its allocation returns to the
    /// pool), and the window's buffer back to the assembler.
    pub(crate) fn finish_extracted(&mut self, job: ExtractJob) -> PendingWindow {
        let ExtractJob {
            window,
            row,
            ok,
            extract_ns,
            ..
        } = job;
        let row = if ok {
            Some(row)
        } else {
            self.recycle_row(row);
            None
        };
        self.assembler.recycle(window.samples);
        PendingWindow {
            window_index: window.index,
            start_sample: window.start,
            row,
            extract_ns,
        }
    }

    /// The solo drain: extracts the completed windows (one lane group at
    /// most) into `pending` rows.
    fn extract_assembled_into(&mut self, pending: &mut Vec<PendingWindow>) {
        if self.assembled.is_empty() {
            return;
        }
        let mut jobs = std::mem::take(&mut self.jobs);
        self.drain_assembled(0, &mut jobs);
        let scratch = self.batch_scratch.get_or_insert_with(Box::default);
        extract_group(&self.extractor, scratch, &mut jobs);
        for job in jobs.drain(..) {
            pending.push(self.finish_extracted(job));
        }
        self.jobs = jobs;
    }

    /// **Decide stage**: folds one pending window's decision into the
    /// session — stats (windows, drops, seizure count, latency =
    /// `extract_ns + classify_ns`), the optional alarm state machine and
    /// the pending-alarm buffer — and returns the finished
    /// [`WindowDecision`].
    ///
    /// `decision` must be `None` exactly when `pending.row` is `None`
    /// (the dropped-window contract), and windows of one session must be
    /// decided in extraction order — both hold by construction on the
    /// solo and fleet paths. `classify_ns` is the window's share of the
    /// classification cost (per-row time solo, `batch time / batch rows`
    /// under the fleet).
    pub fn decide_window(
        &mut self,
        pending: &PendingWindow,
        decision: Option<f64>,
        classify_ns: u64,
    ) -> WindowDecision {
        let latency_ns = pending.extract_ns.saturating_add(classify_ns);
        let is_seizure = matches!(decision, Some(d) if decision_is_seizure(d));
        self.stats.windows += 1;
        if decision.is_none() {
            self.stats.dropped += 1;
        }
        if is_seizure {
            self.stats.seizure_windows += 1;
        }
        self.stats.latency.record(latency_ns);
        let wd = WindowDecision {
            window_index: pending.window_index,
            start_sample: pending.start_sample,
            decision,
            is_seizure,
            latency_ns,
        };
        if let Some(sm) = &mut self.alarm {
            if let Some(alarm) = sm.on_window(&wd) {
                self.stats.alarms += 1;
                self.pending_alarms.push(alarm);
            }
        }
        wd
    }

    /// Ingests one **pre-extracted** feature row as the session's next
    /// window — the on-device-extraction topology, where wearables run
    /// the DSP/feature chain locally and ship 53-float rows instead of
    /// raw ECG. `row = None` records a dropped window (on-device
    /// extraction failed). Row-fed windows are numbered 0, 1, 2, … with
    /// `stride`-spaced start samples; a session is either row-fed or
    /// sample-fed, never both — mixing is rejected, because the two
    /// modes number windows independently.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `row` is not exactly
    /// [`N_FEATURES`] wide, holds a NaN or infinite feature, or when the
    /// session has already ingested raw samples. A rejected row does not
    /// advance the window counter.
    pub fn push_row(&mut self, row: Option<&[f64]>) -> Result<WindowDecision, CoreError> {
        let pending = self.pend_row(row)?;
        let t0 = Instant::now();
        let decision = pending.row.as_deref().map(|r| self.engine.decision(r));
        let classify_ns = t0.elapsed().as_nanos() as u64;
        let wd = self.decide_window(&pending, decision, classify_ns);
        if let Some(row) = pending.row {
            self.recycle_row(row);
        }
        Ok(wd)
    }

    /// Builds the [`PendingWindow`] for one pre-extracted row without
    /// deciding it — the fleet's row-ingest entry point. Same contract
    /// as [`StreamingSession::push_row`]; the caller owes the session a
    /// matching [`StreamingSession::decide_window`] call (and must count
    /// queued-but-undecided windows itself when interleaving). The row
    /// is copied into a recycled allocation when one is available.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `row` is not exactly
    /// [`N_FEATURES`] wide, holds a NaN or infinite feature (no engine
    /// can classify it: the float pipeline would return a NaN decision,
    /// the quantised engine would encode it as a finite code), or when
    /// the session has already ingested raw samples (the ingest modes
    /// must not mix — see [`StreamingSession::push_row`]).
    pub fn pend_row(&mut self, row: Option<&[f64]>) -> Result<PendingWindow, CoreError> {
        if self.stats.samples_in > 0 {
            return Err(CoreError::InvalidConfig(
                "session already ingested raw samples; cannot mix pre-extracted rows \
                 (window numbering would fork)"
                    .into(),
            ));
        }
        if let Some(r) = row {
            if r.len() != N_FEATURES {
                return Err(CoreError::InvalidConfig(format!(
                    "pre-extracted row has {} features, extraction produces {N_FEATURES}",
                    r.len()
                )));
            }
            if let Some(i) = r.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "pre-extracted row has a non-finite value at feature {i}"
                )));
            }
        }
        let window_index = self.next_row_window;
        self.next_row_window += 1;
        Ok(PendingWindow {
            window_index,
            start_sample: window_index * self.cfg.stride as u64,
            row: row.map(|r| {
                let mut owned = self.row_pool.pop().unwrap_or_default();
                owned.clear();
                owned.extend_from_slice(r);
                owned
            }),
            extract_ns: 0,
        })
    }

    /// Whether this session has ingested pre-extracted rows. A session
    /// is either row-fed or sample-fed, never both (see
    /// [`StreamingSession::push_row`]); schedulers check this to reject
    /// raw samples on a row-fed session with an error instead of the
    /// extract stage's panic.
    pub fn is_row_fed(&self) -> bool {
        self.next_row_window > 0
    }

    /// Returns a decided [`PendingWindow`]'s row allocation to the
    /// session's recycle pool, keeping the extract/pend hot paths free
    /// of per-window heap churn. The solo entry points recycle
    /// automatically; staged drivers (the fleet scheduler) call this
    /// after [`StreamingSession::decide_window`].
    pub fn recycle_row(&mut self, row: Vec<f64>) {
        if self.row_pool.len() < ROW_POOL_CAP {
            self.row_pool.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::EngineInfo;

    /// Deterministic toy backend: decision = Σ row (53 raw features in,
    /// no training needed) — lets the chunking tests run on synthetic ECG
    /// without fitting an SVM.
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

    #[test]
    fn sessions_are_send() {
        // The fleet's flush hands session-owned windows to scoped
        // executor threads; pin the auto-trait so a future non-Send field
        // (Rc, raw pointer) fails here, not deep in the fleet.
        fn is_send<T: Send>() {}
        is_send::<StreamingSession>();
        is_send::<PendingWindow>();
    }

    #[test]
    fn windows_in_matches_scheduler_geometry() {
        for (window_len, stride) in [(3840usize, 3840usize), (3840, 1920), (100, 37)] {
            let cfg = StreamConfig {
                fs: 128.0,
                window_len,
                stride,
            };
            let mut assembler = WindowAssembler::new(window_len, stride).unwrap();
            let mut done = Vec::new();
            let mut emitted = 0u64;
            for samples in 0..(3 * window_len as u64 + 1) {
                if samples > 0 {
                    emitted += assembler.push_into(&[0.0], &mut done) as u64;
                    done.clear();
                }
                assert_eq!(
                    cfg.windows_in(samples),
                    emitted,
                    "at {samples} samples ({window_len}/{stride})"
                );
            }
        }
    }

    /// Beat-accurate synthetic ECG (same shape as the extractor tests).
    fn synth_ecg(fs: f64, dur_s: f64, rr: f64) -> Vec<f64> {
        let n = (fs * dur_s) as usize;
        let mut sig = vec![0.0f64; n];
        let mut bt = 0.5;
        while bt < dur_s {
            let amp = 1.0 + 0.2 * (std::f64::consts::TAU * 0.25 * bt).sin();
            let centre = (bt * fs) as isize;
            for k in -15..=15isize {
                let idx = centre + k;
                if idx >= 0 && (idx as usize) < n {
                    let dt = k as f64 / fs;
                    sig[idx as usize] += amp * (-dt * dt / (2.0 * 0.012f64.powi(2))).exp();
                }
            }
            bt += rr * (1.0 + 0.03 * (std::f64::consts::TAU * 0.25 * bt).sin());
        }
        sig
    }

    fn engine() -> SharedEngine {
        Arc::new(SumEngine)
    }

    #[test]
    fn config_validation() {
        let bad_fs = StreamConfig {
            fs: 0.0,
            window_len: 10,
            stride: 10,
        };
        assert!(StreamingSession::new(engine(), bad_fs).is_err());
        let bad_window = StreamConfig {
            fs: 128.0,
            window_len: 0,
            stride: 1,
        };
        assert!(StreamingSession::new(engine(), bad_window).is_err());
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        assert_eq!(cfg.window_len, 3840);
        assert_eq!(cfg.stride, 3840);
        assert!(StreamingSession::new(engine(), cfg).is_ok());
    }

    #[test]
    fn non_overlapping_validates_up_front_and_rounds() {
        // Degenerate inputs are rejected at construction with a clear
        // error, not later as a zero-length-window failure.
        for (fs, window_s) in [
            (128.0, f64::NAN),
            (128.0, f64::INFINITY),
            (128.0, -30.0),
            (128.0, 0.0),
            (f64::NAN, 30.0),
            (0.0, 30.0),
            (-128.0, 30.0),
            (128.0, 1e-9), // rounds to zero samples
        ] {
            assert!(
                matches!(
                    StreamConfig::non_overlapping(fs, window_s),
                    Err(CoreError::InvalidConfig(_))
                ),
                "fs={fs} window_s={window_s} must be rejected"
            );
        }
        // Rounds to the nearest sample, matching
        // `SessionRecording::window_labels` (which rounds too) instead of
        // silently truncating.
        let down = StreamConfig::non_overlapping(128.0, 30.0 - 0.25 / 128.0).unwrap();
        assert_eq!(down.window_len, 3840);
        let up = StreamConfig::non_overlapping(128.0, 30.0 + 0.75 / 128.0).unwrap();
        assert_eq!(up.window_len, 3841);
        // Sub-sample windows that round to >= 1 are fine.
        assert_eq!(
            StreamConfig::non_overlapping(128.0, 0.005)
                .unwrap()
                .window_len,
            1
        );
    }

    #[test]
    fn windows_per_sec_guards_the_coarse_clock() {
        let idle = StreamStats::default();
        assert_eq!(idle.windows_per_sec(), 0.0);
        // Windows completed but the coarse clock recorded zero latency:
        // throughput is unmeasurably high, not zero.
        let sub_resolution = StreamStats {
            windows: 7,
            ..StreamStats::default()
        };
        assert_eq!(sub_resolution.windows_per_sec(), f64::INFINITY);
        assert_eq!(sub_resolution.mean_latency_ns(), 0.0);
        let mut measured = StreamStats {
            windows: 4,
            ..StreamStats::default()
        };
        for _ in 0..4 {
            measured.latency.record(500_000_000);
        }
        assert_eq!(measured.total_latency_ns(), 2_000_000_000);
        assert!((measured.windows_per_sec() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn over_wide_engines_are_rejected_at_construction() {
        struct WideEngine;
        impl ClassifierEngine for WideEngine {
            fn decision(&self, row: &[f64]) -> f64 {
                row.iter().sum()
            }
            fn n_features(&self) -> usize {
                N_FEATURES + 1
            }
            fn info(&self) -> EngineInfo {
                EngineInfo {
                    kind: "wide-test",
                    n_support_vectors: 1,
                    n_features: N_FEATURES + 1,
                    d_bits: None,
                    a_bits: None,
                }
            }
        }
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        assert!(matches!(
            StreamingSession::new(Arc::new(WideEngine), cfg),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn chunking_does_not_change_decisions() {
        let fs = 128.0;
        let ecg = synth_ecg(fs, 150.0, 0.8);
        let cfg = StreamConfig::non_overlapping(fs, 30.0).unwrap();

        let mut whole = StreamingSession::new(engine(), cfg).unwrap();
        let reference = whole.push_samples(&ecg);
        assert_eq!(reference.len(), 5);
        assert!(reference.iter().all(|d| d.decision.is_some()));

        for chunk_len in [1usize, 7, 128, 1000, 3840, 4096] {
            let mut s = StreamingSession::new(engine(), cfg).unwrap();
            let mut got = Vec::new();
            for chunk in ecg.chunks(chunk_len) {
                got.extend(s.push_samples(chunk));
            }
            assert_eq!(got.len(), reference.len(), "chunk {chunk_len}");
            for (a, b) in got.iter().zip(reference.iter()) {
                assert_eq!(a.window_index, b.window_index);
                assert_eq!(a.start_sample, b.start_sample);
                assert_eq!(
                    a.decision.map(f64::to_bits),
                    b.decision.map(f64::to_bits),
                    "chunk {chunk_len} window {}",
                    a.window_index
                );
                assert_eq!(a.is_seizure, b.is_seizure);
            }
            let stats = s.stats();
            assert_eq!(stats.windows, 5);
            assert_eq!(stats.samples_in, ecg.len() as u64);
            assert_eq!(stats.dropped, 0);
            assert!(stats.mean_latency_ns() > 0.0);
            assert!(stats.windows_per_sec() > 0.0);
            assert!(stats.max_latency_ns() >= stats.mean_latency_ns() as u64);
            assert!(stats.latency.p99_ns() >= stats.latency.p50_ns());
        }
    }

    /// Engine pinned to a constant decision value — drives boundary and
    /// alarm tests without training.
    struct ConstEngine(f64);

    impl ClassifierEngine for ConstEngine {
        fn decision(&self, _row: &[f64]) -> f64 {
            self.0
        }
        fn n_features(&self) -> usize {
            N_FEATURES
        }
        fn info(&self) -> EngineInfo {
            EngineInfo {
                kind: "const-test",
                n_support_vectors: 1,
                n_features: N_FEATURES,
                d_bits: None,
                a_bits: None,
            }
        }
    }

    #[test]
    fn zero_decision_window_is_seizure() {
        // Regression: the stream marks `decision == 0.0` seizure, in
        // agreement with `classify` and `Confusion` (shared
        // `decision_is_seizure` boundary).
        let fs = 128.0;
        let cfg = StreamConfig::non_overlapping(fs, 30.0).unwrap();
        let ecg = synth_ecg(fs, 35.0, 0.8);
        let mut s = StreamingSession::new(Arc::new(ConstEngine(0.0)), cfg).unwrap();
        let decisions = s.push_samples(&ecg);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].decision, Some(0.0));
        assert!(decisions[0].is_seizure);
        assert_eq!(s.stats().seizure_windows, 1);
        let mut s = StreamingSession::new(Arc::new(ConstEngine(-1e-300)), cfg).unwrap();
        assert!(!s.push_samples(&ecg)[0].is_seizure);
    }

    #[test]
    fn alarm_stage_surfaces_alarms_next_to_decisions() {
        let fs = 128.0;
        let cfg = StreamConfig::non_overlapping(fs, 30.0).unwrap();
        let ecg = synth_ecg(fs, 150.0, 0.8); // 5 windows, all seizure votes
        let alarm_cfg = crate::alarm::AlarmConfig {
            k: 2,
            n: 3,
            refractory_windows: 2,
            dropped: crate::alarm::DroppedPolicy::VoteNonSeizure,
        };
        let mut s =
            StreamingSession::with_alarms(Arc::new(ConstEngine(1.0)), cfg, alarm_cfg).unwrap();
        assert!(s.pending_alarms().is_empty());
        let decisions = s.push_samples(&ecg);
        assert_eq!(decisions.len(), 5);
        // Persistent seizure votes: alarm at window 1, refractory 2
        // suppresses windows 2–3, alarm again at window 4.
        let alarms = s.take_alarms();
        assert_eq!(
            alarms.iter().map(|a| a.window_index).collect::<Vec<_>>(),
            vec![1, 4]
        );
        assert_eq!(alarms[0].start_sample, cfg.stride as u64);
        assert_eq!(s.stats().alarms, 2);
        // take_alarms drained the buffer.
        assert!(s.take_alarms().is_empty());
        // The online alarms equal a batch scan over the decision stream.
        let seq: Vec<Option<f64>> = decisions.iter().map(|d| d.decision).collect();
        let batch = crate::alarm::AlarmStateMachine::scan(alarm_cfg, &seq, cfg.stride).unwrap();
        assert_eq!(alarms, batch);
        // Invalid alarm configs are rejected.
        assert!(s
            .enable_alarms(crate::alarm::AlarmConfig::k_of_n(9, 3))
            .is_err());
        // A plain session never raises alarms.
        let mut plain = StreamingSession::new(Arc::new(ConstEngine(1.0)), cfg).unwrap();
        plain.push_samples(&ecg);
        assert_eq!(plain.stats().alarms, 0);
        assert!(plain.take_alarms().is_empty());
    }

    #[test]
    fn push_row_ingests_pre_extracted_rows() {
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        let mut s = StreamingSession::new(engine(), cfg).unwrap();
        // Wrong width is rejected; the window counter does not advance.
        assert!(s.push_row(Some(&[1.0; 3])).is_err());
        let mut row = vec![0.0; N_FEATURES];
        row[0] = 2.5;
        let d0 = s.push_row(Some(&row)).unwrap();
        assert_eq!(d0.window_index, 0);
        assert_eq!(d0.start_sample, 0);
        assert_eq!(d0.decision, Some(2.5));
        assert!(d0.is_seizure);
        // A device-side dropped window: decided as dropped, in order.
        let d1 = s.push_row(None).unwrap();
        assert_eq!(d1.window_index, 1);
        assert_eq!(d1.start_sample, cfg.stride as u64);
        assert_eq!(d1.decision, None);
        row[0] = -1.0;
        let d2 = s.push_row(Some(&row)).unwrap();
        assert_eq!(d2.window_index, 2);
        assert!(!d2.is_seizure);
        let stats = s.stats();
        assert_eq!(
            (stats.windows, stats.dropped, stats.seizure_windows),
            (3, 1, 1)
        );
        // The alarm stage sees row-fed windows exactly like sample-fed
        // ones.
        let mut s =
            StreamingSession::with_alarms(engine(), cfg, crate::alarm::AlarmConfig::k_of_n(1, 1))
                .unwrap();
        row[0] = 1.0;
        s.push_row(Some(&row)).unwrap();
        assert_eq!(s.take_alarms().len(), 1);
    }

    #[test]
    fn push_row_rejects_non_finite_features_for_every_engine() {
        let m = crate::quickfeat::synthetic_matrix(&Default::default());
        let float = crate::trained::FloatPipeline::fit(&m, &Default::default()).unwrap();
        let quant = crate::engine::QuantizedEngine::from_pipeline(
            &float,
            crate::engine::BitConfig::paper_choice(),
        )
        .unwrap();
        let engines: [SharedEngine; 3] = [engine(), Arc::new(float), Arc::new(quant)];
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        let good = m.features.row(0).to_vec();
        for e in engines {
            let mut s = StreamingSession::new(Arc::clone(&e), cfg).unwrap();
            for (i, bad) in [(0, f64::NAN), (29, f64::INFINITY), (52, f64::NEG_INFINITY)] {
                let mut r = good.clone();
                r[i] = bad;
                let Err(CoreError::InvalidConfig(msg)) = s.push_row(Some(&r)) else {
                    panic!("{} accepted {bad} at feature {i}", e.info().kind);
                };
                assert!(msg.contains(&format!("feature {i}")), "{msg}");
            }
            // Nothing was decided or counted, and numbering starts at 0.
            assert_eq!(s.stats().windows, 0);
            assert!(!s.is_row_fed());
            let d = s.push_row(Some(&good)).unwrap();
            assert_eq!(d.window_index, 0);
            assert_eq!(d.decision, Some(e.decision(&good)));
        }
    }

    #[test]
    fn ingest_modes_do_not_mix() {
        // Row-after-sample is rejected with an error: the two modes
        // number windows independently.
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        let mut s = StreamingSession::new(engine(), cfg).unwrap();
        s.push_samples(&[0.0; 16]);
        assert!(!s.is_row_fed());
        let row = vec![0.0; N_FEATURES];
        assert!(matches!(
            s.push_row(Some(&row)),
            Err(CoreError::InvalidConfig(_))
        ));
        // A row-fed session reports itself as such.
        let mut r = StreamingSession::new(engine(), cfg).unwrap();
        r.push_row(Some(&row)).unwrap();
        assert!(r.is_row_fed());
    }

    #[test]
    #[should_panic(expected = "cannot mix raw-sample ingestion")]
    fn sample_ingest_after_rows_panics() {
        let cfg = StreamConfig::non_overlapping(128.0, 30.0).unwrap();
        let mut s = StreamingSession::new(engine(), cfg).unwrap();
        s.push_row(None).unwrap();
        s.push_samples(&[0.0; 16]);
    }

    #[test]
    fn pooled_throughput_is_wall_clock_not_summed_latency() {
        let wall = |windows_decided: u64, busy_ns: u128| {
            crate::fleet::FleetStats {
                windows_decided,
                busy_ns,
                ..crate::fleet::FleetStats::default()
            }
            .wall_windows_per_sec()
        };
        // Edge cases mirror windows_per_sec.
        assert_eq!(wall(0, 0), 0.0);
        assert_eq!(wall(5, 0), f64::INFINITY);
        assert!((wall(4, 2_000_000_000) - 2.0).abs() < 1e-12);
        // Two concurrent streams, each 100 windows of 1 ms: the merged
        // serial-equivalent rate halves, the wall-clock pooled rate does
        // not — the distinction the fleet metrics are built on.
        let mut one = StreamStats {
            windows: 100,
            ..StreamStats::default()
        };
        for _ in 0..100 {
            one.latency.record(1_000_000);
        }
        let mut merged = one.clone();
        merged.merge(&one);
        assert!((one.windows_per_sec() - 1000.0).abs() < 1e-9);
        assert!((merged.windows_per_sec() - 1000.0).abs() < 1e-9);
        // 200 windows in the same 100 ms of wall time (perfect overlap):
        let pooled = wall(merged.windows, 100_000_000);
        assert!((pooled - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn flat_windows_are_dropped_like_the_batch_path() {
        let fs = 128.0;
        let cfg = StreamConfig::non_overlapping(fs, 30.0).unwrap();
        let mut s = StreamingSession::new(engine(), cfg).unwrap();
        let flat = vec![0.0; cfg.window_len * 2];
        let decisions = s.push_samples(&flat);
        assert_eq!(decisions.len(), 2);
        assert!(decisions.iter().all(|d| d.decision.is_none()));
        assert!(decisions.iter().all(|d| !d.is_seizure));
        assert_eq!(s.stats().dropped, 2);
    }
}
