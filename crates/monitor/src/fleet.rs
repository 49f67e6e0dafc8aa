//! `FleetMonitor` — the facade over fleet-scale session multiplexing.
//!
//! One type to hold at the serving layer: pick an engine backend (float
//! pipeline, quantised engine, or a pipeline persisted to text), choose
//! the fleet configuration (window geometry, alarm stage, backpressure,
//! and — via [`FleetConfig::workers`] — how many executors the staged
//! flush pipeline fans extraction shards and classification panels
//! across; `None` sizes to the machine), then admit patients, feed
//! interleaved chunks and flush batched decisions. Everything underneath
//! ([`seizure_core::fleet`]) guarantees the per-patient decision/alarm
//! streams are bit-identical to solo
//! [`seizure_core::stream::StreamingSession`] runs, for every backend at
//! every worker count.

use seizure_core::alarm::{score_events, AlarmEvent, EventMetrics, EventScoring, TruthEvent};
use seizure_core::clock::TickOutcome;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::error::CoreError;
use seizure_core::fleet::{
    FleetConfig, FleetFlush, FleetScheduler, FleetStats, PatientId, RemovedPatient,
};
use seizure_core::stream::{SharedEngine, StreamStats};
use seizure_core::trained::FloatPipeline;
use std::collections::BTreeMap;
use std::sync::Arc;
use svm::EngineInfo;

/// Rebuilds a shared engine from pipeline text persisted with
/// [`FloatPipeline::to_text`]: the float pipeline directly, or — with
/// `bits` — the bit-accurate quantised engine on top. Persistence is
/// bit-exact, so a fleet (or a solo
/// [`seizure_core::stream::StreamingSession`]) restarted from the text
/// produces decisions bit-identical to the original's. Backs
/// [`FleetMonitor::from_saved_pipeline`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] (or a wrapped [`svm::SvmError`])
/// for malformed text, a pipeline whose selected features exceed what
/// extraction produces, or a quantised engine that cannot be built.
pub fn load_engine(
    pipeline_text: &str,
    bits: Option<BitConfig>,
) -> Result<SharedEngine, CoreError> {
    let p = FloatPipeline::from_text(pipeline_text)?;
    // `from_text` cannot bound the selected indices (a pipeline does
    // not record its raw input width), but monitors feed 53-feature
    // rows — reject a corrupt file here, at load time, instead of
    // panicking on the first window.
    let n = ecg_features::N_FEATURES;
    if let Some(&bad) = p.feature_indices().iter().find(|&&j| j >= n) {
        return Err(CoreError::InvalidConfig(format!(
            "persisted pipeline selects feature {bad} but extraction produces {n} features"
        )));
    }
    Ok(match bits {
        Some(b) => Arc::new(QuantizedEngine::from_pipeline(&p, b)?),
        None => Arc::new(p),
    })
}

/// Continuous multi-patient seizure monitor: thousands of concurrent
/// streams, one batched inference path.
///
/// ```no_run
/// use epilepsy_monitor::prelude::*;
/// use epilepsy_monitor::fleet::FleetMonitor;
/// use epilepsy_monitor::core::fleet::FleetConfig;
///
/// let spec = DatasetSpec::new(Scale::Tiny, 42);
/// let matrix = build_feature_matrix(&spec);
/// let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default())?;
/// let cfg = FleetConfig {
///     alarms: Some(AlarmConfig::default()),
///     ..FleetConfig::unbounded(StreamConfig::non_overlapping(
///         spec.scale.fs(),
///         spec.scale.window_s(),
///     )?)
/// };
/// let mut fleet = FleetMonitor::from_float_pipeline(pipeline, cfg)?;
/// for (id, session) in spec.sessions.iter().enumerate() {
///     fleet.admit(id as u64)?;
///     fleet.ingest(id as u64, &session.synthesize().ecg)?;
/// }
/// let flush = fleet.flush(); // one batched kernel call for everyone
/// println!(
///     "{} windows decided, {} alarms",
///     flush.decisions.len(),
///     flush.alarms.len()
/// );
/// # Ok::<(), epilepsy_monitor::core::error::CoreError>(())
/// ```
#[derive(Debug)]
pub struct FleetMonitor {
    fleet: FleetScheduler,
    /// Alarms collected from every flush, per patient, in firing order.
    alarms: BTreeMap<PatientId, Vec<AlarmEvent>>,
}

impl FleetMonitor {
    /// Fleet over any shared [`svm::ClassifierEngine`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// [`FleetConfig`].
    pub fn new(engine: SharedEngine, cfg: FleetConfig) -> Result<Self, CoreError> {
        Ok(FleetMonitor {
            fleet: FleetScheduler::new(engine, cfg)?,
            alarms: BTreeMap::new(),
        })
    }

    /// Fleet over the float reference pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// [`FleetConfig`].
    pub fn from_float_pipeline(p: FloatPipeline, cfg: FleetConfig) -> Result<Self, CoreError> {
        FleetMonitor::new(Arc::new(p), cfg)
    }

    /// Fleet over the bit-accurate quantised engine built from `p` at
    /// `bits` — the deployed-accelerator configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the engine cannot be
    /// built or the fleet configuration is invalid.
    pub fn from_quantized(
        p: &FloatPipeline,
        bits: BitConfig,
        cfg: FleetConfig,
    ) -> Result<Self, CoreError> {
        FleetMonitor::new(Arc::new(QuantizedEngine::from_pipeline(p, bits)?), cfg)
    }

    /// Fleet restarted from a pipeline persisted with
    /// [`FloatPipeline::to_text`] — no retraining. With `bits` the
    /// quantised engine is rebuilt on top; without, the float pipeline
    /// classifies directly. Persistence is bit-exact, so the restarted
    /// fleet's decisions are bit-identical to the original's.
    ///
    /// # Errors
    ///
    /// The [`load_engine`] failure modes plus an
    /// invalid [`FleetConfig`].
    pub fn from_saved_pipeline(
        pipeline_text: &str,
        bits: Option<BitConfig>,
        cfg: FleetConfig,
    ) -> Result<Self, CoreError> {
        FleetMonitor::new(load_engine(pipeline_text, bits)?, cfg)
    }

    /// Admits a new patient stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the id is already
    /// admitted.
    pub fn admit(&mut self, patient: PatientId) -> Result<(), CoreError> {
        self.fleet.admit(patient)
    }

    /// Removes a patient, returning the final session accounting (plus
    /// any alarms this monitor had collected for them across flushes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient.
    pub fn remove(
        &mut self,
        patient: PatientId,
    ) -> Result<(RemovedPatient, Vec<AlarmEvent>), CoreError> {
        let mut removed = self.fleet.remove(patient)?;
        let mut collected = self.alarms.remove(&patient).unwrap_or_default();
        collected.append(&mut removed.alarms);
        removed.alarms = Vec::new();
        Ok((removed, collected))
    }

    /// Restarts a patient's session (device reconnect / rollover);
    /// collected alarms for the patient are cleared too.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient.
    pub fn restart(&mut self, patient: PatientId) -> Result<RemovedPatient, CoreError> {
        let removed = self.fleet.restart(patient)?;
        self.alarms.remove(&patient);
        Ok(removed)
    }

    /// Ingests one raw ECG chunk for a patient (any length, any
    /// interleaving across patients). Returns the number of windows that
    /// completed and now await [`FleetMonitor::flush`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient.
    pub fn ingest(&mut self, patient: PatientId, chunk: &[f64]) -> Result<usize, CoreError> {
        self.fleet.ingest(patient, chunk)
    }

    /// Ingests one pre-extracted feature row (on-device extraction
    /// topology); `None` = the device reported a dropped window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown patient or a
    /// mis-sized row.
    pub fn ingest_row(&mut self, patient: PatientId, row: Option<&[f64]>) -> Result<(), CoreError> {
        self.fleet.ingest_row(patient, row)
    }

    /// Decides every pending window across the fleet through one batched
    /// kernel call, collecting raised alarms per patient for the cohort
    /// report.
    pub fn flush(&mut self) -> FleetFlush {
        let flush = self.fleet.flush();
        for (patient, alarm) in &flush.alarms {
            self.alarms.entry(*patient).or_default().push(*alarm);
        }
        flush
    }

    /// One serving tick: exactly one [`FleetMonitor::flush`] under the
    /// serving clock's deadline accounting
    /// ([`seizure_core::fleet::FleetScheduler::tick`]) — alarms are
    /// collected for the cohort report the same way. Requires
    /// [`FleetConfig::tick`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the fleet was built
    /// without a serving clock.
    pub fn tick(&mut self) -> Result<(FleetFlush, TickOutcome), CoreError> {
        let (flush, outcome) = self.fleet.tick()?;
        for (patient, alarm) in &flush.alarms {
            self.alarms.entry(*patient).or_default().push(*alarm);
        }
        Ok((flush, outcome))
    }

    /// Runs `n` cadence-paced ticks (wall clocks sleep to the schedule,
    /// virtual clocks jump), collecting alarms from every tick; each
    /// tick's flush and outcome are handed to `on_tick`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the fleet was built
    /// without a serving clock.
    pub fn run_ticks(
        &mut self,
        n: usize,
        mut on_tick: impl FnMut(&FleetFlush, &TickOutcome),
    ) -> Result<(), CoreError> {
        let mut scratch = FleetFlush::default();
        let alarms = &mut self.alarms;
        self.fleet.run_ticks(n, &mut scratch, |flush, outcome| {
            for (patient, alarm) in &flush.alarms {
                alarms.entry(*patient).or_default().push(*alarm);
            }
            on_tick(flush, outcome);
        })
    }

    /// Current serving-clock reading (`None` when caller-driven).
    pub fn clock_now_ns(&self) -> Option<u64> {
        self.fleet.clock_now_ns()
    }

    /// Advances a **virtual** serving clock by `ns` (simulation time
    /// passing); no-op on a wall clock.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the fleet has no
    /// serving clock.
    pub fn advance_clock(&mut self, ns: u64) -> Result<(), CoreError> {
        self.fleet.advance_clock(ns)
    }

    /// Fleet-level counters (pending windows, shed counts, wall-clock
    /// serving throughput).
    pub fn stats(&self) -> FleetStats {
        self.fleet.stats()
    }

    /// Merged per-session stream accounting across admitted patients.
    pub fn stream_stats(&self) -> StreamStats {
        self.fleet.stream_stats()
    }

    /// One patient's session accounting.
    pub fn patient_stats(&self, patient: PatientId) -> Option<StreamStats> {
        self.fleet.patient_stats(patient)
    }

    /// Alarms collected for a patient across flushes (empty slice for
    /// unknown/alarm-free patients).
    pub fn patient_alarms(&self, patient: PatientId) -> &[AlarmEvent] {
        self.alarms.get(&patient).map_or(&[], Vec::as_slice)
    }

    /// Admitted patient ids in ascending order.
    pub fn patients(&self) -> impl Iterator<Item = PatientId> + '_ {
        self.fleet.patients()
    }

    /// Cost metadata of the shared engine backend.
    pub fn engine_info(&self) -> EngineInfo {
        self.fleet.engine_info()
    }

    /// Cohort-wide alarm report over everything flushed so far: alarms
    /// per patient, fleet + merged stream accounting, wall-clock pooled
    /// throughput and — when ground-truth seizure intervals are supplied
    /// per patient — pooled event metrics (event sensitivity, FA/24h,
    /// detection latency). Monitored time per patient is their session's
    /// ingested-sample count over the sampling rate — or, on the
    /// row-ingest path where no samples pass through the server, the
    /// span their decided windows cover
    /// (`(windows − 1) · stride + window_len` samples, whichever is
    /// larger), so FA/24h stays meaningful for the on-device-extraction
    /// topology, including overlapping-window geometries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `truth` names a patient
    /// that is not admitted.
    pub fn cohort_report(
        &self,
        truth: Option<&BTreeMap<PatientId, Vec<TruthEvent>>>,
    ) -> Result<FleetAlarmReport, CoreError> {
        let stats = self.fleet.stats();
        let stream = self.fleet.stream_stats();
        let fs = self.fleet.config().stream.fs;
        let stride = self.fleet.config().stream.stride;
        let window_len = self.fleet.config().stream.window_len;
        let events = match truth {
            None => None,
            Some(t) => {
                let scoring = EventScoring::for_windows(fs, window_len);
                let mut pooled = EventMetrics::default();
                for (patient, events) in t {
                    let Some(pstats) = self.fleet.patient_stats(*patient) else {
                        return Err(CoreError::InvalidConfig(format!(
                            "ground truth supplied for patient {patient}, who is not admitted"
                        )));
                    };
                    // A row-fed patient's decided windows span
                    // (windows − 1)·stride + window_len samples (not
                    // windows·stride, which under-counts overlapping
                    // geometries).
                    let window_span = if pstats.windows == 0 {
                        0
                    } else {
                        (pstats.windows - 1) * stride as u64 + window_len as u64
                    };
                    let monitored_s = pstats.samples_in.max(window_span) as f64 / fs;
                    pooled.merge(&score_events(
                        self.patient_alarms(*patient),
                        events,
                        monitored_s,
                        &scoring,
                    ));
                }
                Some(pooled)
            }
        };
        Ok(FleetAlarmReport {
            alarms: self.alarms.clone(),
            stats,
            stream,
            events,
        })
    }
}

/// What a fleet has produced so far: per-patient alarms, fleet counters,
/// merged stream accounting and — with ground truth — pooled event
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAlarmReport {
    /// Alarms collected per patient across all flushes, firing order.
    pub alarms: BTreeMap<PatientId, Vec<AlarmEvent>>,
    /// Fleet-level counters (incl. wall-clock serving throughput via
    /// [`FleetStats::wall_windows_per_sec`]).
    pub stats: FleetStats,
    /// Merged per-session accounting; its `windows_per_sec` is
    /// serial-equivalent, not wall-clock — see
    /// [`StreamStats::windows_per_sec`].
    pub stream: StreamStats,
    /// Pooled event metrics; `None` when no ground truth was supplied.
    pub events: Option<EventMetrics>,
}

impl FleetAlarmReport {
    /// Total alarms across the cohort.
    pub fn total_alarms(&self) -> usize {
        self.alarms.values().map(Vec::len).sum()
    }
}
