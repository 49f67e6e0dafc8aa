//! Set-up: the Lite cohort at the paper's window geometry, the fitted
//! engines, and — outside the timed set-up — the per-session solo
//! streaming reference the correctness gate compares against.

use ecg_features::extract::{feature_names, BatchExtractScratch, WindowExtractor};
use ecg_features::FeatureMatrix;
use ecg_sim::dataset::{DatasetSpec, Scale};
use seizure_core::config::FitConfig;
use seizure_core::engine::{BitConfig, QuantizedEngine};
use seizure_core::stream::{PendingWindow, SharedEngine, StreamConfig, StreamingSession};
use seizure_core::trained::FloatPipeline;
use std::sync::Arc;

/// Cohort generation seed. Fixed, so every benchmark seed serves the
/// same model (same support-vector count, same per-decision work); the
/// benchmark seed varies how patients replay the cohort instead.
pub const COHORT_SEED: u64 = 42;

/// The paper's geometry: Lite cohort, 3-min windows at 128 Hz.
pub const SCALE: Scale = Scale::Lite;

/// Whole analysis windows each session replays (50-min sessions hold 16
/// complete 3-min windows; the partial tail is never a window).
pub const WINDOWS_PER_SESSION: usize = 16;

/// One ECG chunk: one second at 128 Hz.
pub const CHUNK_SAMPLES: usize = 128;

/// Which engine a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Quantized,
    Float,
}

/// Everything a workload serves from, built by [`build_cohort`].
pub struct Cohort {
    pub stream: StreamConfig,
    /// Per session: the samples of its whole windows, replayed as a loop
    /// (empty unless raw samples were requested).
    pub samples: Vec<Vec<f64>>,
    /// Per session and window: the pre-extracted 53-feature row, or
    /// `None` where extraction dropped the window.
    pub rows: Vec<Vec<Option<Vec<f64>>>>,
    /// Rows the engines were fitted on (every non-dropped window).
    pub matrix_rows: usize,
    pub pipeline: FloatPipeline,
    pub quantized: QuantizedEngine,
}

impl Cohort {
    pub fn engine(&self, kind: EngineKind) -> SharedEngine {
        match kind {
            EngineKind::Quantized => Arc::new(self.quantized.clone()),
            EngineKind::Float => Arc::new(self.pipeline.clone()),
        }
    }

    pub fn n_sessions(&self) -> usize {
        self.rows.len()
    }
}

/// Cohort synthesis, feature matrix, SMO fit and engine build. Raw
/// samples are kept only when the workload replays them.
pub fn build_cohort(keep_samples: bool) -> Cohort {
    let spec = DatasetSpec::new(SCALE, COHORT_SEED);
    let stream =
        StreamConfig::non_overlapping(SCALE.fs(), SCALE.window_s()).expect("paper window geometry");
    let mut matrix = FeatureMatrix {
        feature_names: feature_names(),
        ..Default::default()
    };
    let mut samples = Vec::new();
    let mut rows = Vec::new();
    let mut scratch = BatchExtractScratch::default();
    for session in &spec.sessions {
        let rec = session.synthesize();
        let extractor = WindowExtractor::new(rec.fs);
        let labels = rec.window_labels(SCALE.window_s());
        assert_eq!(labels.len(), WINDOWS_PER_SESSION, "Lite session geometry");
        let windows: Vec<&[f64]> = labels.iter().map(|l| rec.window_samples(l)).collect();
        let mut session_rows = vec![None; labels.len()];
        extractor.extract_batch_into(&windows, &mut scratch, |j, result| {
            if let Ok(row) = result {
                let y: i8 = if labels[j].is_seizure { 1 } else { -1 };
                matrix.push_row(row, y, rec.session_index, rec.patient_id);
                session_rows[j] = Some(row.to_vec());
            }
        });
        rows.push(session_rows);
        if keep_samples {
            let mut ecg = rec.ecg;
            ecg.truncate(WINDOWS_PER_SESSION * stream.window_len);
            samples.push(ecg);
        }
    }
    let pipeline = FloatPipeline::fit(&matrix, &FitConfig::default()).expect("fit cohort");
    let quantized = QuantizedEngine::from_pipeline(&pipeline, BitConfig::paper_choice())
        .expect("paper bit config");
    Cohort {
        stream,
        samples,
        rows,
        matrix_rows: matrix.n_rows(),
        pipeline,
        quantized,
    }
}

/// Expected decision of every cohort window: `expected[s][w]` is the
/// decision value's bit pattern, or `None` for a window extraction
/// drops.
pub type Reference = Vec<Vec<Option<u64>>>;

/// Per-session solo-streaming reference on `engine`.
///
/// Raw-sample workloads: a solo [`StreamingSession`] ingests each
/// session's window loop in 1-s chunks and decides every window with a
/// per-row `decision` call, exactly as `push_samples_into` does; its
/// rows must also equal the set-up's batch-extracted rows. Row
/// workloads: the per-row `decision` of each shipped row. Runs outside
/// the timed set-up.
pub fn reference(cohort: &Cohort, engine: &SharedEngine) -> Result<Reference, String> {
    let mut out = Vec::with_capacity(cohort.n_sessions());
    for (s, session_rows) in cohort.rows.iter().enumerate() {
        let rows: Vec<Option<Vec<f64>>> = if cohort.samples.is_empty() {
            session_rows.clone()
        } else {
            let mut solo = StreamingSession::new(Arc::clone(engine), cohort.stream)
                .map_err(|e| format!("reference session: {e}"))?;
            let mut pending: Vec<PendingWindow> = Vec::new();
            for chunk in cohort.samples[s].chunks(CHUNK_SAMPLES) {
                solo.extract_windows_into(chunk, &mut pending);
            }
            if pending.len() != WINDOWS_PER_SESSION {
                return Err(format!(
                    "session {s}: solo stream produced {} windows",
                    pending.len()
                ));
            }
            let streamed: Vec<Option<Vec<f64>>> = pending.into_iter().map(|w| w.row).collect();
            if streamed != *session_rows {
                return Err(format!(
                    "session {s}: streamed rows differ from batch-extracted rows"
                ));
            }
            streamed
        };
        out.push(
            rows.iter()
                .map(|r| r.as_deref().map(|r| engine.decision(r).to_bits()))
                .collect(),
        );
    }
    Ok(out)
}
