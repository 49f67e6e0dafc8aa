//! In-memory span recording for the traced run. Spans are taken only
//! around calls the benchmark itself makes into a layer's public
//! functions — nothing inside the program is instrumented — and are
//! written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `FleetScheduler::ingest` / `ingest_row`.
    Ingest,
    /// `FleetScheduler::tick_into`.
    Tick,
    /// `FleetScheduler::admit` / `remove` / `restart`.
    Lifecycle,
    /// Layer replay: `StreamingSession::extract_windows_into` on a chunk
    /// that completes no window.
    StreamPush,
    /// `biodsp::kernels::filtfilt_fused_in_ext`.
    Filtfilt,
    /// `biodsp::kernels::qrs_energy_into`.
    QrsEnergy,
    /// `PanTompkins::detect_into_with`.
    Detect,
    /// `PanTompkins::detect_lanes_into::<f64, 8>` (one span per group).
    DetectLanes8,
    /// `WindowExtractor::extract_into`.
    Extract,
    /// `WindowExtractor::extract_batch_into` over 8 windows.
    ExtractBatch8,
    /// `hrv_features` (with its `clean_rr` input).
    Hrv,
    /// `lorenz_features`.
    Lorenz,
    /// `extract_edr`.
    Edr,
    /// `ar_features`.
    Ar,
    /// `psd_features_with`.
    Psd,
    /// `ClassifierEngine::decision_rows_into` on one 256-row panel.
    EnginePanel,
    /// `AlarmStateMachine::on_decision`.
    Alarm,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Ingest => "fleet.ingest",
            Kind::Tick => "fleet.tick",
            Kind::Lifecycle => "fleet.lifecycle",
            Kind::StreamPush => "stream.push_chunk",
            Kind::Filtfilt => "dsp.filtfilt",
            Kind::QrsEnergy => "dsp.qrs_energy",
            Kind::Detect => "dsp.detect",
            Kind::DetectLanes8 => "dsp.detect_lanes8",
            Kind::Extract => "features.extract",
            Kind::ExtractBatch8 => "features.extract_batch8",
            Kind::Hrv => "features.hrv",
            Kind::Lorenz => "features.lorenz",
            Kind::Edr => "features.edr",
            Kind::Ar => "features.ar",
            Kind::Psd => "features.psd",
            Kind::EnginePanel => "engine.panel",
            Kind::Alarm => "alarm.on_decision",
        }
    }
}

/// One recorded span (`start_ns` from the tracer's epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Kind-specific payload: rows classified (tick), rows (panel),
    /// windows (lane group), otherwise 0.
    pub items: u64,
    /// Recorded inside a throughput-measuring slice.
    pub measured: bool,
}

/// Span log. Per-call ingest spans are kept as durations only — there
/// are millions of them per run — while every other span keeps its
/// start time.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub ingest_ns: Vec<u32>,
    /// Ingest spans inside throughput-measuring slices: count, total ns.
    pub ingest_measured: (u64, u64),
    /// Set while the run is in a throughput-measuring slice.
    pub measured: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            ingest_ns: Vec::new(),
            ingest_measured: (0, 0),
            measured: false,
        }
    }

    pub fn record(&mut self, kind: Kind, start: Instant, items: u64) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        if kind == Kind::Ingest {
            self.ingest_ns.push(dur_ns.min(u64::from(u32::MAX)) as u32);
            if self.measured {
                self.ingest_measured.0 += 1;
                self.ingest_measured.1 += dur_ns;
            }
        } else {
            self.spans.push(Span {
                kind,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                items,
                measured: self.measured,
            });
        }
    }

    /// Spans of `kind`: (count, total ns, durations).
    pub fn of(&self, kind: Kind) -> (u64, u64, Vec<u64>) {
        if kind == Kind::Ingest {
            let d: Vec<u64> = self.ingest_ns.iter().map(|&v| u64::from(v)).collect();
            return (d.len() as u64, d.iter().sum(), d);
        }
        let d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .collect();
        (d.len() as u64, d.iter().sum(), d)
    }

    /// Mean span of `kind` in µs (0 without spans).
    pub fn mean_us(&self, kind: Kind) -> f64 {
        let (n, total, _) = self.of(kind);
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Writes the span log: every non-ingest span as a tab-separated
    /// line, then a per-kind summary (ingest spans only as a summary).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# kind\tstart_ns\tdur_ns\titems\tmeasured")?;
        for s in &self.spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}",
                s.kind.label(),
                s.start_ns,
                s.dur_ns,
                s.items,
                u8::from(s.measured)
            )?;
        }
        writeln!(f, "# summary: kind\tcount\ttotal_ns")?;
        for kind in ALL_KINDS {
            let (n, total, _) = self.of(kind);
            if n > 0 {
                writeln!(f, "# {}\t{n}\t{total}", kind.label())?;
            }
        }
        f.flush()
    }
}

const ALL_KINDS: [Kind; 17] = [
    Kind::Ingest,
    Kind::Tick,
    Kind::Lifecycle,
    Kind::StreamPush,
    Kind::Filtfilt,
    Kind::QrsEnergy,
    Kind::Detect,
    Kind::DetectLanes8,
    Kind::Extract,
    Kind::ExtractBatch8,
    Kind::Hrv,
    Kind::Lorenz,
    Kind::Edr,
    Kind::Ar,
    Kind::Psd,
    Kind::EnginePanel,
    Kind::Alarm,
];
