//! Serving clock: tick cadence, deadline accounting and log-bucketed
//! latency histograms — the measurement substrate of the tick-driven
//! runtime ([`crate::fleet::FleetScheduler::tick_into`]).
//!
//! ## Why a histogram and not an average
//!
//! [`crate::stream::StreamStats`] used to carry only a latency *sum* and
//! *max*; an SLO cares about the tail (p99), which no sum can recover.
//! [`LatencyHistogram`] records every sample into logarithmic buckets —
//! allocation-free (one inline array, no heap), mergeable (bucket-wise
//! add, so per-session histograms fold into cohort histograms exactly),
//! and quantile-queryable with a bounded relative error.
//!
//! ## Bucket scheme
//!
//! Values below 16 ns index their own exact bucket. From 16 ns up, each
//! power-of-two octave splits into 8 sub-buckets (`SUB_BITS` = 3), so
//! a reported quantile overestimates the true value by at most one
//! sub-bucket width: **12.5 %** relative error, constant across the
//! whole `u64` range. 16 exact + 60 octaves × 8 = `BUCKETS` = 496
//! `u64` counters ≈ 4 KiB per histogram. Quantiles are additionally
//! clamped to the exactly-tracked `[min, max]`, so single-sample and
//! extreme quantiles are exact.
//!
//! ## The tick driver
//!
//! [`FleetClock`] turns "flush whenever the caller feels like it" into a
//! fixed cadence: every [`TickConfig::cadence_ns`] the fleet owes one
//! flush, and the clock accounts for whether the tick finished before
//! the next one was due (met/missed/slack, [`TickOutcome`]). The time
//! source is either the wall ([`ClockSource::Wall`]) or a deterministic
//! virtual clock ([`ClockSource::Virtual`]) in which tick work is
//! *modeled* as `rows × ns_per_row` — the mode the overload simulations
//! and the bit-identity tests run under, because it is exactly
//! reproducible across runs and worker counts. The schedule slides: a
//! tick is due one cadence after the previous tick's *nominal* start,
//! but never before the previous tick actually ended (an overrunning
//! fleet ticks as fast as it can instead of accumulating a catch-up
//! burst).

use crate::error::CoreError;
use std::time::Instant;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` buckets, bounding quantile overestimation at
/// `2^-SUB_BITS` (12.5 %) relative error.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUBS: usize = 1 << SUB_BITS;
/// Values below this are exact (one bucket per nanosecond).
const LINEAR: usize = 1 << (SUB_BITS + 1);
/// Total buckets: [`LINEAR`] exact + one octave of [`SUBS`] sub-buckets
/// per leading-bit position from `SUB_BITS + 1` to 63.
const BUCKETS: usize = LINEAR + (64 - (SUB_BITS as usize + 1)) * SUBS;

/// Bucket index of a value (always `< BUCKETS`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    // v >= LINEAR = 2^(SUB_BITS+1), so the leading bit position is at
    // least SUB_BITS + 1 and the shift below is non-negative.
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    LINEAR + (msb - (SUB_BITS + 1)) as usize * SUBS + sub
}

/// Inclusive upper bound of a bucket (what a quantile in this bucket
/// reports, before the exact min/max clamp).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR {
        return i as u64;
    }
    let msb = SUB_BITS + 1 + ((i - LINEAR) / SUBS) as u32;
    let sub = ((i - LINEAR) % SUBS) as u64;
    let lower = (1u64 << msb) | (sub << (msb - SUB_BITS));
    // `(width - 1)` first: the top bucket's upper bound is exactly
    // `u64::MAX`, so `lower + width` would overflow.
    lower + ((1u64 << (msb - SUB_BITS)) - 1)
}

/// Allocation-free log-bucketed latency histogram: p50/p99/max + jitter
/// with ≤ 12.5 % quantile error, mergeable across sessions and fleets
/// (see the module docs for the bucket scheme).
///
/// `record` is a handful of integer ops on an inline array — cheap
/// enough for the per-window serving path. Equality is exact (all
/// fields are integers), so bit-identity tests can compare histograms
/// directly.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    sum_ns: u128,
    /// Exact minimum; `u64::MAX` while empty.
    min_ns: u64,
    /// Exact maximum; 0 while empty.
    max_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

// 496 bucket counters are noise in debug output; show the shape instead.
impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50_ns", &self.p50_ns())
            .field("p99_ns", &self.p99_ns())
            .field("max_ns", &self.max_ns())
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        // `bucket_index` is always in range by construction; `get_mut`
        // keeps the hot path free of a bounds-check panic site.
        if let Some(b) = self.buckets.get_mut(bucket_index(ns)) {
            *b += 1;
        }
    }

    /// Folds another histogram in (bucket-wise add — associative and
    /// commutative, so any merge order yields the same histogram).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (ns).
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean (0.0 while empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Exact minimum sample (0 while empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact maximum sample (0 while empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`q` in `[0, 1]`), overestimating by at most
    /// 12.5 % and clamped to the exact observed `[min, max]`; 0 while
    /// empty. `quantile_ns(1.0)` is the exact maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median (see [`LatencyHistogram::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th percentile (see [`LatencyHistogram::quantile_ns`]).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Tail jitter: p99 − p50 — how much worse the tail is than the
    /// typical window, the number a cadence budget has to absorb.
    pub fn jitter_ns(&self) -> u64 {
        self.p99_ns().saturating_sub(self.p50_ns())
    }
}

/// Where a [`FleetClock`] reads time from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSource {
    /// Real time: tick work is measured on the monotonic wall clock.
    Wall,
    /// Deterministic virtual time: the clock only moves when advanced
    /// explicitly ([`FleetClock::advance`]) or by the *modeled* cost of
    /// a tick — `rows_classified × ns_per_row`. Runs are exactly
    /// reproducible: same ingest schedule ⇒ same timestamps, same
    /// histograms, at every worker count.
    Virtual {
        /// Modeled classification cost per feature row (virtual ns).
        ns_per_row: u64,
    },
}

/// Tick cadence + time source of a tick-driven fleet
/// ([`crate::fleet::FleetConfig::tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickConfig {
    /// Fixed flush cadence: one tick is due every `cadence_ns` (> 0).
    pub cadence_ns: u64,
    /// Wall or deterministic virtual time.
    pub source: ClockSource,
}

impl TickConfig {
    /// Wall-clock ticks at `cadence_ns`.
    pub fn wall(cadence_ns: u64) -> Self {
        TickConfig {
            cadence_ns,
            source: ClockSource::Wall,
        }
    }

    /// Deterministic virtual-clock ticks at `cadence_ns`, tick work
    /// modeled as `ns_per_row` virtual nanoseconds per classified row.
    pub fn deterministic(cadence_ns: u64, ns_per_row: u64) -> Self {
        TickConfig {
            cadence_ns,
            source: ClockSource::Virtual { ns_per_row },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero cadence (a tick
    /// every 0 ns is not a schedule).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.cadence_ns == 0 {
            return Err(CoreError::InvalidConfig(
                "tick cadence must be > 0 ns".into(),
            ));
        }
        Ok(())
    }
}

/// Start-of-tick timing handed from [`FleetClock::begin_tick`] to
/// [`FleetClock::end_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickTiming {
    /// 0-based tick index.
    pub index: u64,
    /// Nominal due time of this tick.
    pub scheduled_ns: u64,
    /// Actual start: `max(now, scheduled)` — late when the fleet is
    /// behind schedule.
    pub start_ns: u64,
    /// The tick must end by here (one cadence after its nominal due
    /// time) to count as met.
    pub deadline_ns: u64,
}

/// One completed tick's deadline accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome {
    /// 0-based tick index.
    pub index: u64,
    /// Nominal due time.
    pub scheduled_ns: u64,
    /// Actual start (`max(now, scheduled)`).
    pub start_ns: u64,
    /// When the tick's flush finished (measured or modeled).
    pub end_ns: u64,
    /// `scheduled + cadence`.
    pub deadline_ns: u64,
    /// `end − start`: the flush work this tick performed.
    pub work_ns: u64,
    /// Whether the tick ended by its deadline.
    pub met: bool,
    /// `deadline − end`: headroom when positive, overrun when negative.
    pub slack_ns: i64,
}

/// Fixed-cadence tick driver over a wall or virtual time source (see
/// the module docs). Owned by a tick-driven
/// [`crate::fleet::FleetScheduler`]; usable standalone for any
/// cadence-driven loop.
#[derive(Debug, Clone)]
pub struct FleetClock {
    cfg: TickConfig,
    /// Wall-mode time base.
    epoch: Instant,
    /// Virtual-mode reading ("now"); unused under [`ClockSource::Wall`].
    vnow_ns: u64,
    /// Nominal due time of the next tick.
    next_tick_ns: u64,
    /// Ticks completed.
    ticks: u64,
}

impl FleetClock {
    /// Builds a clock; the first tick is due one cadence after now.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid
    /// [`TickConfig`].
    pub fn new(cfg: TickConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        Ok(FleetClock {
            cfg,
            epoch: Instant::now(),
            vnow_ns: 0,
            next_tick_ns: cfg.cadence_ns,
            ticks: 0,
        })
    }

    /// The clock's configuration.
    pub fn config(&self) -> TickConfig {
        self.cfg
    }

    /// Current reading (ns since the clock was built / virtual zero).
    pub fn now_ns(&self) -> u64 {
        match self.cfg.source {
            ClockSource::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockSource::Virtual { .. } => self.vnow_ns,
        }
    }

    /// Nominal due time of the next tick.
    pub fn next_tick_ns(&self) -> u64 {
        self.next_tick_ns
    }

    /// Ticks completed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Advances a virtual clock by `ns` (models inter-tick time passing
    /// — device arrivals, idle waits). A no-op on a wall clock, which
    /// advances itself.
    pub fn advance(&mut self, ns: u64) {
        if matches!(self.cfg.source, ClockSource::Virtual { .. }) {
            self.vnow_ns = self.vnow_ns.saturating_add(ns);
        }
    }

    /// Starts a tick: the tick begins at `max(now, scheduled)` and must
    /// end within one cadence of its *nominal* due time to meet its
    /// deadline.
    pub fn begin_tick(&mut self) -> TickTiming {
        let scheduled = self.next_tick_ns;
        TickTiming {
            index: self.ticks,
            scheduled_ns: scheduled,
            start_ns: self.now_ns().max(scheduled),
            deadline_ns: scheduled.saturating_add(self.cfg.cadence_ns),
        }
    }

    /// Ends a tick that classified `rows` feature rows: computes the
    /// tick's end (wall: measured; virtual: `start + rows × ns_per_row`,
    /// and the clock advances to it), scores the deadline and slides the
    /// schedule (`next = max(scheduled + cadence, end)` — an overrun
    /// delays the schedule instead of queueing a catch-up burst).
    pub fn end_tick(&mut self, t: &TickTiming, rows: u64) -> TickOutcome {
        let end_ns = match self.cfg.source {
            ClockSource::Wall => self.now_ns().max(t.start_ns),
            ClockSource::Virtual { ns_per_row } => {
                t.start_ns.saturating_add(rows.saturating_mul(ns_per_row))
            }
        };
        if matches!(self.cfg.source, ClockSource::Virtual { .. }) {
            self.vnow_ns = end_ns;
        }
        self.next_tick_ns = t
            .scheduled_ns
            .saturating_add(self.cfg.cadence_ns)
            .max(end_ns);
        self.ticks += 1;
        TickOutcome {
            index: t.index,
            scheduled_ns: t.scheduled_ns,
            start_ns: t.start_ns,
            end_ns,
            deadline_ns: t.deadline_ns,
            work_ns: end_ns - t.start_ns,
            met: end_ns <= t.deadline_ns,
            slack_ns: (i128::from(t.deadline_ns) - i128::from(end_ns))
                .clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_then_log() {
        // Linear region: every value below LINEAR is its own bucket.
        for v in 0..LINEAR as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // Octave boundaries land on fresh buckets and the index is
        // monotone non-decreasing with an in-range result everywhere.
        let mut prev = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v.saturating_add(1)] {
                let i = bucket_index(probe);
                assert!(i < BUCKETS, "index {i} out of range for {probe}");
                assert!(bucket_upper(i) >= probe, "upper bound covers the value");
                assert!(i >= prev || probe < prev as u64, "monotone");
                prev = i.max(prev);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Sub-bucket width bounds the relative error at 12.5 %.
        for &v in &[17u64, 100, 1_000, 123_456, 7_777_777, u64::MAX / 3] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!((upper - v) as f64 <= v as f64 * 0.125, "12.5% bound at {v}");
        }
    }

    #[test]
    fn histogram_empty_and_one_sample_edges() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!((h.min_ns(), h.max_ns()), (0, 0));
        assert_eq!((h.p50_ns(), h.p99_ns(), h.jitter_ns()), (0, 0, 0));

        // One sample: every quantile is exact (min/max clamp).
        let mut h = LatencyHistogram::new();
        h.record(1_234_567);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_ns(), 1_234_567);
        assert_eq!(h.max_ns(), 1_234_567);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 1_234_567, "q={q}");
        }
        assert_eq!(h.jitter_ns(), 0);
        assert_eq!(h.mean_ns(), 1_234_567.0);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 in a scrambled order (order cannot matter).
        let mut v = 1u64;
        for _ in 0..1000 {
            v = (v * 7919) % 1009;
            h.record(v + 1);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50_ns();
        let p99 = h.p99_ns();
        assert!(p50 <= p99 && p99 <= h.max_ns());
        assert!(h.min_ns() >= 1 && h.max_ns() <= 1009);
        // p50 of ~uniform 1..=1009 sits near 505, within the 12.5 %
        // bucket error.
        assert!((400..=600).contains(&p50), "p50 = {p50}");
        assert_eq!(h.jitter_ns(), p99 - p50);
        assert_eq!(h.quantile_ns(1.0), h.max_ns());
    }

    #[test]
    fn histogram_merge_is_associative_and_exact() {
        let fill = |seed: u64, n: u64| {
            let mut h = LatencyHistogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(x >> 40);
            }
            h
        };
        let (a, b, c) = (fill(1, 100), fill(2, 57), fill(3, 3));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is associative");
        assert_eq!(left.count(), 160);
        assert_eq!(left.sum_ns(), a.sum_ns() + b.sum_ns() + c.sum_ns());
        assert_eq!(left.max_ns(), a.max_ns().max(b.max_ns()).max(c.max_ns()));
        assert_eq!(left.min_ns(), a.min_ns().min(b.min_ns()).min(c.min_ns()));
        // Merging an empty histogram is the identity.
        let mut id = left.clone();
        id.merge(&LatencyHistogram::default());
        assert_eq!(id, left);
    }

    #[test]
    fn tick_config_validates() {
        assert!(TickConfig::wall(0).validate().is_err());
        assert!(TickConfig::wall(1).validate().is_ok());
        assert!(TickConfig::deterministic(1_000_000, 500).validate().is_ok());
        assert!(FleetClock::new(TickConfig::wall(0)).is_err());
    }

    #[test]
    fn virtual_clock_ticks_deterministically() {
        let cfg = TickConfig::deterministic(1_000, 10);
        let mut c = FleetClock::new(cfg).unwrap();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.next_tick_ns(), 1_000);

        // Unsaturated tick: 50 rows × 10 ns = 500 ns work, inside the
        // 1000 ns budget.
        let t = c.begin_tick();
        assert_eq!((t.index, t.scheduled_ns, t.start_ns), (0, 1_000, 1_000));
        let o = c.end_tick(&t, 50);
        assert_eq!((o.end_ns, o.work_ns), (1_500, 500));
        assert!(o.met);
        assert_eq!(o.slack_ns, 500);
        assert_eq!(c.now_ns(), 1_500);
        assert_eq!(c.next_tick_ns(), 2_000);
        assert_eq!(c.ticks(), 1);

        // Overrunning tick: 300 rows × 10 ns = 3000 ns blows the
        // deadline; the schedule slides to the tick's end instead of
        // bursting to catch up.
        let t = c.begin_tick();
        assert_eq!(t.start_ns, 2_000);
        let o = c.end_tick(&t, 300);
        assert_eq!(o.end_ns, 5_000);
        assert!(!o.met);
        assert_eq!(o.slack_ns, -2_000);
        assert_eq!(c.next_tick_ns(), 5_000);

        // `advance` models inter-tick time passing (relative to now =
        // 5000). Sleeping through whole periods makes the next tick
        // late-by-schedule: it starts at the advanced now, not the
        // nominal due time, and the deadline verdict reflects the slip
        // even though the tick itself did zero work.
        c.advance(10_000);
        let t = c.begin_tick();
        assert_eq!(
            (t.scheduled_ns, t.start_ns, t.deadline_ns),
            (5_000, 15_000, 6_000)
        );
        let o = c.end_tick(&t, 0);
        assert_eq!(o.work_ns, 0);
        assert!(!o.met);
        assert_eq!(o.slack_ns, -9_000);
        // The schedule re-anchors at the late tick's end, not at the
        // stale nominal time.
        assert_eq!(c.next_tick_ns(), 15_000);
        // Identical runs are bit-identical.
        let rerun = |rows: &[u64]| {
            let mut c = FleetClock::new(cfg).unwrap();
            rows.iter()
                .map(|&r| {
                    let t = c.begin_tick();
                    c.end_tick(&t, r)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rerun(&[50, 300, 0, 7]), rerun(&[50, 300, 0, 7]));
    }

    #[test]
    fn wall_clock_measures_real_time() {
        let mut c = FleetClock::new(TickConfig::wall(1)).unwrap();
        let n0 = c.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_ns() > n0);
        // `advance` is a documented no-op on the wall source.
        c.advance(u64::MAX);
        let t = c.begin_tick();
        let o = c.end_tick(&t, 1);
        assert!(o.end_ns >= o.start_ns);
        assert_eq!(c.ticks(), 1);
        // With a 1 ns cadence the deadline is hopeless — accounting
        // still adds up.
        assert_eq!(o.work_ns, o.end_ns - o.start_ns);
    }
}
