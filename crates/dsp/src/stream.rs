//! Streaming substrate: single-copy window assembly.
//!
//! [`WindowAssembler`] turns an arbitrary sequence of sample chunks (one
//! sample per callback, a second of samples per radio packet, a whole
//! session at once — the producer decides) into a deterministic sequence
//! of fixed-length analysis windows. Windows are addressed in *absolute
//! sample coordinates*: window `i` covers samples
//! `[i·stride, i·stride + window_len)` of the stream, independent of how
//! the samples were chunked on the way in. That chunking-invariance is
//! what makes a streaming pipeline bit-identical to its batch twin, and
//! the tests here sweep random chunk splits to pin it.
//!
//! Each sample is copied once, straight from the pushed chunk into the
//! buffer of every window that covers it — once in total under the
//! paper's non-overlapping protocol (`stride == window_len`). A completed
//! window leaves the assembler by value: its buffer *moves* to the
//! extractor, which reads it in place, and comes back through
//! [`WindowAssembler::recycle`] for a later window. There is no ring to
//! push through and no window to copy back out of one.

use crate::error::DspError;
use std::collections::VecDeque;

/// Recycled window buffers an assembler keeps at most. A solo stream
/// drains completed windows in lane groups of up to 8, so 8 spares keep
/// a steady stream of large pushes allocation-free; a fleet session
/// rarely holds more than one or two completed windows at a time.
const MAX_SPARE_WINDOWS: usize = 8;

/// One complete analysis window: its place in the stream and its
/// samples, in the buffer the assembler filled directly from the pushed
/// chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledWindow {
    /// Window index (0-based).
    pub index: u64,
    /// Absolute index of the window's first sample (`index × stride`).
    pub start: u64,
    /// The window's `window_len` samples.
    pub samples: Vec<f64>,
}

/// Chunk-fed sliding-window assembler.
///
/// Feed it chunks as they arrive; every window a chunk completes comes
/// out whole, in window order. Window `i` spans
/// `[i·stride, i·stride + window_len)` regardless of chunking, so any two
/// chunkings of the same stream yield the same windows, sample for
/// sample. Samples that no window covers (`stride > window_len`) are
/// skipped without a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAssembler {
    window_len: usize,
    stride: usize,
    /// Samples pushed so far (the absolute stream position).
    fed: u64,
    /// Windows opened so far — the index of the next window to open.
    opened: u64,
    /// Windows being filled, oldest first (at most
    /// `⌈window_len / stride⌉`). Every open window receives the same
    /// samples, so the oldest is always the fullest.
    open: VecDeque<AssembledWindow>,
    /// Buffers of extracted windows, reused by later windows.
    spare: Vec<Vec<f64>>,
    /// Samples copied into window buffers so far.
    copied: u64,
}

impl WindowAssembler {
    /// Assembler for `window_len`-sample windows every `stride` samples
    /// (`stride == window_len` gives the paper's non-overlapping
    /// protocol).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when either length is zero.
    pub fn new(window_len: usize, stride: usize) -> Result<Self, DspError> {
        if window_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "window_len",
                reason: "must be >= 1",
            });
        }
        if stride == 0 {
            return Err(DspError::InvalidParameter {
                name: "stride",
                reason: "must be >= 1",
            });
        }
        Ok(WindowAssembler {
            window_len,
            stride,
            fed: 0,
            opened: 0,
            open: VecDeque::new(),
            spare: Vec::new(),
            copied: 0,
        })
    }

    /// Total samples copied into window buffers so far: one copy per
    /// sample and covering window — exactly the samples fed, up to the
    /// last window's end, under non-overlapping windows.
    pub fn samples_copied(&self) -> u64 {
        self.copied
    }

    /// Appends a chunk of any length and moves every window it completes
    /// onto `done`, in window order. Returns how many it completed.
    pub fn push_into(&mut self, chunk: &[f64], done: &mut Vec<AssembledWindow>) -> usize {
        let before = done.len();
        let stride = self.stride as u64;
        let mut rest = chunk;
        while !rest.is_empty() {
            let next_start = self.opened * stride;
            if self.fed == next_start {
                let samples = self.spare_buffer();
                self.open.push_back(AssembledWindow {
                    index: self.opened,
                    start: next_start,
                    samples,
                });
                self.opened += 1;
                continue;
            }
            // Copy up to the next event: a window opening, or the oldest
            // open window filling up. `fed < next_start` here, and an
            // open window is never full, so every step makes progress.
            let mut n = usize::try_from(next_start - self.fed)
                .unwrap_or(usize::MAX)
                .min(rest.len());
            if let Some(oldest) = self.open.front() {
                n = n.min(self.window_len - oldest.samples.len());
            }
            let (head, tail) = rest.split_at(n);
            for w in &mut self.open {
                w.samples.extend_from_slice(head);
            }
            self.copied += (n * self.open.len()) as u64;
            self.fed += n as u64;
            rest = tail;
            if self
                .open
                .front()
                .is_some_and(|w| w.samples.len() == self.window_len)
            {
                done.extend(self.open.pop_front());
            }
        }
        done.len() - before
    }

    /// Hands an extracted window's buffer back for a later window to
    /// fill (kept up to a small cap; the rest are freed).
    pub fn recycle(&mut self, samples: Vec<f64>) {
        if self.spare.len() < MAX_SPARE_WINDOWS {
            self.spare.push(samples);
        }
    }

    /// An empty buffer with room for one window: a recycled one when
    /// available, so steady streaming allocates nothing.
    fn spare_buffer(&mut self) -> Vec<f64> {
        match self.spare.pop() {
            Some(mut samples) => {
                samples.clear();
                samples.reserve_exact(self.window_len);
                samples
            }
            None => Vec::with_capacity(self.window_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrand::rngs::StdRng;
    use simrand::{Rng, SeedableRng};

    fn push_all(a: &mut WindowAssembler, chunk: &[f64]) -> Vec<AssembledWindow> {
        let mut done = Vec::new();
        assert_eq!(a.push_into(chunk, &mut done), done.len());
        done
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(WindowAssembler::new(0, 1).is_err());
        assert!(WindowAssembler::new(1, 0).is_err());
        assert!(WindowAssembler::new(4, 2).is_ok());
    }

    #[test]
    fn scheduler_emits_expected_boundaries() {
        let mut a = WindowAssembler::new(4, 2).unwrap();
        let signal: Vec<f64> = (0..8).map(f64::from).collect();
        assert!(push_all(&mut a, &signal[..3]).is_empty()); // 3 < window
        let w0 = push_all(&mut a, &signal[3..4]); // window 0 at [0, 4)
        assert_eq!(w0.len(), 1);
        assert_eq!((w0[0].index, w0[0].start), (0, 0));
        assert_eq!(w0[0].samples, [0.0, 1.0, 2.0, 3.0]);
        let w12 = push_all(&mut a, &signal[4..]); // windows 1 [2,6) and 2 [4,8)
        let spans: Vec<(u64, u64)> = w12.iter().map(|w| (w.index, w.start)).collect();
        assert_eq!(spans, [(1, 2), (2, 4)]);
        assert_eq!(w12[0].samples, [2.0, 3.0, 4.0, 5.0]);
        assert_eq!(w12[1].samples, [4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn non_overlapping_windows_copy_each_sample_once() {
        let window = 32;
        let mut a = WindowAssembler::new(window, window).unwrap();
        let signal: Vec<f64> = (0..10 * window + 7).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut fed = 0;
        let mut windows = 0;
        while fed < signal.len() {
            let n = (1 + rng.next_u64() as usize % (3 * window)).min(signal.len() - fed);
            for w in push_all(&mut a, &signal[fed..fed + n]) {
                windows += 1;
                a.recycle(w.samples);
            }
            fed += n;
        }
        assert_eq!(windows, 10);
        // Every sample fed was copied exactly once — including the 7
        // already sitting in the open eleventh window.
        assert_eq!(a.samples_copied(), signal.len() as u64);
    }

    #[test]
    fn gaps_between_windows_are_skipped_without_a_copy() {
        let mut a = WindowAssembler::new(3, 5).unwrap();
        let signal: Vec<f64> = (0..13).map(f64::from).collect();
        let done = push_all(&mut a, &signal);
        let got: Vec<&[f64]> = done.iter().map(|w| w.samples.as_slice()).collect();
        assert_eq!(
            got,
            [&[0.0, 1.0, 2.0][..], &[5.0, 6.0, 7.0], &[10.0, 11.0, 12.0]]
        );
        assert_eq!(a.samples_copied(), 9);
    }

    /// A deterministic random sweep over chunk sizes (1 sample up to
    /// multiple windows) must produce identical windows regardless of
    /// chunking, each holding exactly the underlying signal — with
    /// recycled buffers in play.
    #[test]
    fn chunking_never_changes_window_boundaries_or_contents() {
        let window = 64;
        let stride = 48;
        let total = 1000usize;
        let signal: Vec<f64> = (0..total).map(|i| (i as f64 * 0.37).sin()).collect();

        // Reference: everything in one push.
        let reference: Vec<(u64, u64)> =
            push_all(&mut WindowAssembler::new(window, stride).unwrap(), &signal)
                .iter()
                .map(|w| (w.index, w.start))
                .collect();
        assert_eq!(reference.len(), (total - window) / stride + 1);

        let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
        for _round in 0..20 {
            let mut a = WindowAssembler::new(window, stride).unwrap();
            let mut spans = Vec::new();
            let mut fed = 0usize;
            while fed < total {
                // Chunk sizes from 1 sample to ~3 windows.
                let chunk = (1 + (rng.next_u64() as usize) % (3 * window)).min(total - fed);
                for w in push_all(&mut a, &signal[fed..fed + chunk]) {
                    let lo = w.start as usize;
                    assert_eq!(w.samples, signal[lo..lo + window], "window {}", w.index);
                    spans.push((w.index, w.start));
                    a.recycle(w.samples);
                }
                fed += chunk;
            }
            assert_eq!(spans, reference);
        }
    }
}
