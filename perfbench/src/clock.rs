//! Timings at a fixed reference speed of the host.
//!
//! A shared 2-vCPU Intel Xeon VM changes speed by up to 1.9× within
//! seconds (see `NOTES.md`), so the same work timed in two runs there can
//! differ by more than any useful bound. Every timed segment
//! of an untraced run is therefore bracketed by a fixed computation of the
//! benchmark's own, [`reference`], and reported at the reference speed:
//! its raw seconds × [`REFERENCE_S`] / the mean of the two reference
//! times measured around it. A change to the program moves the segment
//! and not the reference; a change of the host's speed moves both.

use std::hint::black_box;
use std::time::Instant;

/// The nominal duration of one [`reference`] run, seconds: a normalized
/// time reads as the time the work would take on a host that runs the
/// reference in exactly this long (about the typical speed of a 2-vCPU
/// Intel Xeon VM).
pub const REFERENCE_S: f64 = 0.0005;

/// Allocations of one reference run.
const REFERENCE_ALLOCS: usize = 4000;

/// Allocations the reference keeps live at once.
const REFERENCE_LIVE: usize = 200;

/// Formatted lines of one reference run.
const REFERENCE_LINES: usize = 700;

/// Run the reference computation once and return its seconds: heap
/// allocation churn and number formatting. Of the reference mixes timed
/// next to the interpreter and to dispatch on a 2-vCPU VM (dependent loads
/// from an L2-sized table, pure integer arithmetic, DRAM-latency walks,
/// ordered maps, float buffers and these two), this pair followed the
/// program's changes of speed most closely (see `NOTES.md`).
pub fn reference() -> f64 {
    let t0 = Instant::now();
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(REFERENCE_LIVE + 1);
    for i in 0..REFERENCE_ALLOCS {
        let mut v = vec![i as u64; 16 + i % 64];
        v[0] ^= 1;
        live.push(v);
        if live.len() > REFERENCE_LIVE {
            live.swap_remove(i * 7 % REFERENCE_LIVE);
        }
    }
    let mut text = String::new();
    for i in 0..REFERENCE_LINES {
        text.push_str(&format!("op{i} {:.3} {:?}\n", i as f64 * 0.37, [i, i + 1]));
        if text.len() > 20_000 {
            text.clear();
        }
    }
    black_box((live.len(), text.len()));
    t0.elapsed().as_secs_f64()
}

/// `raw` seconds at the reference speed, given the [`reference`] times
/// measured just before and just after them.
pub fn at_reference_speed(raw: f64, before: f64, after: f64) -> f64 {
    raw * REFERENCE_S * 2.0 / (before + after)
}

/// Scales raw timings to the reference speed.
#[derive(Clone, Debug)]
pub struct Clock {
    /// The reference time measured after the previous segment; `None` for
    /// a clock that reports raw time (the traced run, whose coverage
    /// compares raw spans with a raw wall).
    last: Option<f64>,
}

impl Clock {
    /// A clock that reports time at the reference speed; runs the first
    /// reference.
    pub fn normalized() -> Clock {
        Clock {
            last: Some(reference()),
        }
    }

    /// A clock that reports raw time.
    pub fn raw() -> Clock {
        Clock { last: None }
    }

    /// `raw` seconds of a segment that has just ended, at the reference
    /// speed measured around it. Runs one reference, which also serves as
    /// the "before" of the next segment.
    pub fn scale(&mut self, raw: f64) -> f64 {
        match self.last {
            None => raw,
            Some(before) => {
                let after = reference();
                self.last = Some(after);
                at_reference_speed(raw, before, after)
            }
        }
    }

    /// Run `f` and return its result and its time on this clock.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let value = f();
        let raw = t0.elapsed().as_secs_f64();
        (value, self.scale(raw))
    }
}
