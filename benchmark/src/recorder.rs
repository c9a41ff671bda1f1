//! The closed-loop stopwatch: one client thread issues an operation, waits
//! for it, records its latency under the operation's kind, and moves on.

use crate::report::Obj;
use crate::stats;
use std::fmt::Display;
use std::time::Instant;

/// Latency samples per kind and per pass, and the failure tally.
#[derive(Debug)]
pub struct Recorder {
    kinds: Vec<String>,
    samples: Vec<Vec<u64>>,
    pass_nanos: Vec<u64>,
    current_pass: u64,
    /// Timed operations plus output checks.
    pub attempted: u64,
    /// Operations that returned `Err` plus checks that did not hold.
    pub failed: u64,
    /// Off during set-up and warm-up: operations run and failures count,
    /// but no latency is kept.
    pub recording: bool,
}

impl Recorder {
    pub fn new(kinds: Vec<String>) -> Recorder {
        Recorder {
            samples: kinds.iter().map(|_| Vec::new()).collect(),
            kinds,
            pass_nanos: Vec::new(),
            current_pass: 0,
            attempted: 0,
            failed: 0,
            recording: false,
        }
    }

    /// Run one operation of `kind` and time it. An `Err` counts as a failed
    /// operation and yields `None`.
    pub fn op<T, E: Display>(
        &mut self,
        kind: usize,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        let nanos = start.elapsed().as_nanos() as u64;
        if self.recording {
            self.attempted += 1;
            self.samples[kind].push(nanos);
            self.current_pass += nanos;
        }
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                if !self.recording {
                    self.attempted += 1;
                }
                self.failed += 1;
                eprintln!("FAILED op {}: {e}", self.kinds[kind]);
                None
            }
        }
    }

    /// Count one output check; `what` describes it when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED check: {}", what());
        }
    }

    /// Close the current pass: its time is the sum of its operations'
    /// latencies, so checks made between operations are not in it.
    pub fn end_pass(&mut self) {
        if self.recording {
            self.pass_nanos.push(self.current_pass);
        }
        self.current_pass = 0;
    }

    pub fn passes(&self) -> usize {
        self.pass_nanos.len()
    }

    pub fn pass_samples(&self) -> &[u64] {
        &self.pass_nanos
    }

    /// Geometric mean, over the kinds, of each kind's median latency (ms).
    pub fn geomean_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::ms(stats::median(s)))
            .collect();
        stats::geomean(&medians)
    }

    /// Timed operations per second of timed phase (the sum of pass times).
    pub fn ops_per_s(&self) -> f64 {
        let ops: usize = self.samples.iter().map(Vec::len).sum();
        let seconds = self.pass_nanos.iter().sum::<u64>() as f64 / 1e9;
        if seconds > 0.0 {
            ops as f64 / seconds
        } else {
            0.0
        }
    }

    /// `{"<kind>": {"p50_ms": .., "n": ..}, ..}` in kind order.
    pub fn kinds_json(&self) -> String {
        let mut obj = Obj::new();
        for (kind, samples) in self.kinds.iter().zip(&self.samples) {
            let row = Obj::new()
                .num("p50_ms", stats::ms(stats::median(samples)))
                .int("n", samples.len() as u64)
                .finish();
            obj = obj.raw(kind, &row);
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut rec = Recorder::new(vec!["a".into(), "b".into()]);
        assert_eq!(rec.op(0, || Err::<(), _>("warm-up failure")), None);
        assert_eq!((rec.attempted, rec.failed), (1, 1));
        rec.recording = true;
        assert_eq!(rec.op(0, || Ok::<_, String>(1)), Some(1));
        assert_eq!(rec.op(1, || Err::<u8, _>("boom")), None);
        rec.check(false, || "mismatch".into());
        rec.end_pass();
        assert_eq!((rec.attempted, rec.failed, rec.passes()), (4, 3, 1));
        assert_eq!(rec.samples[0].len(), 1);
    }
}
