//! Per-phase bookkeeping and the result line.

use crate::stats::{median, percentile, ratio};
use crate::{END_TO_END, PER_LAYER};

/// What one measured phase of a closed loop saw. Latencies are the time
/// spent inside the system's calls; the benchmark's own correctness checks
/// and input generation run outside them.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations tried, correctness gates included.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Latency of each of the workload's main operations, in ms.
    pub op_ms: Vec<f64>,
    /// Latency of each read, in ms.
    pub read_ms: Vec<f64>,
    /// Seconds spent inside measured calls.
    pub busy_s: f64,
    /// `(operations, reads, busy seconds)` at the end of each round.
    rounds: Vec<(usize, usize, f64)>,
}

/// Which latency series a statistic reads.
#[derive(Debug, Clone, Copy)]
pub enum Series {
    Op,
    Read,
}

impl Tally {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Closes a round of the loop: a deck, a batch of writes, or a cycle.
    /// Every round does the same mix of work.
    pub fn end_round(&mut self) {
        self.rounds
            .push((self.op_ms.len(), self.read_ms.len(), self.busy_s));
    }

    /// Per-round figures, from consecutive round marks.
    fn per_round<T>(
        &self,
        mut f: impl FnMut((usize, usize, f64), (usize, usize, f64)) -> T,
    ) -> Vec<T> {
        let mut last = (0, 0, 0.0);
        self.rounds
            .iter()
            .map(|&mark| {
                let value = f(last, mark);
                last = mark;
                value
            })
            .collect()
    }

    /// Median over rounds of operations per busy second.
    ///
    /// Every end-to-end figure is a median over rounds: neighbours on a
    /// shared host slow single rounds by up to a fifth, and the median of
    /// rounds is steadier against such bursts than a figure over the whole
    /// run. A loop too short to close a round falls back to the whole run.
    pub fn ops_per_s(&self) -> f64 {
        let rates = self.per_round(|a, b| ratio((b.0 - a.0) as f64, b.2 - a.2));
        if rates.is_empty() {
            ratio(self.op_ms.len() as f64, self.busy_s)
        } else {
            median(&rates)
        }
    }

    /// Median over rounds of the `q`-percentile latency of `series`.
    pub fn latency_ms(&self, series: Series, q: f64) -> f64 {
        let samples = match series {
            Series::Op => &self.op_ms,
            Series::Read => &self.read_ms,
        };
        let per_round = self.per_round(|a, b| match series {
            Series::Op => percentile(&samples[a.0..b.0], q),
            Series::Read => percentile(&samples[a.1..b.1], q),
        });
        if per_round.is_empty() {
            percentile(samples, q)
        } else {
            median(&per_round)
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Median set-up time over the run's set-up repetitions.
    pub setup_s: f64,
    pub untraced: Tally,
    /// The traced phase (`--trace 1` only).
    pub traced: Option<Tally>,
    /// Gates run outside either phase (e.g. recovery after the loop).
    pub gates: Tally,
    /// Per-layer metrics by name (traced phase and set-up).
    pub layers: Vec<(&'static str, f64)>,
    /// One JSON object describing configuration and realised mix.
    pub detail: String,
}

impl Outcome {
    fn attempted_failed(&self) -> (u64, u64) {
        let tallies = [
            Some(&self.untraced),
            self.traced.as_ref(),
            Some(&self.gates),
        ];
        tallies
            .into_iter()
            .flatten()
            .fold((0, 0), |(a, f), t| (a + t.attempted, f + t.failed))
    }

    fn end_to_end(&self) -> Vec<f64> {
        let t = &self.untraced;
        vec![
            self.setup_s,
            t.ops_per_s(),
            t.latency_ms(Series::Op, 0.5),
            t.latency_ms(Series::Op, 0.9),
            t.latency_ms(Series::Read, 0.5),
            t.latency_ms(Series::Read, 0.9),
        ]
    }

    fn per_layer(&self) -> Vec<f64> {
        for (name, _) in &self.layers {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "layer metric {name} is not declared"
            );
        }
        let (attempted, failed) = self.attempted_failed();
        let overhead = self.traced.as_ref().map_or(0.0, |traced| {
            (ratio(self.untraced.ops_per_s(), traced.ops_per_s()) - 1.0) * 100.0
        });
        PER_LAYER
            .iter()
            .map(|(name, _)| match *name {
                "trace.overhead_pct" => overhead,
                "error_rate" => ratio(failed as f64, attempted as f64),
                _ => self
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn result_line(&self, trace: bool) -> String {
        let (names, values) = if trace {
            (PER_LAYER, self.per_layer())
        } else {
            (END_TO_END, self.end_to_end())
        };
        let (attempted, mut failed) = self.attempted_failed();
        let metrics: Vec<String> = names
            .iter()
            .zip(values)
            .map(|((name, unit), value)| {
                // A non-finite figure is a benchmark fault: report it as
                // one instead of printing invalid JSON.
                let value = if value.is_finite() {
                    value
                } else {
                    failed += 1;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}
