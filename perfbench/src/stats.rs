//! Order statistics and open-loop latency accounting.

use std::time::Instant;

/// One printed metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The tail percentiles the benchmark may report, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps `0.99 * 1000` at rank 990 whichever way it rounds.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile in [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even p90 has
/// too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Whether `p` may be reported from `n` samples: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    tail_percentile(n).is_some_and(|highest| p <= highest)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of `values` without the lowest and highest fifth: smooth
/// where a median would jump between two modes, and deaf to a few
/// outliers where a mean would follow them.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// `values` made non-increasing by pooling adjacent violators: the
/// least-squares non-increasing fit.
fn non_increasing(values: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in values {
        blocks.push((v, 1));
        while let [.., (s1, n1), (s2, n2)] = blocks[..] {
            if s1 / n1 as f64 >= s2 / n2 as f64 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (s1 + s2, n1 + n2);
        }
    }
    blocks
        .into_iter()
        .flat_map(|(sum, n)| std::iter::repeat_n(sum / n as f64, n))
        .collect()
}

/// The rate at which the share of trials meeting a limit falls through
/// one half, from `shares` measured at ascending `rates`. The shares are
/// first fitted non-increasing (a higher rate cannot truly meet the limit
/// more often), then the crossing is interpolated in log-rate between the
/// last rate at or above one half and the next. The last rate when every
/// share is at or above one half; `None` when none is.
pub fn half_crossing(rates: &[f64], shares: &[f64]) -> Option<f64> {
    let fit = non_increasing(shares);
    let last = fit.iter().rposition(|&f| f >= 0.5)?;
    Some(match fit.get(last + 1) {
        None => rates[last],
        Some(&below) => {
            let t = (fit[last] - 0.5) / (fit[last] - below);
            (rates[last].ln() + t * (rates[last + 1] / rates[last]).ln()).exp()
        }
    })
}

/// The timeline of one open-loop request, relative to the load
/// generator's start.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    /// When the schedule said the request should be sent.
    pub due: Instant,
    /// When the generator actually wrote it.
    pub sent: Instant,
    /// When its whole response had been read, or `None` if it failed.
    pub done: Option<Instant>,
}

/// Latency samples of one open-loop step.
#[derive(Debug, Default, Clone)]
pub struct StepLatency {
    /// Due-to-done latency of every answered request, milliseconds,
    /// ascending. Timing from the due time (not the send time) charges a
    /// stall to every request it delayed, including those the generator
    /// could not send on time.
    pub latency_ms: Vec<f64>,
    /// Due-to-sent lateness of the generator, milliseconds, ascending.
    pub lag_ms: Vec<f64>,
    /// Requests that got no (or a wrong) answer.
    pub failed: usize,
}

impl StepLatency {
    /// Accounts a step's requests.
    pub fn from_times(times: &[RequestTimes]) -> Self {
        let ms = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_secs_f64() * 1e3
        };
        let mut out = Self::default();
        for t in times {
            out.lag_ms.push(ms(t.sent, t.due));
            match t.done {
                Some(done) => out.latency_ms.push(ms(done, t.due)),
                None => out.failed += 1,
            }
        }
        out.latency_ms.sort_by(f64::total_cmp);
        out.lag_ms.sort_by(f64::total_cmp);
        out
    }

    /// Requests attempted in the step.
    pub fn attempted(&self) -> usize {
        self.latency_ms.len() + self.failed
    }

    /// Latency percentile `p`; a failed request counts as missing every
    /// latency limit, so it ranks above every answered one.
    pub fn latency_pct(&self, p: f64) -> f64 {
        match self.latency_ms.get(rank(self.attempted(), p) - 1) {
            Some(&v) => v,
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert!(percentile_allowed(1000, 99.0));
        assert!(percentile_allowed(1000, 50.0));
        assert!(!percentile_allowed(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn half_crossing_interpolates_the_fitted_shares() {
        let rates = [1000.0, 2000.0, 4000.0, 8000.0];
        // Clean cliff: 1 at 2000, 0 at 4000 -> halfway in log-rate.
        let r = half_crossing(&rates, &[1.0, 1.0, 0.0, 0.0]).unwrap();
        assert!((r - 2000.0 * 2f64.sqrt()).abs() < 1e-6, "{r}");
        // A stall that failed trials at a low rate is pooled with the
        // higher rate it contradicts, not taken as the cliff:
        // Pooled to 0.7 at both, the crossing sits 2/7 of the way on.
        let r = half_crossing(&rates, &[0.4, 1.0, 0.0, 0.0]).unwrap();
        assert!((r - 2000.0 * 2f64.powf(2.0 / 7.0)).abs() < 1e-6, "{r}");
        // Every rate held: the highest tried.
        assert_eq!(half_crossing(&rates, &[1.0; 4]), Some(8000.0));
        // None held.
        assert_eq!(half_crossing(&rates, &[0.2, 0.0, 0.0, 0.0]), None);
        assert_eq!(
            non_increasing(&[0.4, 1.0, 0.0, 0.2]),
            vec![0.7, 0.7, 0.1, 0.1]
        );
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        // Four requests due 1 ms apart. The server stalls 10 ms on the
        // first; the generator itself is on time, so the stall shows in
        // latency (due to done), not in lag (due to sent).
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let times: Vec<RequestTimes> = (0..4)
            .map(|i| RequestTimes {
                due: at(i),
                sent: at(i),
                done: Some(at(10 + i)),
            })
            .collect();
        let step = StepLatency::from_times(&times);
        assert_eq!(step.latency_ms, vec![10.0; 4]);
        assert_eq!(step.lag_ms, vec![0.0; 4]);

        // A generator that fell 5 ms behind sends late, and the latency
        // still counts the whole wait from the due time.
        let late = [RequestTimes {
            due: at(0),
            sent: at(5),
            done: Some(at(6)),
        }];
        let step = StepLatency::from_times(&late);
        assert_eq!(step.lag_ms, vec![5.0]);
        assert_eq!(step.latency_ms, vec![6.0]);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let t0 = Instant::now();
        let ok = RequestTimes {
            due: t0,
            sent: t0,
            done: Some(t0 + Duration::from_millis(1)),
        };
        let failed = RequestTimes { done: None, ..ok };
        let mut times = vec![ok; 98];
        times.extend([failed; 2]);
        let step = StepLatency::from_times(&times);
        assert_eq!(step.attempted(), 100);
        assert_eq!(step.failed, 2);
        assert_eq!(step.latency_pct(50.0), 1.0);
        assert_eq!(step.latency_pct(98.0), 1.0);
        assert_eq!(step.latency_pct(99.0), f64::INFINITY);
    }
}
