//! Load generation: seeded sampling, the open-loop schedule and its pacing,
//! and the rule that picks the highest rate meeting the latency limit.

use std::time::{Duration, Instant};

/// SplitMix64: the harness's only random source, so every input is a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s) over ranks `0..n`: rank r is drawn with weight 1/(r+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no items");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    pub step: usize,
    /// When the request is due, from the start of the schedule.
    pub at: Duration,
}

/// A staircase: `rates[s]` requests per second for `step_secs`, step after
/// step with no pause, evenly spaced inside a step.
pub fn staircase(rates: &[f64], step_secs: f64) -> Vec<Due> {
    let mut dues = Vec::new();
    for (step, &rate) in rates.iter().enumerate() {
        let start = step as f64 * step_secs;
        let n = (rate * step_secs).floor() as usize;
        for i in 0..n {
            dues.push(Due {
                step,
                at: Duration::from_secs_f64(start + i as f64 / rate),
            });
        }
    }
    dues
}

/// Time as the pacer sees it; the tests inject a clock they can stall.
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Wait until `at`; the last `spin` of the wait may be spent spinning.
    fn sleep_until(&self, at: Duration, spin: Duration);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, at: Duration, spin: Duration) {
        // A sleeping thread wakes 50-100 us late (timer slack, then getting
        // back on a core), and that lateness would be charged to every
        // request's latency. So sleep short of the due time and spin the rest.
        let now = self.0.elapsed();
        if at > now + spin {
            std::thread::sleep(at - now - spin);
        }
        while self.0.elapsed() < at {
            std::hint::spin_loop();
        }
    }
}

const MAX_SPIN: Duration = Duration::from_micros(120);

/// Send every request of the schedule no earlier than it is due, never
/// skipping one: a request whose due time has passed (because an earlier send
/// stalled) goes out at once. Returns when each was actually sent. Latency is
/// the caller's `completion - due`, so the wait a stall imposes on later
/// requests is counted; `sent - due` is how late the generator ran.
pub fn pace(clock: &impl Clock, dues: &[Due], mut send: impl FnMut(usize)) -> Vec<Duration> {
    let mut sent = Vec::with_capacity(dues.len());
    let mut previous = Duration::ZERO;
    for (i, due) in dues.iter().enumerate() {
        if clock.now() < due.at {
            // Spin for at most a quarter of the gap between requests, so a
            // fast schedule does not turn the generator into a busy loop
            // competing with the server for a core.
            let spin = ((due.at - previous) / 4).min(MAX_SPIN);
            clock.sleep_until(due.at, spin);
        }
        previous = due.at;
        sent.push(clock.now());
        send(i);
    }
    sent
}

/// What one step of the staircase delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepOutcome {
    pub rate_qps: f64,
    pub tail_ms: f64,
    pub failed_share: f64,
}

/// The service-level objective a step must meet.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub tail_ms: f64,
    pub failed_share: f64,
}

impl Slo {
    pub fn met_by(&self, step: &StepOutcome) -> bool {
        step.tail_ms <= self.tail_ms && step.failed_share <= self.failed_share
    }
}

/// The highest rate of the staircase that meets the objective with every
/// lower step meeting it too (a step that passes above one that fails is
/// luck, not capacity). 0 when even the first step misses.
pub fn slo_rate(steps: &[StepOutcome], slo: &Slo) -> f64 {
    steps
        .iter()
        .take_while(|s| slo.met_by(s))
        .last()
        .map_or(0.0, |s| s.rate_qps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn zipf_sampler_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(2000, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&r| r < 2000));
        // Rank 0 carries 1/H(2000) ~ 12% of the mass under s = 1.
        let top = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.09..0.16).contains(&top), "rank-0 share {top}");
        let head = a.iter().filter(|&&r| r < 16).count();
        assert!(head > a.len() / 3, "duplicates are common: {head}");
    }

    #[test]
    fn staircase_spaces_requests_evenly_per_step() {
        let dues = staircase(&[2.0, 4.0], 1.0);
        let at: Vec<(usize, u128)> = dues.iter().map(|d| (d.step, d.at.as_millis())).collect();
        assert_eq!(
            at,
            vec![(0, 0), (0, 500), (1, 1000), (1, 1250), (1, 1500), (1, 1750)]
        );
    }

    /// A clock that only moves when told to: sleeping jumps to the wake-up
    /// time, and a send can stall it.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration, _spin: Duration) {
            self.0.set(at);
        }
    }

    #[test]
    fn a_stalled_send_delays_later_requests_and_latency_counts_it() {
        let ms = Duration::from_millis;
        let dues = staircase(&[100.0], 0.06); // due at 0, 10, 20, 30, 40, 50 ms
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Request 1 blocks the sender for 25 ms; every send costs 1 ms.
        let sent = pace(&clock, &dues, |i| {
            let cost = if i == 1 { ms(25) } else { ms(1) };
            clock.0.set(clock.0.get() + cost);
        });
        let sent_ms: Vec<u128> = sent.iter().map(Duration::as_millis).collect();
        // 2 and 3 were due during the stall: sent at once, back to back, not
        // re-spaced; 4 and 5 are on time again.
        assert_eq!(sent_ms, vec![0, 10, 35, 36, 40, 50]);
        let lag_ms: Vec<u128> = sent
            .iter()
            .zip(&dues)
            .map(|(s, d)| (*s - d.at).as_millis())
            .collect();
        assert_eq!(lag_ms, vec![0, 0, 15, 6, 0, 0]);
        // A reply arriving 2 ms after its send has latency 17 ms from its due
        // time for request 2, where timing from the send would report 2 ms.
        let done = sent[2] + ms(2);
        assert_eq!((done - dues[2].at).as_millis(), 17);
    }

    #[test]
    fn slo_picker_takes_the_highest_passing_prefix() {
        let slo = Slo {
            tail_ms: 20.0,
            failed_share: 0.01,
        };
        let step = |rate_qps, tail_ms, failed_share| StepOutcome {
            rate_qps,
            tail_ms,
            failed_share,
        };
        let stairs = [
            step(1000.0, 2.0, 0.0),
            step(2000.0, 6.0, 0.001),
            step(4000.0, 80.0, 0.0),
            step(8000.0, 9.0, 0.4),
        ];
        assert_eq!(slo_rate(&stairs, &slo), 2000.0);
        // Failures miss the objective even when latency is fine.
        assert_eq!(slo_rate(&[step(500.0, 1.0, 0.02)], &slo), 0.0);
        // A pass above a miss does not count.
        let lucky = [step(1000.0, 50.0, 0.0), step(2000.0, 5.0, 0.0)];
        assert_eq!(slo_rate(&lucky, &slo), 0.0);
        assert_eq!(slo_rate(&stairs[..1], &slo), 1000.0);
    }
}
