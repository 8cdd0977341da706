//! Seeded open-loop load: a splitmix64 generator, a Zipf sampler,
//! Poisson arrival schedules, and a runner that times every request from
//! the moment it was *due*, so a stall is charged to every request queued
//! behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` has weight
/// `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One scheduled request: when it is due (from the stage start) and
/// which catalogue entry it sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Offset of the due time from the stage start.
    pub due: Duration,
    /// Index of the request to send.
    pub item: usize,
}

/// Poisson arrivals at `rate` per second for `length`, each request
/// drawn by `pick`.
pub fn poisson_schedule(
    rng: &mut Rng,
    rate: f64,
    length: Duration,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gap; 1 - u keeps the logarithm finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= length.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            item: pick(rng),
        });
    }
}

/// What happened to one scheduled request, as offsets from the stage
/// start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// When it was due.
    pub due: Duration,
    /// When a generator thread actually began sending it.
    pub sent: Duration,
    /// When its response was complete (or it failed).
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time: includes any wait behind a stall.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator started it.
    #[must_use]
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sleeps until `deadline`. No spinning: the generator shares the host
/// with the service, and its timer overshoot shows up as lag.
fn wait_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Runs `schedule` open-loop on `threads` generator threads, each with at
/// most one request in flight. `send(i)` performs the request at schedule
/// index `i` and reports success. A thread that falls behind sends immediately; the
/// time lost is charged to the requests through [`Outcome::latency`].
/// Returns outcomes in schedule order.
pub fn run_open_loop(
    schedule: &[Arrival],
    threads: usize,
    send: impl Fn(usize) -> bool + Sync,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; schedule.len()]);
    // A short lead so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(arrival) = schedule.get(i) else {
                    return;
                };
                wait_until(start + arrival.due);
                let sent = start.elapsed();
                let ok = send(i);
                let done = start.elapsed();
                slots.lock().expect("outcome slots")[i] = Some(Outcome {
                    due: arrival.due,
                    sent,
                    done,
                    ok,
                });
            });
        }
    });
    slots
        .into_inner()
        .expect("outcome slots")
        .into_iter()
        .map(|o| o.expect("every scheduled request ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<Arrival> {
        let zipf = Zipf::new(180, 1.1);
        poisson_schedule(&mut Rng::new(seed), 1000.0, Duration::from_secs(1), |r| {
            zipf.sample(r)
        })
    }

    #[test]
    fn seeded_schedules_repeat_exactly() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn poisson_rate_and_zipf_skew_hold() {
        let s = schedule(42);
        // 1000/s for 1 s: a Poisson count within 5 sigma of 1000.
        assert!((850..1150).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        let mut counts = [0usize; 180];
        for a in &s {
            counts[a.item] += 1;
        }
        // Rank 0 carries ~1/H(180,1.1) ≈ 20 % of the mass; the tail much less.
        assert!(counts[0] > counts[1] && counts[1] > counts[20]);
        assert!(counts[0] > s.len() / 8);
    }

    #[test]
    fn zipf_covers_every_rank_and_only_those() {
        let zipf = Zipf::new(3, 1.1);
        let mut rng = Rng::new(1);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[zipf.sample(&mut rng)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn a_stall_is_charged_to_requests_queued_behind_it() {
        let stall = Duration::from_millis(40);
        let schedule: Vec<Arrival> = (0..5)
            .map(|i| Arrival {
                due: Duration::from_millis(i),
                item: i as usize,
            })
            .collect();
        let outcomes = run_open_loop(&schedule, 1, |i| {
            if i == 0 {
                std::thread::sleep(stall);
            }
            true
        });
        assert!(outcomes[0].latency() >= stall);
        for o in &outcomes[1..] {
            // Each was due within 4 ms of the start but could only be sent
            // after the stalled request finished at >= 40 ms.
            assert!(o.lag() >= stall - Duration::from_millis(4), "{o:?}");
            assert!(o.latency() >= stall - Duration::from_millis(4), "{o:?}");
            assert!(o.latency() >= o.done - o.sent);
        }
    }
}
