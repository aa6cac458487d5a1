//! Open-loop load generation that counts stalls.
//!
//! Arrivals follow a seeded schedule fixed before the run. One thread
//! sends each request at its due time; a second thread collects
//! completions as they happen. A request's latency runs from its *due*
//! time, not from the moment it was sent, so a stall anywhere — in the
//! generator, in `submit`, in the server — shows up in every request
//! that was due while it lasted. The generator's own lateness is
//! reported beside it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What an open-loop run drives: a server front end, or a stub in
/// tests.
pub trait Target: Sync {
    type Ticket: Send;
    type Reply;

    /// Runs on the generator thread before each send (the hot-swap
    /// cadence lives here).
    fn between(&self) -> Result<(), String> {
        Ok(())
    }

    /// Sends request `index`; `Err` is a refusal at admission.
    fn submit(&self, index: usize) -> Result<Self::Ticket, String>;

    /// Blocks until the request completes; `Err` is a failed request.
    fn wait(&self, ticket: Self::Ticket) -> Result<Self::Reply, String>;

    /// Checks a reply; `Err` is a wrong answer, which fails the run.
    fn verify(&self, index: usize, reply: &Self::Reply) -> Result<(), String>;
}

/// One measured request (due at or after the warm-up).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    #[cfg_attr(not(test), allow(dead_code))]
    pub index: usize,
    /// Due → completion.
    pub latency_us: f64,
    /// Due → send.
    pub lag_us: f64,
    /// Duration of the `submit` call.
    pub submit_us: f64,
    /// Completion time since the run started.
    pub done_s: f64,
}

#[derive(Debug, Default)]
pub struct OpenLoopReport {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub refused: u64,
    pub failed: u64,
    pub completed: u64,
    /// First wrong answer, if any.
    pub wrong: Option<String>,
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `span`, from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64(seed ^ 0xa076_1d64_78bd_642f);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 53 random bits → u in (0, 1].
        let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Runs `schedule` against `target`: this thread sends, one scoped
/// thread collects. Requests due before `warmup` are sent and checked
/// but not measured.
pub fn run_open_loop<T: Target>(
    target: &T,
    schedule: &[Duration],
    warmup: Duration,
) -> Result<OpenLoopReport, String> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, f64, T::Ticket)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut report = OpenLoopReport::default();
            for (index, due, sent, submit_us, ticket) in rx {
                let outcome = target.wait(ticket);
                let done = Instant::now();
                match outcome {
                    Ok(reply) => {
                        report.completed += 1;
                        if let Err(e) = target.verify(index, &reply) {
                            report.wrong.get_or_insert(e);
                        }
                        if due >= start + warmup {
                            report.samples.push(Sample {
                                index,
                                latency_us: us(done.saturating_duration_since(due)),
                                lag_us: us(sent.saturating_duration_since(due)),
                                submit_us,
                                done_s: done.duration_since(start).as_secs_f64(),
                            });
                        }
                    }
                    Err(_) => report.failed += 1,
                }
            }
            report
        });
        let mut stopped = None;
        let (mut attempted, mut refused) = (0u64, 0u64);
        for (index, &offset) in schedule.iter().enumerate() {
            if let Err(e) = target.between() {
                stopped = Some(e);
                break;
            }
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            attempted += 1;
            match target.submit(index) {
                Ok(ticket) => {
                    let submit_us = us(sent.elapsed());
                    if tx.send((index, due, sent, submit_us, ticket)).is_err() {
                        stopped = Some("collector stopped early".into());
                        break;
                    }
                }
                Err(_) => refused += 1,
            }
        }
        drop(tx);
        let mut report = collector.join().map_err(|_| "collector thread panicked".to_string())?;
        if let Some(e) = stopped {
            return Err(e);
        }
        report.attempted = attempted;
        report.refused = refused;
        Ok(report)
    })
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub server that answers at once, except that admitting one
    /// chosen request stalls for `stall`.
    struct StallingStub {
        stall_at: usize,
        stall: Duration,
    }

    impl Target for StallingStub {
        type Ticket = ();
        type Reply = ();

        fn submit(&self, index: usize) -> Result<(), String> {
            if index == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }

        fn wait(&self, (): ()) -> Result<(), String> {
            Ok(())
        }

        fn verify(&self, _: usize, (): &()) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_stall_inflates_every_request_due_during_it() {
        // One request per millisecond; admitting request 20 stalls 30 ms.
        let schedule: Vec<Duration> = (0..80).map(Duration::from_millis).collect();
        let stub = StallingStub { stall_at: 20, stall: Duration::from_millis(30) };
        let report = run_open_loop(&stub, &schedule, Duration::ZERO).unwrap();
        assert_eq!(
            (report.attempted, report.completed, report.refused, report.failed),
            (80, 80, 0, 0)
        );
        let by_index = |i: usize| report.samples.iter().find(|s| s.index == i).copied().unwrap();
        // Request 20+j was due j ms into the stall and could not be sent
        // before it ended, so at least 30-j ms of the stall is in its
        // latency and in the generator's lag. These are lower bounds: a
        // slow machine only adds to them.
        for j in 1..30 {
            let floor_us = (30 - j) as f64 * 1e3;
            let s = by_index(20 + j);
            assert!(
                s.latency_us >= floor_us,
                "request {} latency {} < {floor_us}",
                20 + j,
                s.latency_us
            );
            assert!(s.lag_us >= floor_us, "request {} lag {} < {floor_us}", 20 + j, s.lag_us);
        }
        // The stalled request itself carries the whole stall.
        assert!(by_index(20).latency_us >= 30e3);
    }

    #[test]
    fn warmup_requests_are_counted_but_not_measured() {
        let schedule: Vec<Duration> = (0..10).map(Duration::from_millis).collect();
        let stub = StallingStub { stall_at: usize::MAX, stall: Duration::ZERO };
        let report = run_open_loop(&stub, &schedule, Duration::from_millis(5)).unwrap();
        assert_eq!(report.attempted, 10);
        assert_eq!(report.samples.len(), 5);
        assert!(report.samples.iter().all(|s| s.index >= 5));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_schedule(3, 5000.0, Duration::from_secs(4));
        assert_eq!(a, poisson_schedule(3, 5000.0, Duration::from_secs(4)));
        assert_ne!(a, poisson_schedule(4, 5000.0, Duration::from_secs(4)));
        // 20 000 expected arrivals; a Poisson count has sd ≈ 141.
        assert!((19_000..21_000).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
