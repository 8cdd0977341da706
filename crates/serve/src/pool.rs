//! The sharded worker pool: bounded per-shard queues, admission control,
//! coalescing of identical in-flight jobs, per-job deadlines, panic
//! containment, and a graceful drain that finishes every accepted job.
//!
//! The pool is generic over the job's result type and executes plain
//! closures, which keeps it independently testable: the concurrency
//! tests gate closures on [`std::sync::Barrier`]s instead of sleeping,
//! so queue-full, coalescing, deadline, and drain behaviour are asserted
//! deterministically.
//!
//! Sharding mirrors the design the rest of the workspace uses for
//! content addressing: a job's shard is `fnv1a(key) % workers`, so
//! identical jobs always land on the same queue and the in-flight map
//! can coalesce them without a global queue lock. Lock order is
//! *in-flight map, then shard queue*; workers only ever take one of the
//! two at a time.

use crate::metrics::Metrics;
use hetmem_core::hash::fnv1a;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a finished job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<R> {
    /// The job executed and produced a result.
    Done(R),
    /// The job panicked while executing. The worker caught the panic and
    /// stays up for the shard's next job.
    Panicked {
        /// The panic message, when the payload carried one.
        message: String,
    },
    /// The job's deadline expired while it waited in the queue; it was
    /// never executed.
    DeadlineExceeded {
        /// Milliseconds the job waited before expiry was discovered.
        waited_ms: u64,
    },
}

/// Why a submission was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The target shard's queue is at its configured depth.
    QueueFull {
        /// The configured per-shard depth the queue is at.
        depth: usize,
    },
    /// The pool is draining and accepts no new work.
    Draining,
}

/// One job's result slot, shared by every coalesced waiter.
#[derive(Debug)]
struct Slot<R> {
    state: Mutex<Option<Outcome<R>>>,
    ready: Condvar,
}

impl<R> Slot<R> {
    fn new() -> Slot<R> {
        Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, outcome: Outcome<R>) {
        let mut state = self.state.lock().expect("slot lock");
        *state = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on a submitted job's eventual outcome.
#[derive(Debug)]
pub struct Ticket<R> {
    slot: Arc<Slot<R>>,
    /// Whether this submission piggybacked on an identical in-flight job
    /// instead of enqueueing a new execution.
    pub coalesced: bool,
}

impl<R: Clone> Ticket<R> {
    /// Blocks until the job finishes (or its deadline expiry is
    /// discovered) and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the slot mutex is poisoned (a worker panicked).
    #[must_use]
    pub fn wait(&self) -> Outcome<R> {
        let mut state = self.slot.state.lock().expect("slot lock");
        loop {
            if let Some(outcome) = state.clone() {
                return outcome;
            }
            state = self.slot.ready.wait(state).expect("slot lock");
        }
    }
}

type Work<R> = Box<dyn FnOnce() -> R + Send>;

struct Queued<R> {
    key: String,
    slot: Arc<Slot<R>>,
    work: Work<R>,
    deadline: Option<Instant>,
    enqueued: Instant,
}

struct Shard<R> {
    queue: Mutex<VecDeque<Queued<R>>>,
    available: Condvar,
}

struct Inner<R> {
    shards: Vec<Shard<R>>,
    inflight: Mutex<HashMap<String, Arc<Slot<R>>>>,
    draining: AtomicBool,
    queued: AtomicU64,
    busy: AtomicU64,
    queue_depth: usize,
    metrics: Arc<Metrics>,
}

impl<R> Inner<R> {
    fn shard_of(&self, key: &str) -> &Shard<R> {
        let index = usize::try_from(fnv1a(key.as_bytes()) % self.shards.len() as u64)
            .expect("shard index fits");
        &self.shards[index]
    }

    fn forget(&self, key: &str) {
        self.inflight.lock().expect("inflight lock").remove(key);
    }
}

/// A fixed-size pool of worker threads, one per shard.
pub struct ShardedPool<R> {
    inner: Arc<Inner<R>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<R: Clone + Send + 'static> ShardedPool<R> {
    /// Starts `workers` threads, each owning one shard with a queue
    /// bounded at `queue_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_depth` is zero.
    #[must_use]
    pub fn start(workers: usize, queue_depth: usize, metrics: Arc<Metrics>) -> ShardedPool<R> {
        assert!(workers > 0, "pool needs at least one worker");
        assert!(queue_depth > 0, "queue depth must be positive");
        let inner = Arc::new(Inner {
            shards: (0..workers)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    available: Condvar::new(),
                })
                .collect(),
            inflight: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            queue_depth,
            metrics,
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hetmem-serve-worker-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn worker")
            })
            .collect();
        ShardedPool {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Submits a job. An identical in-flight `key` coalesces onto the
    /// existing execution; otherwise the job is enqueued on its shard,
    /// subject to the queue-depth admission bound.
    ///
    /// # Errors
    ///
    /// Returns [`Rejected`] when the shard queue is full or the pool is
    /// draining.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned (a worker panicked).
    pub fn submit(
        &self,
        key: &str,
        deadline: Option<Instant>,
        work: impl FnOnce() -> R + Send + 'static,
    ) -> Result<Ticket<R>, Rejected> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(Rejected::Draining);
        }
        // Hold the in-flight lock across admission so two identical
        // concurrent submissions cannot both enqueue (lock order:
        // inflight, then shard queue).
        let mut inflight = inner.inflight.lock().expect("inflight lock");
        if let Some(slot) = inflight.get(key) {
            inner.metrics.bump(&inner.metrics.coalesced_jobs);
            return Ok(Ticket {
                slot: Arc::clone(slot),
                coalesced: true,
            });
        }
        let shard = inner.shard_of(key);
        let mut queue = shard.queue.lock().expect("shard lock");
        if queue.len() >= inner.queue_depth {
            return Err(Rejected::QueueFull {
                depth: inner.queue_depth,
            });
        }
        let slot = Arc::new(Slot::new());
        inflight.insert(key.to_owned(), Arc::clone(&slot));
        queue.push_back(Queued {
            key: key.to_owned(),
            slot: Arc::clone(&slot),
            work: Box::new(work),
            deadline,
            enqueued: Instant::now(),
        });
        inner.queued.fetch_add(1, Ordering::Relaxed);
        shard.available.notify_one();
        Ok(Ticket {
            slot,
            coalesced: false,
        })
    }

    /// Jobs currently waiting in queues (excludes the one per worker
    /// that may be executing).
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.inner.queued.load(Ordering::Relaxed)
    }

    /// Workers currently executing a job.
    #[must_use]
    pub fn busy(&self) -> u64 {
        self.inner.busy.load(Ordering::Relaxed)
    }

    /// The number of worker threads (== shards).
    #[must_use]
    pub fn workers(&self) -> u64 {
        self.inner.shards.len() as u64
    }

    /// Whether the pool has begun draining.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Stops admission, lets every already-accepted job run to
    /// completion, and joins the workers. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        for shard in &self.inner.shards {
            // Take the lock so the wake-up cannot slip between a
            // worker's empty-queue check and its wait.
            let _guard = shard.queue.lock().expect("shard lock");
            shard.available.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            handle.join().expect("worker thread");
        }
    }
}

fn worker_loop<R: Clone>(inner: &Inner<R>, index: usize) {
    let shard = &inner.shards[index];
    loop {
        let job = {
            let mut queue = shard.queue.lock().expect("shard lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if inner.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shard.available.wait(queue).expect("shard lock");
            }
        };
        let Some(job) = job else { break };
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        // Monotonic clocks make `now >= deadline` deterministic for a
        // deadline set to the submission instant (deadline_ms = 0).
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            let waited = u64::try_from(job.enqueued.elapsed().as_millis()).unwrap_or(u64::MAX);
            inner.metrics.bump(&inner.metrics.deadline_timeouts);
            inner.forget(&job.key);
            job.slot
                .fulfill(Outcome::DeadlineExceeded { waited_ms: waited });
            continue;
        }
        inner.busy.fetch_add(1, Ordering::Relaxed);
        // A panicking job must still fulfil its slot: every coalesced
        // waiter would otherwise block forever on it.
        let result = std::panic::catch_unwind(AssertUnwindSafe(job.work));
        inner.busy.fetch_sub(1, Ordering::Relaxed);
        let outcome = match result {
            Ok(result) => {
                inner.metrics.bump(&inner.metrics.jobs_completed);
                Outcome::Done(result)
            }
            Err(payload) => {
                inner.metrics.bump(&inner.metrics.worker_panics);
                Outcome::Panicked {
                    message: panic_message(payload.as_ref()),
                }
            }
        };
        // Remove the key before publishing the result: a submission that
        // misses the in-flight map starts a fresh (deterministic)
        // execution rather than waiting on a completed slot.
        inner.forget(&job.key);
        job.slot.fulfill(outcome);
    }
}

/// The message a panic was raised with (`panic!` payloads are a `&str`
/// or a `String`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn pool(workers: usize, depth: usize) -> (ShardedPool<u32>, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::default());
        (
            ShardedPool::start(workers, depth, Arc::clone(&metrics)),
            metrics,
        )
    }

    /// A job that signals `started` once a worker picks it up and then
    /// blocks until `release` is passed — the deterministic replacement
    /// for sleeping.
    fn gated(
        started: &Arc<Barrier>,
        release: &Arc<Barrier>,
        value: u32,
    ) -> impl FnOnce() -> u32 + Send + 'static {
        let started = Arc::clone(started);
        let release = Arc::clone(release);
        move || {
            started.wait();
            release.wait();
            value
        }
    }

    #[test]
    fn queue_full_submissions_are_rejected_not_queued() {
        let (pool, metrics) = pool(1, 1);
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let a = pool
            .submit("job-a", None, gated(&started, &release, 1))
            .expect("a admitted");
        started.wait(); // the single worker is now busy with A
        let b = pool.submit("job-b", None, || 2).expect("b fills the queue");
        let c = pool.submit("job-c", None, || 3);
        assert_eq!(c.unwrap_err(), Rejected::QueueFull { depth: 1 });
        assert_eq!(pool.queued(), 1);
        release.wait();
        assert_eq!(a.wait(), Outcome::Done(1));
        assert_eq!(b.wait(), Outcome::Done(2));
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn identical_inflight_jobs_coalesce_into_one_execution() {
        let (pool, metrics) = pool(1, 4);
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let executions = Arc::new(AtomicU64::new(0));
        let make = |v| {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            let executions = Arc::clone(&executions);
            move || {
                executions.fetch_add(1, Ordering::SeqCst);
                started.wait();
                release.wait();
                v
            }
        };
        let first = pool.submit("same-key", None, make(7)).expect("admitted");
        started.wait(); // the execution is live, key still in flight
        let second = pool.submit("same-key", None, make(8)).expect("coalesced");
        assert!(!first.coalesced);
        assert!(second.coalesced);
        release.wait();
        // Both tickets observe the single execution's result.
        assert_eq!(first.wait(), Outcome::Done(7));
        assert_eq!(second.wait(), Outcome::Done(7));
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.coalesced_jobs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_job_answers_every_waiter_and_the_worker_survives() {
        let (pool, metrics) = pool(1, 4);
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let job = {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            move || -> u32 {
                started.wait();
                release.wait();
                panic!("boom");
            }
        };
        let first = pool.submit("bad", None, job).expect("admitted");
        started.wait(); // the execution is live, key still in flight
        let twin = pool.submit("bad", None, || 0).expect("coalesced");
        assert!(twin.coalesced);
        release.wait();
        let panicked = Outcome::Panicked {
            message: "boom".to_owned(),
        };
        assert_eq!(first.wait(), panicked);
        assert_eq!(twin.wait(), panicked);
        assert_eq!(metrics.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 0);
        // The shard's only worker is still up, the key was forgotten (a
        // resubmission runs afresh), and `busy` was restored.
        let next = pool.submit("bad", None, || 5).expect("admitted");
        assert!(!next.coalesced);
        assert_eq!(next.wait(), Outcome::Done(5));
        assert_eq!(pool.busy(), 0);
        pool.drain();
    }

    #[test]
    fn expired_deadline_returns_timeout_without_executing() {
        let (pool, metrics) = pool(1, 4);
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let a = pool
            .submit("hold", None, gated(&started, &release, 1))
            .expect("admitted");
        started.wait();
        // Deadline == submission instant: guaranteed expired by the time
        // the worker pops it, however fast that is.
        let b = pool
            .submit("late", Some(Instant::now()), || {
                unreachable!("must not run")
            })
            .expect("admitted");
        release.wait();
        assert_eq!(a.wait(), Outcome::Done(1));
        assert!(matches!(b.wait(), Outcome::DeadlineExceeded { .. }));
        assert_eq!(metrics.deadline_timeouts.load(Ordering::Relaxed), 1);
        // A live deadline is honoured, not refused.
        let ok = pool
            .submit(
                "fresh",
                Some(Instant::now() + Duration::from_secs(3600)),
                || 9,
            )
            .expect("admitted");
        assert_eq!(ok.wait(), Outcome::Done(9));
    }

    #[test]
    fn drain_completes_every_accepted_job_then_refuses_new_ones() {
        let (pool, _) = pool(2, 8);
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let held = pool
            .submit("held", None, gated(&started, &release, 1))
            .expect("admitted");
        started.wait();
        // Queue more work behind the busy worker and on the idle one.
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                pool.submit(&format!("queued-{i}"), None, move || 10 + i)
                    .expect("admitted")
            })
            .collect();
        let drainer = {
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                release.wait(); // un-gate the held job, then drain
            })
        };
        pool.drain();
        drainer.join().expect("drainer");
        assert_eq!(held.wait(), Outcome::Done(1));
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(
                t.wait(),
                Outcome::Done(10 + u32::try_from(i).expect("small"))
            );
        }
        assert_eq!(
            pool.submit("after-drain", None, || 0).unwrap_err(),
            Rejected::Draining
        );
        assert!(pool.is_draining());
        // Idempotent.
        pool.drain();
    }

    #[test]
    fn results_do_not_leak_across_distinct_keys() {
        let (pool, _) = pool(4, 16);
        let tickets: Vec<_> = (0..32u32)
            .map(|i| {
                pool.submit(&format!("key-{i}"), None, move || i * i)
                    .expect("admitted")
            })
            .collect();
        for (i, t) in tickets.iter().enumerate() {
            let i = u32::try_from(i).expect("small");
            assert_eq!(t.wait(), Outcome::Done(i * i));
        }
        pool.drain();
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.queued(), 0);
    }
}
