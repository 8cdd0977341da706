//! Live service metrics: lock-free counters, a log-scale latency
//! histogram, and the aggregate simulator event counts the service folds
//! in from every live (non-cached) run.
//!
//! Everything here is written on the request path, so the counters are
//! relaxed atomics; `/metrics` renders a consistent-enough snapshot
//! without stalling workers. The simulator counters reuse the
//! [`hetmem_sim::EventCounts`] accumulation the observability layer
//! already defines, so the service reports the same vocabulary as
//! `hetmem sim --events`.

use hetmem_xplore::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of power-of-two latency buckets. Bucket `i` counts requests
/// with `latency_us < 2^i`; the last bucket is a catch-all.
pub const LATENCY_BUCKETS: usize = 28;

/// A histogram of request latencies in log2(microsecond) buckets.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket =
            (usize::try_from(us.max(1).ilog2()).expect("small") + 1).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The histogram as `{count, total_us, buckets: [{le_us, n}, ...]}`,
    /// with zero buckets elided so small services render small.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    Json::obj(vec![("le_us", Json::UInt(1u64 << i)), ("n", Json::UInt(n))])
                })
            })
            .collect();
        Json::obj(vec![
            ("count", Json::UInt(self.count.load(Ordering::Relaxed))),
            (
                "total_us",
                Json::UInt(self.total_us.load(Ordering::Relaxed)),
            ),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// The service-wide metric registry. One instance lives in the server
/// state; every request path and worker writes into it.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests received, by outcome.
    pub requests_total: AtomicU64,
    /// Requests rejected with 400 (malformed).
    pub bad_requests: AtomicU64,
    /// Requests rejected with 429 (queue full).
    pub queue_rejections: AtomicU64,
    /// Requests rejected with 503 (draining).
    pub drain_rejections: AtomicU64,
    /// Jobs whose deadline expired before execution (504).
    pub deadline_timeouts: AtomicU64,
    /// Jobs that piggybacked on an identical in-flight execution.
    pub coalesced_jobs: AtomicU64,
    /// Jobs executed to completion by a worker.
    pub jobs_completed: AtomicU64,
    /// Jobs whose execution returned an error.
    pub jobs_failed: AtomicU64,
    /// Jobs whose execution panicked; the worker caught the panic and
    /// answered every waiter with a 500.
    pub worker_panics: AtomicU64,
    /// Sim answers served straight from the content-addressed cache.
    pub cache_hits: AtomicU64,
    /// Sim answers that required a live simulation.
    pub cache_misses: AtomicU64,
    /// Live sweep and search jobs whose compute was replayed from another
    /// job of the same (kernel, scale) rather than simulated, so
    /// `cache_misses - replayed` counts the compute simulations run.
    pub replayed: AtomicU64,
    /// Guided searches run to completion.
    pub searches_completed: AtomicU64,
    /// Candidates evaluated across all completed searches.
    pub search_evaluations: AtomicU64,
    /// Pareto-frontier points reported by completed searches.
    pub frontier_points: AtomicU64,
    /// `/v1/fix` jobs executed to completion.
    pub fixes_completed: AtomicU64,
    /// Communication statements (or group members) the fix pass removed,
    /// across all completed fix jobs.
    pub transfers_removed: AtomicU64,
    /// End-to-end request latency (admission to response).
    pub latency: LatencyHistogram,
    /// Aggregate simulator event counts from live runs.
    sim_events: Mutex<hetmem_sim::EventCounts>,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one engine run's job counts: jobs answered by the cache, jobs
    /// computed live, and the live jobs whose compute was replayed.
    pub fn absorb_jobs(&self, cache_hits: u64, cache_misses: u64, replayed: u64) {
        self.cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(cache_misses, Ordering::Relaxed);
        self.replayed.fetch_add(replayed, Ordering::Relaxed);
    }

    /// Folds one live run's event counts into the aggregate.
    pub fn absorb_events(&self, counts: hetmem_sim::EventCounts) {
        *self.sim_events.lock().expect("metrics lock") += counts;
    }

    /// A copy of the aggregate simulator counts.
    #[must_use]
    pub fn sim_events(&self) -> hetmem_sim::EventCounts {
        *self.sim_events.lock().expect("metrics lock")
    }

    /// Renders the full registry, merging in the pool's live view
    /// (queue depth, busy workers) supplied by the caller.
    #[must_use]
    pub fn to_json(&self, queue_depth: u64, busy_workers: u64, workers: u64) -> Json {
        let load = |c: &AtomicU64| Json::UInt(c.load(Ordering::Relaxed));
        let ev = self.sim_events();
        Json::obj(vec![
            ("requests_total", load(&self.requests_total)),
            ("bad_requests", load(&self.bad_requests)),
            ("queue_rejections", load(&self.queue_rejections)),
            ("drain_rejections", load(&self.drain_rejections)),
            ("deadline_timeouts", load(&self.deadline_timeouts)),
            ("coalesced_jobs", load(&self.coalesced_jobs)),
            ("jobs_completed", load(&self.jobs_completed)),
            ("jobs_failed", load(&self.jobs_failed)),
            ("worker_panics", load(&self.worker_panics)),
            ("cache_hits", load(&self.cache_hits)),
            ("cache_misses", load(&self.cache_misses)),
            ("replayed", load(&self.replayed)),
            ("searches_completed", load(&self.searches_completed)),
            ("search_evaluations", load(&self.search_evaluations)),
            ("frontier_points", load(&self.frontier_points)),
            ("fixes_completed", load(&self.fixes_completed)),
            ("transfers_removed", load(&self.transfers_removed)),
            ("queue_depth", Json::UInt(queue_depth)),
            ("busy_workers", Json::UInt(busy_workers)),
            ("workers", Json::UInt(workers)),
            ("latency", self.latency.to_json()),
            (
                "sim_events",
                Json::obj(vec![
                    ("phase_starts", Json::UInt(ev.phase_starts)),
                    ("phase_ends", Json::UInt(ev.phase_ends)),
                    ("comm_events", Json::UInt(ev.comm_events)),
                    ("special_ops", Json::UInt(ev.special_ops)),
                    ("miss_bursts", Json::UInt(ev.miss_bursts)),
                    ("shared_accesses", Json::UInt(ev.shared_accesses)),
                    ("dram_requests", Json::UInt(ev.dram_requests)),
                    ("dram_row_misses", Json::UInt(ev.dram_row_misses)),
                    ("interventions", Json::UInt(ev.interventions)),
                    // Ticks crossed inside granted wake windows — labeled
                    // apart from executed cycles so dashboards can tell
                    // fast-forwarded time from simulated work.
                    ("fast_forward_ticks", Json::UInt(ev.fast_forward_ticks)),
                ]),
            ),
        ])
    }
}

/// Merges several nodes' `/metrics` documents into one fleet-wide view
/// (the `merged` section of `GET /metrics?cluster=1`).
///
/// Numeric fields sum; nested objects merge recursively; arrays of
/// latency buckets (`{le_us, n}` pairs) merge by bucket bound; any
/// other value keeps the first node's copy. Keys appear in the order
/// the first document introduces them, so the merged document reads
/// like a single node's.
#[must_use]
pub fn merge_metrics(docs: &[Json]) -> Json {
    let mut keys: Vec<&str> = Vec::new();
    for doc in docs {
        if let Json::Obj(pairs) = doc {
            for (key, _) in pairs {
                if !keys.contains(&key.as_str()) {
                    keys.push(key);
                }
            }
        }
    }
    let pairs = keys
        .into_iter()
        .map(|key| {
            let values: Vec<&Json> = docs.iter().filter_map(|doc| doc.get(key)).collect();
            (key.to_owned(), merge_values(&values))
        })
        .collect();
    Json::Obj(pairs)
}

fn merge_values(values: &[&Json]) -> Json {
    match values {
        [] => Json::Null,
        [only] => (*only).clone(),
        [first, ..] => match first {
            Json::UInt(_) | Json::Int(_) | Json::Float(_) => sum_numeric(values),
            Json::Obj(_) => {
                let docs: Vec<Json> = values.iter().map(|v| (*v).clone()).collect();
                merge_metrics(&docs)
            }
            Json::Arr(_) if is_bucket_array(first) => merge_buckets(values),
            _ => (*first).clone(),
        },
    }
}

fn sum_numeric(values: &[&Json]) -> Json {
    if values.iter().all(|v| matches!(v, Json::UInt(_))) {
        Json::UInt(values.iter().filter_map(|v| v.as_u64()).sum())
    } else {
        Json::Float(values.iter().filter_map(|v| v.as_f64()).sum())
    }
}

fn is_bucket_array(value: &Json) -> bool {
    match value {
        Json::Arr(items) => items
            .iter()
            .all(|item| item.get("le_us").is_some() && item.get("n").is_some()),
        _ => false,
    }
}

fn merge_buckets(values: &[&Json]) -> Json {
    // (le_us, n) pairs, accumulated by bound and re-sorted.
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for value in values {
        let Json::Arr(items) = value else { continue };
        for item in items {
            let (Some(le), Some(n)) = (
                item.get("le_us").and_then(Json::as_u64),
                item.get("n").and_then(Json::as_u64),
            ) else {
                continue;
            };
            match merged.iter_mut().find(|(bound, _)| *bound == le) {
                Some((_, total)) => *total += n,
                None => merged.push((le, n)),
            }
        }
    }
    merged.sort_unstable();
    Json::Arr(
        merged
            .into_iter()
            .map(|(le, n)| Json::obj(vec![("le_us", Json::UInt(le)), ("n", Json::UInt(n))]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1)); // bucket 1 (le 2)
        h.record(Duration::from_micros(3)); // bucket 2 (le 4)
        h.record(Duration::from_micros(3));
        h.record(Duration::from_secs(40_000)); // clamps to the last bucket
        assert_eq!(h.count(), 4);
        let json = h.to_json();
        let Some(Json::Arr(buckets)) = json.get("buckets").cloned() else {
            panic!("buckets array");
        };
        let pairs: Vec<(u64, u64)> = buckets
            .iter()
            .map(|b| {
                (
                    b.get("le_us").and_then(Json::as_u64).expect("le"),
                    b.get("n").and_then(Json::as_u64).expect("n"),
                )
            })
            .collect();
        assert_eq!(
            pairs,
            vec![(2, 1), (4, 2), (1 << (LATENCY_BUCKETS - 1), 1),]
        );
    }

    #[test]
    fn registry_renders_every_counter() {
        let m = Metrics::default();
        m.bump(&m.requests_total);
        m.bump(&m.cache_hits);
        m.replayed.fetch_add(8, Ordering::Relaxed);
        m.bump(&m.searches_completed);
        m.frontier_points.fetch_add(3, Ordering::Relaxed);
        m.bump(&m.fixes_completed);
        m.transfers_removed.fetch_add(4, Ordering::Relaxed);
        let ev = hetmem_sim::EventCounts {
            dram_requests: 7,
            fast_forward_ticks: 5,
            ..Default::default()
        };
        m.absorb_events(ev);
        m.absorb_events(ev);
        let json = m.to_json(3, 1, 4);
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("replayed").and_then(Json::as_u64), Some(8));
        assert_eq!(
            json.get("searches_completed").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(json.get("frontier_points").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("fixes_completed").and_then(Json::as_u64), Some(1));
        assert_eq!(
            json.get("transfers_removed").and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(json.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("workers").and_then(Json::as_u64), Some(4));
        let ev = json.get("sim_events").expect("sim_events");
        assert_eq!(ev.get("dram_requests").and_then(Json::as_u64), Some(14));
        assert_eq!(
            ev.get("fast_forward_ticks").and_then(Json::as_u64),
            Some(10)
        );
    }

    #[test]
    fn merge_sums_counters_and_buckets_across_nodes() {
        let a = Metrics::default();
        a.bump(&a.requests_total);
        a.bump(&a.cache_misses);
        a.replayed.fetch_add(2, Ordering::Relaxed);
        a.latency.record(Duration::from_micros(1)); // bucket le 2
        let b = Metrics::default();
        b.bump(&b.requests_total);
        b.bump(&b.requests_total);
        b.bump(&b.cache_hits);
        b.replayed.fetch_add(3, Ordering::Relaxed);
        b.latency.record(Duration::from_micros(1));
        b.latency.record(Duration::from_micros(3)); // bucket le 4
        let merged = merge_metrics(&[a.to_json(1, 0, 2), b.to_json(2, 1, 2)]);
        assert_eq!(merged.get("requests_total").and_then(Json::as_u64), Some(3));
        assert_eq!(merged.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(merged.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(merged.get("replayed").and_then(Json::as_u64), Some(5));
        assert_eq!(merged.get("queue_depth").and_then(Json::as_u64), Some(3));
        let latency = merged.get("latency").expect("latency");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(3));
        let Some(Json::Arr(buckets)) = latency.get("buckets") else {
            panic!("buckets array");
        };
        let pairs: Vec<(u64, u64)> = buckets
            .iter()
            .map(|b| {
                (
                    b.get("le_us").and_then(Json::as_u64).expect("le"),
                    b.get("n").and_then(Json::as_u64).expect("n"),
                )
            })
            .collect();
        assert_eq!(pairs, vec![(2, 2), (4, 1)]);
        // Nested sim_events objects merge recursively too.
        let ev = merged.get("sim_events").expect("sim_events");
        assert_eq!(ev.get("dram_requests").and_then(Json::as_u64), Some(0));
    }
}
