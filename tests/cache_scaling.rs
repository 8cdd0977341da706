//! Size-doubling guard for the result cache: a lookup reads only the
//! log bytes appended since the previous lookup, so storing and reading
//! back twice the records must not take much more than twice as long.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hetmem::sim::{ExecMode, RunReport};
use hetmem::xplore::{DiskCache, SweepRecord};

fn record(id: u64) -> SweepRecord {
    SweepRecord {
        id,
        kind: "case-study".into(),
        kernel: "reduction".into(),
        target: "Fusion".into(),
        scale: 64,
        design_point: "p".into(),
        mode: ExecMode::Accurate,
        report: RunReport {
            kernel: "reduction".into(),
            parallel_ticks: id,
            ..RunReport::default()
        },
        timeline: None,
    }
}

/// Stores `n` records into an empty cache at `dir` the way a cold sweep
/// does (a miss, then a put), reads each back through the writing
/// instance, then through a fresh one. Returns the wall time.
fn round_trip(dir: &Path, n: u64) -> Duration {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let cache = DiskCache::open(dir).expect("open");
    for id in 0..n {
        let key = format!("key-{id}");
        assert!(cache.get(&key).is_none());
        cache.put(&key, &record(id)).expect("put");
    }
    let fresh = DiskCache::open(dir).expect("reopen");
    for reader in [&cache, &fresh] {
        for id in 0..n {
            let hit = reader.get(&format!("key-{id}")).expect("a stored record");
            assert_eq!(hit.id, id);
        }
    }
    assert_eq!((cache.hits(), cache.misses()), (n, n));
    assert_eq!((fresh.hits(), fresh.misses()), (n, 0));
    started.elapsed()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetmem-cache-scaling-{tag}-{}", std::process::id()))
}

#[test]
fn cache_time_at_most_about_doubles_with_the_records() {
    let n = 2_000;
    let (small_dir, large_dir) = (scratch("n"), scratch("2n"));
    // Taken in turn, so that a busy spell on the host slows both sizes.
    let (small, large) = (0..3).fold((Duration::MAX, Duration::MAX), |(s, l), _| {
        (
            s.min(round_trip(&small_dir, n)),
            l.min(round_trip(&large_dir, 2 * n)),
        )
    });
    let _ = std::fs::remove_dir_all(&small_dir);
    let _ = std::fs::remove_dir_all(&large_dir);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    eprintln!("n = {n}: {small:?}, 2n: {large:?}, ratio {ratio:.2}");
    assert!(
        ratio <= 2.5,
        "the cache took {small:?} at n = {n} and {large:?} at 2n ({ratio:.2}x)"
    );
}
