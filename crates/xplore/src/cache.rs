//! Content-addressed on-disk result cache.
//!
//! Each job's result is stored under the FNV-1a hash of the job's
//! *content key*: the job identity (kind, kernel, target, scale), the full
//! hardware/cost configuration fingerprint, and the crate version. Any
//! change to those inputs changes the key, so stale entries are never
//! returned — they are simply never addressed again.
//!
//! A cache directory holds one append-only log, `records.log`, with one
//! line per stored result: the key hash as 16 hex digits, a space, the
//! record's JSON and a newline. A store appends its whole line with one
//! write, so concurrent writers (the threads of a sweep, or a CLI and a
//! server sharing the directory) never interleave, and a key stored twice
//! is answered from its later line. Each [`DiskCache`] indexes the log by
//! key hash and reads only the bytes appended since its last lookup.
//! Corrupt or torn lines are misses, recomputed and stored again; a log
//! that is deleted reads as empty, and one that is truncated or replaced
//! is indexed again from its start.

use crate::ser::SweepRecord;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The file name of the log inside a cache directory.
const LOG_NAME: &str = "records.log";

/// The bytes in front of a line's record: 16 hex digits and a space.
const PREFIX_LEN: usize = 17;

/// A directory of memoized sweep results with hit/miss counters.
#[derive(Debug)]
pub struct DiskCache {
    log: PathBuf,
    index: Mutex<Index>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Where the latest line of each key sits in the log.
#[derive(Debug, Default)]
struct Index {
    /// The log's length up to its last complete line read so far.
    indexed: u64,
    /// Key hash → offset and length of its latest complete line.
    lines: HashMap<u64, (u64, usize)>,
}

impl Index {
    /// Indexes the complete lines between the indexed length and `len`.
    /// A torn tail stays unindexed until a newline completes it.
    fn catch_up(&mut self, log: &mut File, len: u64) -> io::Result<()> {
        if len <= self.indexed {
            return Ok(());
        }
        log.seek(SeekFrom::Start(self.indexed))?;
        let mut fresh = Vec::new();
        log.take(len - self.indexed).read_to_end(&mut fresh)?;
        let mut at = self.indexed;
        for line in fresh.split_inclusive(|&b| b == b'\n') {
            if line.last() != Some(&b'\n') {
                break;
            }
            if let Some(hash) = key_of(line) {
                self.lines.insert(hash, (at, line.len()));
            }
            at += line.len() as u64;
        }
        self.indexed = at;
        Ok(())
    }
}

/// The key hash a line starts with, when it starts with one.
fn key_of(line: &[u8]) -> Option<u64> {
    let hex = line.get(..16)?;
    if line.get(16) != Some(&b' ') || !hex.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

// Re-exported so the long-standing `hetmem_xplore::cache::fnv1a` path
// keeps working; the implementation (and its pinned digest vectors)
// lives in `hetmem_core::hash`, shared with the serve pool's shard map
// and the cluster ring.
pub use hetmem_core::hash::fnv1a;

impl DiskCache {
    /// Opens (and creates if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskCache {
            log: dir.join(LOG_NAME),
            index: Mutex::new(Index::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Fetches the record stored under `content_key`, counting a hit or a
    /// miss. Unreadable or corrupt entries count as misses.
    pub fn get(&self, content_key: &str) -> Option<SweepRecord> {
        let loaded = self
            .line(fnv1a(content_key.as_bytes()))
            .and_then(|line| String::from_utf8(line).ok())
            .and_then(|line| crate::json::parse(&line[PREFIX_LEN..]).ok())
            .and_then(|value| SweepRecord::from_json(&value).ok());
        match loaded {
            Some(record) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The latest complete line stored under `hash`, without its
    /// newline. The line read must start with the hash and end with a
    /// newline; if it does not, the log was replaced under the index,
    /// which is built again once.
    fn line(&self, hash: u64) -> Option<Vec<u8>> {
        let prefix = format!("{hash:016x} ");
        let mut rebuild = false;
        loop {
            let (mut log, (at, n), rebuilt) = self.locate(hash, rebuild)?;
            // Read outside the index lock, so lookups overlap.
            let mut line = vec![0; n];
            let read = log.seek(SeekFrom::Start(at)).is_ok() && log.read_exact(&mut line).is_ok();
            if read && line.starts_with(prefix.as_bytes()) && line.ends_with(b"\n") {
                line.pop();
                return Some(line);
            }
            if rebuilt {
                return None;
            }
            rebuild = true;
        }
    }

    /// Opens the log and finds the span of the latest line indexed under
    /// `hash`, after indexing what was appended since the last lookup, or
    /// the whole log when `rebuild` is set or the log shrank. Also says
    /// whether the index was built again. The log is opened and measured
    /// under the index lock, so a lookup never sees a shorter log than
    /// the one indexed unless the log did shrink.
    fn locate(&self, hash: u64, rebuild: bool) -> Option<(File, (u64, usize), bool)> {
        // Every span is checked against the log before it is served, so
        // an index left half updated by a panic is still safe to use.
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let Ok(mut log) = File::open(&self.log) else {
            // Deleted, or never written: nothing indexed is there.
            *index = Index::default();
            return None;
        };
        let len = log.metadata().ok()?.len();
        let rebuild = rebuild || len < index.indexed;
        if rebuild {
            *index = Index::default();
        }
        index.catch_up(&mut log, len).ok()?;
        let span = *index.lines.get(&hash)?;
        Some((log, span, rebuild))
    }

    /// Stores `record` under `content_key` by appending one line to the
    /// log. Write failures are reported but must not abort a sweep — the
    /// result is still in memory.
    ///
    /// # Errors
    ///
    /// Returns an error when the line cannot be appended.
    pub fn put(&self, content_key: &str, record: &SweepRecord) -> std::io::Result<()> {
        let mut line = format!(
            "{:016x} {}\n",
            fnv1a(content_key.as_bytes()),
            record.to_json().render()
        );
        let mut log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&self.log)?;
        // A writer that died mid-line left a torn tail, which would
        // swallow this line: start a fresh one. A line still being
        // written looks the same, and then the fresh start leaves an
        // empty line, which readers skip.
        if log.seek(SeekFrom::End(-1)).is_ok() {
            let mut last = [0];
            log.read_exact(&mut last)?;
            if last != [b'\n'] {
                line.insert(0, '\n');
            }
        }
        log.write_all(line.as_bytes())
    }

    /// Cache hits counted so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses counted so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_sim::RunReport;

    fn record(id: u64) -> SweepRecord {
        SweepRecord {
            id,
            kind: "case-study".into(),
            kernel: "reduction".into(),
            target: "Fusion".into(),
            scale: 64,
            design_point: "p".into(),
            mode: hetmem_sim::ExecMode::Accurate,
            report: RunReport {
                kernel: "reduction".into(),
                parallel_ticks: 7,
                ..RunReport::default()
            },
            timeline: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetmem-xplore-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn append(path: &Path, bytes: &str) {
        let mut log = OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .expect("open log");
        log.write_all(bytes.as_bytes()).expect("append");
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"hetmem"), fnv1a(b"hetmem"));
        assert_ne!(fnv1a(b"hetmem"), fnv1a(b"hetmem "));
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).expect("open");
        assert_eq!(cache.get("key-a"), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let rec = record(3);
        cache.put("key-a", &rec).expect("put");
        assert_eq!(cache.get("key-a"), Some(rec));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_share_one_log_with_one_line_each() {
        let dir = temp_dir("one-log");
        let cache = DiskCache::open(&dir).expect("open");
        cache.put("a", &record(1)).expect("put");
        cache.put("b", &record(2)).expect("put");
        assert_eq!(cache.get("a"), Some(record(1)));
        assert_eq!(cache.get("b"), Some(record(2)));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, [LOG_NAME]);
        let text = std::fs::read_to_string(&cache.log).expect("log");
        let keys: Vec<&str> = text.lines().map(|line| &line[..16]).collect();
        let hex = |key: &str| format!("{:016x}", fnv1a(key.as_bytes()));
        assert_eq!(keys, [hex("a"), hex("b")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_are_misses() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).expect("open");
        let key = fnv1a(b"key-b");
        append(&cache.log, &format!("{key:016x} {{not json\n"));
        append(&cache.log, "not even a key\n");
        assert_eq!(cache.get("key-b"), None);
        assert_eq!(cache.misses(), 1);
        // And the entry can be repaired by a put.
        cache.put("key-b", &record(0)).expect("put");
        assert!(cache.get("key-b").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_later_line_wins() {
        let dir = temp_dir("later");
        let cache = DiskCache::open(&dir).expect("open");
        cache.put("k", &record(1)).expect("put");
        assert_eq!(cache.get("k"), Some(record(1)));
        cache.put("k", &record(2)).expect("put");
        assert_eq!(cache.get("k"), Some(record(2)));
        let fresh = DiskCache::open(&dir).expect("reopen");
        assert_eq!(fresh.get("k"), Some(record(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_append_whole_lines() {
        let dir = temp_dir("concurrent");
        let writers = [
            DiskCache::open(&dir).expect("open"),
            DiskCache::open(&dir).expect("open"),
        ];
        let reader = DiskCache::open(&dir).expect("open");
        let start = std::sync::Barrier::new(9);
        let writing = std::sync::atomic::AtomicUsize::new(8);
        std::thread::scope(|scope| {
            // Looks up while the lines are being written, so it sees some
            // of them half written.
            scope.spawn(|| {
                start.wait();
                while writing.load(Ordering::SeqCst) > 0 {
                    let _ = reader.get("shared");
                }
            });
            for (w, cache) in writers.iter().enumerate() {
                for t in 0..4 {
                    let (start, writing) = (&start, &writing);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..500 {
                            let id = (w * 4 + t) as u64 * 1000 + i;
                            cache.put(&format!("key-{id}"), &record(id)).expect("put");
                            cache.put("shared", &record(id)).expect("put");
                        }
                        writing.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            }
        });
        for id in (0..8).flat_map(|writer| (0..500).map(move |i| writer * 1000 + i)) {
            assert_eq!(reader.get(&format!("key-{id}")), Some(record(id)));
        }
        let shared = reader.get("shared").expect("the shared key hits");
        assert!(shared.id % 1000 < 500 && shared.id < 8000, "{}", shared.id);
        // A store that saw another's line half written starts on a fresh
        // line; the empty line it leaves is skipped.
        let text = std::fs::read_to_string(&reader.log).expect("log");
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().filter(|line| !line.is_empty()).collect();
        assert_eq!(lines.len(), 8000);
        for line in lines {
            let value = crate::json::parse(&line[PREFIX_LEN..]).expect("a whole record");
            assert!(SweepRecord::from_json(&value).is_ok(), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deleted_log_is_a_miss_until_the_next_put() {
        let dir = temp_dir("deleted");
        let cache = DiskCache::open(&dir).expect("open");
        cache.put("k", &record(1)).expect("put");
        assert_eq!(cache.get("k"), Some(record(1)));
        std::fs::remove_file(dir.join(LOG_NAME)).expect("delete the log");
        assert_eq!(cache.get("k"), None);
        // The new log is as long as the one indexed before.
        cache.put("j", &record(2)).expect("put");
        assert_eq!(cache.get("j"), Some(record(2)));
        assert_eq!(cache.get("k"), None);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replaced_or_truncated_log_is_indexed_again() {
        let dir = temp_dir("replaced");
        let cache = DiskCache::open(&dir).expect("open");
        cache.put("one", &record(1)).expect("put");
        cache.put("two", &record(2)).expect("put");
        assert_eq!(cache.get("one"), Some(record(1)));

        // A longer log with the keys in the other order is renamed over
        // the indexed one: every indexed span now points at another key.
        let other = temp_dir("replacement");
        let writer = DiskCache::open(&other).expect("open");
        writer.put("two", &record(20)).expect("put");
        writer.put("one", &record(100)).expect("put");
        writer.put("three", &record(3)).expect("put");
        std::fs::rename(other.join(LOG_NAME), &cache.log).expect("replace");
        assert_eq!(cache.get("one"), Some(record(100)));
        assert_eq!(cache.get("two"), Some(record(20)));
        assert_eq!(cache.get("three"), Some(record(3)));

        // Cut the log back to its first line.
        let first = std::fs::read_to_string(&cache.log)
            .expect("log")
            .find('\n')
            .expect("a line")
            + 1;
        let log = OpenOptions::new()
            .write(true)
            .open(&cache.log)
            .expect("open log");
        log.set_len(first as u64).expect("truncate");
        // Still shorter than the three lines indexed before.
        cache.put("four", &record(4)).expect("put");
        assert_eq!(cache.get("four"), Some(record(4)));
        assert_eq!(cache.get("one"), None);
        assert_eq!(cache.get("three"), None);
        assert_eq!(cache.get("two"), Some(record(20)));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }

    #[test]
    fn a_torn_tail_is_a_miss_and_later_puts_hit() {
        let dir = temp_dir("torn");
        let cache = DiskCache::open(&dir).expect("open");
        cache.put("whole", &record(1)).expect("put");
        let line = |key: &str, id| {
            let line = format!(
                "{:016x} {}\n",
                fnv1a(key.as_bytes()),
                record(id).to_json().render()
            );
            let half = line.len() / 2;
            (line[..half].to_owned(), line[half..].to_owned())
        };
        // A line a lookup saw half written hits once it is complete.
        let (head, tail) = line("late", 5);
        append(&cache.log, &head);
        assert_eq!(cache.get("late"), None);
        append(&cache.log, &tail);
        assert_eq!(cache.get("late"), Some(record(5)));
        // One whose writer died stays torn.
        append(&cache.log, &line("torn", 2).0);
        assert_eq!(cache.get("torn"), None);
        assert_eq!(cache.get("whole"), Some(record(1)));
        cache.put("after", &record(3)).expect("put");
        cache.put("torn", &record(4)).expect("put");
        assert_eq!(cache.get("after"), Some(record(3)));
        assert_eq!(cache.get("torn"), Some(record(4)));
        let fresh = DiskCache::open(&dir).expect("reopen");
        assert_eq!(fresh.get("after"), Some(record(3)));
        assert_eq!(fresh.get("torn"), Some(record(4)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
