//! Property-based tests on the core data structures and invariants of the
//! stack: caches, DRAM timing, TLBs, the coherence directory, the branch
//! predictor, trace generation, the lowering passes, and the cluster's
//! consistent-hash ring.
//!
//! The generators run on a small in-repo xorshift harness (the container
//! has no registry access, so `proptest` is not available); seeds are fixed
//! so every run explores the same deterministic case set.

use hetmem::cluster::{Ring, VNODES};
use hetmem::core::consistency::{enumerate_outcomes, ConsistencyModel, Op};
use hetmem::core::hash::fnv1a;
use hetmem::core::{EvaluatedSystem, IdealSpaceComm};
use hetmem::dsl::{generate_trace, lower, AddressSpace, BufId, Buffer, Program, Step, Target};
use hetmem::sim::{
    Cache, CacheConfig, CacheStats, CommAction, CommCosts, CommModel, Directory, Dram, DramConfig,
    Evicted, ExecMode, FabricKind, GroupRun, Gshare, Intervention, LineState, Lookup, Placement,
    Simulation, SystemConfig, Tlb,
};
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::trace::{
    parse_trace, write_trace, CacheLevel, CommEvent, CommKind, Inst, InstClass, Phase,
    PhaseSegment, PhasedTrace, PuKind, SpecialOp, TraceStream, TransferDirection,
};
use std::collections::BTreeMap;

/// Deterministic xorshift64* generator — the harness behind every property.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        usize::try_from(self.range(lo as u64, hi as u64)).expect("fits")
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `len in [min_len, max_len)` draws from `f`.
    fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.usize_range(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// Picks one element of `options`.
    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.usize_range(0, options.len())]
    }
}

const CASES: usize = 128;

fn small_cache_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 4096,
        associativity: 4,
        line_bytes: 64,
        latency_cycles: 1,
    }
}

// ---------- cache ----------

#[test]
fn cache_access_then_contains() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..CASES {
        let addrs = rng.vec(1, 200, |r| r.range(0, 1 << 20));
        let mut c = Cache::new(&small_cache_cfg());
        for &a in &addrs {
            let look = c.access(a, false, Placement::Implicit);
            if !look.bypassed {
                assert!(c.contains(a), "just-filled line must be resident");
            }
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, addrs.len() as u64);
    }
}

#[test]
fn cache_occupancy_bounded() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..CASES {
        let ops = rng.vec(1, 300, |r| (r.range(0, 1 << 18), r.bool(), r.bool()));
        let cfg = small_cache_cfg();
        let mut c = Cache::new(&cfg);
        for &(addr, write, explicit) in &ops {
            let placement = if explicit {
                Placement::Explicit
            } else {
                Placement::Implicit
            };
            let _ = c.access(addr, write, placement);
        }
        let (implicit, explicit) = c.occupancy();
        let lines = cfg.capacity_bytes / u64::from(cfg.line_bytes);
        let sets = cfg.sets();
        assert!(implicit + explicit <= lines);
        // §II-B5 constraint: the explicit footprint stays below capacity —
        // at most (associativity - 1) ways per set.
        assert!(explicit <= sets * u64::from(cfg.associativity - 1));
    }
}

#[test]
fn cache_explicit_lines_survive_implicit_streams() {
    let mut rng = Rng::new(0x5EED);
    for _ in 0..CASES {
        let pinned = rng.range(0, 64);
        let stream = rng.vec(1, 500, |r| r.range(1 << 16, 1 << 20));
        let mut c = Cache::new(&small_cache_cfg());
        let pinned_addr = pinned * 64;
        let _ = c.access(pinned_addr, false, Placement::Explicit);
        for &a in &stream {
            let _ = c.access(a, false, Placement::Implicit);
        }
        assert!(
            c.contains(pinned_addr),
            "explicit block evicted by implicit traffic"
        );
    }
}

// ---------- DRAM ----------

#[test]
fn dram_completion_after_arrival() {
    let mut rng = Rng::new(0xD3AD);
    for _ in 0..CASES {
        let mut reqs = rng.vec(1, 200, |r| {
            (r.range(0, 1_000_000), r.range(0, 1 << 24), r.bool())
        });
        reqs.sort_by_key(|r| r.0);
        let mut d = Dram::new(&DramConfig::default());
        for &(arrival, addr, write) in &reqs {
            let resp = d.request(arrival, addr * 64, write);
            assert!(resp.done_at > arrival, "completion must follow arrival");
        }
        let s = d.stats();
        assert_eq!(s.reads + s.writes, reqs.len() as u64);
        assert_eq!(s.row_hits + s.row_misses, reqs.len() as u64);
    }
}

#[test]
fn dram_same_bank_requests_serialize() {
    let mut rng = Rng::new(0xBA2C);
    for _ in 0..CASES {
        let count = rng.usize_range(2, 40);
        let row = rng.range(0, 16);
        let mut d = Dram::new(&DramConfig::default());
        // Same channel/bank: line multiples of channels*banks (= 32 lines).
        let addr = row * 8192;
        let mut last = 0;
        for _ in 0..count {
            let resp = d.request(0, addr, false);
            assert!(
                resp.done_at > last,
                "same-bank responses must strictly serialize"
            );
            last = resp.done_at;
        }
    }
}

// ---------- TLB ----------

#[test]
fn tlb_repeat_hits() {
    let mut rng = Rng::new(0x71B);
    for _ in 0..CASES {
        let pages = rng.vec(1, 100, |r| r.range(0, 32));
        let mut t = Tlb::new(64, 4096);
        // 32 distinct pages fit in a 64-entry TLB: after a first pass every
        // later access hits.
        for &p in &pages {
            let _ = t.translate(p * 4096);
        }
        for &p in &pages {
            assert!(t.translate(p * 4096), "resident page must hit");
        }
    }
}

// ---------- differential: TLB, cache and directory vs naive models ----------
//
// Each fast structure in the memory hierarchy is driven with the same
// seeded operation sequence as a deliberately naive reference written
// here, and every observable result (hit, evicted line, bypass,
// intervention, counters) must agree step for step.

/// Fully-associative LRU TLB as a plain `Vec` scan.
struct RefTlb {
    entries: Vec<(u64, u64)>, // (page, last use)
    capacity: usize,
    page_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr / self.page_bytes;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() == self.capacity {
            let oldest = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].1)
                .expect("non-empty");
            self.entries.remove(oldest);
        }
        self.entries.push((page, self.clock));
        false
    }
}

#[test]
fn tlb_matches_a_vec_scan_lru() {
    let mut rng = Rng::new(0x071B_D1FF);
    for _ in 0..CASES {
        let capacity = rng.range(1, 17);
        let page_bytes = 1u64 << rng.range(6, 14);
        let mut fast = Tlb::new(u32::try_from(capacity).expect("small"), page_bytes);
        let mut naive = RefTlb {
            entries: Vec::new(),
            capacity: usize::try_from(capacity).expect("small"),
            page_bytes,
            clock: 0,
            hits: 0,
            misses: 0,
        };
        // A working set a little larger than the TLB, with runs of
        // alternating pages, keeps hits, hint misses and evictions all
        // frequent.
        let span = capacity + rng.range(1, 8);
        let ops = rng.vec(1, 400, |r| (r.range(0, 64), r.range(0, span), r.next_u64()));
        for (step, &(op, page, offset)) in ops.iter().enumerate() {
            match op {
                0 => {
                    fast.flush();
                    naive.entries.clear();
                }
                1 => {
                    fast.reset();
                    naive = RefTlb {
                        entries: Vec::new(),
                        clock: 0,
                        hits: 0,
                        misses: 0,
                        ..naive
                    };
                }
                _ => {
                    let addr = page * page_bytes + offset % page_bytes;
                    assert_eq!(
                        fast.translate(addr),
                        naive.translate(addr),
                        "step {step}: page {page}"
                    );
                }
            }
            let s = fast.stats();
            assert_eq!(
                (s.hits, s.misses),
                (naive.hits, naive.misses),
                "step {step}"
            );
        }
    }
}

#[derive(Clone, Copy)]
struct RefLine {
    line: u64,
    dirty: bool,
    explicit: bool,
    last_use: u64,
}

/// Set-associative cache as one `Vec` of resident lines per set, with the
/// §II-B5 rules spelled out: implicit fills never displace explicit lines,
/// and explicit lines (by fill or by upgrade) stay below the set size.
struct RefCache {
    sets: Vec<Vec<RefLine>>,
    assoc: usize,
    line_bytes: u64,
    honor: bool,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: &CacheConfig, honor: bool) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); usize::try_from(cfg.sets()).expect("small")],
            assoc: cfg.associativity as usize,
            line_bytes: u64::from(cfg.line_bytes),
            honor,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn explicit_cap(&self) -> usize {
        self.assoc.saturating_sub(1).max(1)
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.sets.len() as u64) as usize, line)
    }

    fn access(&mut self, addr: u64, write: bool, placement: Placement) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        let (honor, cap, assoc, line_bytes) =
            (self.honor, self.explicit_cap(), self.assoc, self.line_bytes);
        let (set_idx, line) = self.locate(addr);
        let set = &mut self.sets[set_idx];
        let explicit_except = |set: &[RefLine], skip: Option<usize>| {
            (0..set.len())
                .filter(|&i| Some(i) != skip && set[i].explicit)
                .count()
        };
        if let Some(i) = set.iter().position(|l| l.line == line) {
            set[i].last_use = clock;
            set[i].dirty |= write;
            if placement == Placement::Explicit
                && !set[i].explicit
                && (!honor || explicit_except(set, Some(i)) < cap)
            {
                set[i].explicit = true;
            }
            self.stats.hits += 1;
            return Lookup {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }
        self.stats.misses += 1;
        let victim = if set.len() < assoc {
            None
        } else {
            let candidate = (0..set.len())
                .filter(|&i| !honor || placement == Placement::Explicit || !set[i].explicit)
                .min_by_key(|&i| set[i].last_use);
            let Some(i) = candidate else {
                self.stats.bypasses += 1;
                return Lookup {
                    hit: false,
                    evicted: None,
                    bypassed: true,
                };
            };
            Some(i)
        };
        let explicit =
            placement == Placement::Explicit && !(honor && explicit_except(set, victim) >= cap);
        let evicted = victim.map(|i| {
            let old = set.remove(i);
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            Evicted {
                addr: old.line * line_bytes,
                dirty: old.dirty,
            }
        });
        set.push(RefLine {
            line,
            dirty: write,
            explicit,
            last_use: clock,
        });
        Lookup {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set_idx, line) = self.locate(addr);
        let set = &mut self.sets[set_idx];
        let i = set.iter().position(|l| l.line == line)?;
        Some(set.remove(i).dirty)
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, line) = self.locate(addr);
        self.sets[set_idx].iter().any(|l| l.line == line)
    }

    fn occupancy(&self) -> (u64, u64) {
        let lines = self.sets.iter().flatten();
        let explicit = lines.clone().filter(|l| l.explicit).count() as u64;
        (lines.count() as u64 - explicit, explicit)
    }
}

#[test]
fn cache_matches_a_per_set_vec_lru_with_the_explicit_cap() {
    let mut rng = Rng::new(0xCAC4_ED1F);
    for case in 0..CASES * 2 {
        let assoc = rng.pick(&[1u32, 2, 3, 4, 8]);
        let sets = 1u64 << rng.range(0, 4);
        let line_bytes = rng.pick(&[16u32, 64]);
        let cfg = CacheConfig {
            capacity_bytes: sets * u64::from(assoc) * u64::from(line_bytes),
            associativity: assoc,
            line_bytes,
            latency_cycles: 1,
        };
        let honor = case % 2 == 0;
        let mut fast = Cache::with_locality(&cfg, honor);
        let mut naive = RefCache::new(&cfg, honor);
        // Lines drawn from a few times the cache's capacity, so sets fill,
        // evict, bypass and re-hit.
        let lines = sets * u64::from(assoc) * rng.range(2, 5);
        let explicit_bias = rng.range(1, 5);
        let ops = rng.vec(1, 600, |r| {
            (
                r.range(0, 64),
                r.range(0, lines),
                r.bool(),
                r.range(0, 8) < explicit_bias,
            )
        });
        for (step, &(op, line, write, explicit)) in ops.iter().enumerate() {
            let addr = line * u64::from(line_bytes) + u64::from(line_bytes) / 2;
            match op {
                0 => {
                    fast.reset();
                    naive = RefCache::new(&cfg, honor);
                }
                1..=4 => assert_eq!(
                    fast.invalidate(addr),
                    naive.invalidate(addr),
                    "case {case} step {step}"
                ),
                5..=7 => assert_eq!(fast.contains(addr), naive.contains(addr)),
                _ => {
                    let placement = if explicit {
                        Placement::Explicit
                    } else {
                        Placement::Implicit
                    };
                    assert_eq!(
                        fast.access(addr, write, placement),
                        naive.access(addr, write, placement),
                        "case {case} step {step}: line {line} {placement:?}"
                    );
                }
            }
            assert_eq!(fast.stats(), naive.stats, "case {case} step {step}");
        }
        assert_eq!(fast.occupancy(), naive.occupancy(), "case {case}");
    }
}

/// The MSI directory as an ordered map of per-PU states.
#[derive(Default)]
struct RefDirectory {
    lines: BTreeMap<u64, [LineState; 2]>,
    invalidations: u64,
    peer_writebacks: u64,
}

fn pu_index(pu: PuKind) -> usize {
    match pu {
        PuKind::Cpu => 0,
        PuKind::Gpu => 1,
    }
}

impl RefDirectory {
    fn on_access(&mut self, pu: PuKind, line: u64, write: bool) -> Intervention {
        let states = self.lines.entry(line).or_insert([LineState::Invalid; 2]);
        let peer = pu_index(pu.peer());
        let action = Intervention {
            invalidate_peer: states[peer] == LineState::Modified
                || (write && states[peer] == LineState::Shared),
            writeback_from_peer: states[peer] == LineState::Modified,
        };
        if action.invalidate_peer {
            states[peer] = LineState::Invalid;
            self.invalidations += 1;
        }
        if action.writeback_from_peer {
            self.peer_writebacks += 1;
        }
        states[pu_index(pu)] = if write {
            LineState::Modified
        } else {
            LineState::Shared
        };
        action
    }

    fn on_evict(&mut self, pu: PuKind, line: u64) {
        if let Some(states) = self.lines.get_mut(&line) {
            states[pu_index(pu)] = LineState::Invalid;
            if *states == [LineState::Invalid; 2] {
                self.lines.remove(&line);
            }
        }
    }

    fn state(&self, pu: PuKind, line: u64) -> LineState {
        self.lines
            .get(&line)
            .map_or(LineState::Invalid, |s| s[pu_index(pu)])
    }
}

#[test]
fn directory_matches_a_btreemap() {
    let mut rng = Rng::new(0x00D1_2EC7);
    for _ in 0..CASES {
        let mut fast = Directory::new();
        let mut naive = RefDirectory::default();
        // Dense low lines plus line numbers that differ only in high bits,
        // which a weak line hash would pile into one bucket.
        let hot = rng.range(1, 64);
        let ops = rng.vec(1, 800, |r| {
            let line = r.range(0, hot) | if r.bool() { r.range(0, 4) << 40 } else { 0 };
            (r.range(0, 32), r.bool(), line, r.bool())
        });
        for (step, &(op, gpu, line, write)) in ops.iter().enumerate() {
            let pu = if gpu { PuKind::Gpu } else { PuKind::Cpu };
            match op {
                0 => {
                    fast.reset();
                    naive = RefDirectory::default();
                }
                1..=10 => {
                    fast.on_evict(pu, line);
                    naive.on_evict(pu, line);
                }
                _ => assert_eq!(
                    fast.on_access(pu, line, write),
                    naive.on_access(pu, line, write),
                    "step {step}: {pu:?} line {line:#x} write {write}"
                ),
            }
            assert_eq!(fast.state(pu, line), naive.state(pu, line), "step {step}");
            assert_eq!(fast.tracked_lines(), naive.lines.len(), "step {step}");
            let s = fast.stats();
            assert_eq!(
                (s.invalidations, s.peer_writebacks),
                (naive.invalidations, naive.peer_writebacks),
                "step {step}"
            );
        }
    }
}

// ---------- differential: the hash ring vs a scan over every virtual point ----------

/// Ring placement, restated: FNV-1a finalized by splitmix64.
fn ring_position(bytes: &[u8]) -> u64 {
    let mut x = fnv1a(bytes);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The owner by brute force: the smallest `(position, node)` virtual
/// point at or after the key, else (wrapping) the smallest point of all.
/// Nodes are ranked in sorted address order, as the ring ranks them.
fn scan_owner(members: &[String], key: &str) -> Option<(String, bool)> {
    let mut nodes = members.to_vec();
    nodes.sort();
    nodes.dedup();
    let points: Vec<(u64, usize)> = nodes
        .iter()
        .enumerate()
        .flat_map(|(i, node)| {
            (0..VNODES).map(move |v| (ring_position(format!("{node}#{v}").as_bytes()), i))
        })
        .collect();
    let at = ring_position(key.as_bytes());
    let after = points.iter().filter(|&&(p, _)| p >= at).min();
    let wrapped = after.is_none();
    let &(_, i) = after.or_else(|| points.iter().min())?;
    Some((nodes[i].clone(), wrapped))
}

#[test]
fn ring_owner_matches_a_scan_over_every_virtual_point() {
    let mut rng = Rng::new(0x2196_0B0E);
    let mut wraps = 0;
    for _ in 0..CASES {
        // Small address pools make duplicate members likely.
        let hosts = rng.range(1, 4);
        let members = rng.vec(0, 9, |r| {
            format!("10.0.0.{}:{}", r.range(1, hosts + 1), 7000 + r.range(0, 4))
        });
        let ring = Ring::new(&members);
        for k in 0..64 {
            let key = format!("{:016x}-{k}", rng.next_u64());
            let expected = scan_owner(&members, &key);
            wraps += usize::from(expected.as_ref().is_some_and(|&(_, w)| w));
            assert_eq!(
                ring.owner(&key),
                expected.as_ref().map(|(node, _)| node.as_str()),
                "members {members:?} key {key}"
            );
        }
    }
    assert!(wraps > 0, "no key wrapped past the top of the ring");
}

// ---------- branch predictor ----------

#[test]
fn gshare_counts_are_consistent() {
    let mut rng = Rng::new(0x6543);
    for _ in 0..CASES {
        let outcomes = rng.vec(1, 500, Rng::bool);
        let mut g = Gshare::new(10, 8);
        for &t in &outcomes {
            let _ = g.predict_and_train(t);
        }
        assert_eq!(g.predictions(), outcomes.len() as u64);
        assert!(g.mispredictions() <= g.predictions());
        assert!((0.0..=1.0).contains(&g.misprediction_rate()));
    }
}

// ---------- trace generation ----------

#[test]
fn scaled_kernels_stay_well_formed() {
    let mut rng = Rng::new(0x7ACE);
    for _ in 0..24 {
        // Skip the slow full-size generations; scale >= 8 is instant.
        let scale = u32::try_from(rng.range(8, 5000)).expect("fits");
        let kernel = rng.pick(&Kernel::ALL);
        let trace = kernel.generate(&KernelParams::scaled(scale));
        assert_eq!(trace.validate(), Ok(()));
        assert_eq!(
            trace.comm_count(),
            kernel.paper_characteristics().communications
        );
        let c = trace.characteristics();
        assert!(c.cpu_instructions > 0);
        assert!(c.gpu_instructions > 0);
    }
}

// ---------- lowering invariants over random programs ----------

/// A random but well-formed heterogeneous program.
fn arb_program(rng: &mut Rng) -> Program {
    let n = rng.usize_range(2, 6);
    let buffers: Vec<Buffer> = (0..n)
        .map(|i| Buffer::new(format!("b{i}"), 64 * (i as u64 + 1)))
        .collect();
    let mut steps: Vec<Step> = rng.vec(1, 8, |r| {
        let gpu = r.bool();
        Step::Kernel {
            target: if gpu { Target::Gpu } else { Target::Cpu },
            name: if gpu { "kG".into() } else { "kC".into() },
            reads: vec![BufId(r.usize_range(0, n))],
            writes: vec![BufId(r.usize_range(0, n))],
            args_upload: r.bool(),
        }
    });
    // Always initialize buffer 0 first and end with a host use so the
    // program is meaningful.
    steps.insert(
        0,
        Step::HostInit {
            bufs: vec![BufId(0)],
        },
    );
    steps.push(Step::Seq {
        name: "finish".into(),
        reads: vec![BufId(0)],
        writes: vec![],
    });
    Program {
        name: "random".into(),
        buffers,
        steps,
        compute_lines: 10,
    }
}

#[test]
fn lowering_invariants_hold_for_random_programs() {
    let mut rng = Rng::new(0x10EF);
    for _ in 0..64 {
        let program = arb_program(&mut rng);
        assert_eq!(program.validate(), Ok(()));
        let uni = lower(&program, AddressSpace::Unified);
        assert_eq!(
            uni.comm_overhead_lines(),
            0,
            "unified is always overhead-free"
        );

        let pas = lower(&program, AddressSpace::PartiallyShared);
        assert_eq!(
            pas.comm_overhead_lines(),
            2 * program.gpu_kernel_sites(),
            "PAS overhead is exactly one release+acquire pair per GPU kernel site"
        );

        let dis = lower(&program, AddressSpace::Disjoint).comm_overhead_lines();
        let adsm = lower(&program, AddressSpace::Adsm).comm_overhead_lines();
        assert!(adsm <= dis, "ADSM never needs more lines than disjoint");
        if program.gpu_kernel_sites() > 0 {
            assert!(dis > 0);
        }
    }
}

#[test]
fn codegen_valid_for_random_programs() {
    let mut rng = Rng::new(0xC0DE);
    for _ in 0..64 {
        let program = arb_program(&mut rng);
        for model in AddressSpace::ALL {
            let trace = generate_trace(&lower(&program, model));
            assert_eq!(trace.validate(), Ok(()), "{model}");
            if model == AddressSpace::Unified {
                assert_eq!(trace.comm_bytes(), 0);
            }
        }
    }
}

// ---------- trace encoding round-trips over random traces ----------

fn arb_compute_inst(rng: &mut Rng) -> Inst {
    match rng.range(0, 7) {
        0 => Inst::IntAlu,
        1 => Inst::Mul,
        2 => Inst::FpAlu,
        3 => Inst::SimdAlu {
            lanes: u8::try_from(rng.range(1, 9)).expect("fits"),
        },
        4 => Inst::Load {
            addr: rng.range(0, 1 << 32),
            bytes: rng.pick(&[4u8, 8, 32]),
        },
        5 => Inst::Store {
            addr: rng.range(0, 1 << 32),
            bytes: rng.pick(&[4u8, 8, 32]),
        },
        _ => Inst::Branch { taken: rng.bool() },
    }
}

fn arb_special_inst(rng: &mut Rng) -> Inst {
    match rng.range(0, 6) {
        0 => Inst::Special(SpecialOp::Acquire {
            addr: rng.range(0, 1 << 32),
            bytes: rng.range(1, 1 << 20),
        }),
        1 => Inst::Special(SpecialOp::Release {
            addr: rng.range(0, 1 << 32),
            bytes: rng.range(1, 1 << 20),
        }),
        2 => Inst::Special(SpecialOp::PageFault {
            addr: rng.range(0, 1 << 32),
        }),
        3 => Inst::Special(SpecialOp::Sync),
        4 => Inst::Special(SpecialOp::KernelLaunch),
        _ => Inst::Special(SpecialOp::Free {
            addr: rng.range(0, 1 << 32),
        }),
    }
}

fn arb_comm_inst(rng: &mut Rng) -> Inst {
    Inst::Comm(CommEvent {
        direction: if rng.bool() {
            TransferDirection::HostToDevice
        } else {
            TransferDirection::DeviceToHost
        },
        kind: rng.pick(&[
            CommKind::InitialInput,
            CommKind::ResultReturn,
            CommKind::Intermediate,
        ]),
        bytes: rng.range(1, 1 << 24),
        addr: rng.range(0, 1 << 32),
    })
}

fn arb_trace(rng: &mut Rng) -> PhasedTrace {
    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 _-";
    let mut name = String::from("t");
    for _ in 0..rng.usize_range(0, 20) {
        name.push(char::from(NAME_CHARS[rng.usize_range(0, NAME_CHARS.len())]));
    }
    let mut t = PhasedTrace::new(name);
    for _ in 0..rng.usize_range(1, 8) {
        let segment = match rng.range(0, 3) {
            0 => PhaseSegment::new(
                Phase::Sequential,
                rng.vec(1, 30, arb_compute_inst).into_iter().collect(),
                TraceStream::new(),
            ),
            1 => PhaseSegment::new(
                Phase::Parallel,
                rng.vec(0, 30, arb_compute_inst).into_iter().collect(),
                rng.vec(0, 30, arb_compute_inst).into_iter().collect(),
            ),
            _ => PhaseSegment::new(
                Phase::Communication,
                rng.vec(1, 8, |r| {
                    if r.bool() {
                        arb_comm_inst(r)
                    } else {
                        arb_special_inst(r)
                    }
                })
                .into_iter()
                .collect(),
                TraceStream::new(),
            ),
        };
        t.push_segment(segment);
    }
    t
}

#[test]
fn random_traces_round_trip_through_hmt() {
    let mut rng = Rng::new(0x2077);
    for _ in 0..64 {
        let trace = arb_trace(&mut rng);
        // Only well-formed traces are encodable-by-contract; random
        // composition above always satisfies the shape invariants.
        assert_eq!(trace.validate(), Ok(()));
        let text = write_trace(&trace);
        let decoded = parse_trace(&text).expect("own output must parse");
        assert_eq!(decoded, trace);
    }
}

// ---------- trace streams: packed slots agree with a plain Vec<Inst> ----------

/// Any instruction, with loads and stores sometimes at the very top of the
/// address space.
fn arb_any_inst(rng: &mut Rng) -> Inst {
    match rng.range(0, 10) {
        0 => arb_comm_inst(rng),
        1 => arb_special_inst(rng),
        2 => Inst::Load {
            addr: u64::MAX - rng.range(0, 8),
            bytes: 8,
        },
        3 => Inst::Store {
            addr: u64::MAX,
            bytes: 4,
        },
        _ => arb_compute_inst(rng),
    }
}

#[test]
fn trace_stream_agrees_with_a_vec_of_insts() {
    const CLASSES: [InstClass; 7] = [
        InstClass::IntOp,
        InstClass::FpOp,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Comm,
        InstClass::Special,
    ];
    let mut rng = Rng::new(0x5107);
    for _ in 0..CASES {
        let insts = rng.vec(0, 300, arb_any_inst);
        let stream: TraceStream = insts.iter().copied().collect();
        assert_eq!(stream.len(), insts.len());
        assert_eq!(stream.is_empty(), insts.is_empty());
        for (i, &inst) in insts.iter().enumerate() {
            assert_eq!(stream.get(i), inst, "instruction {i}");
        }
        assert!(stream.iter().eq(insts.iter().copied()));
        for class in CLASSES {
            let want = insts.iter().filter(|i| i.class() == class).count();
            assert_eq!(stream.class_count(class), want, "{class:?}");
        }
        let comms: Vec<&CommEvent> = insts
            .iter()
            .filter_map(|i| match i {
                Inst::Comm(ev) => Some(ev),
                _ => None,
            })
            .collect();
        assert_eq!(stream.comm_count(), comms.len());
        assert_eq!(stream.comm_bytes(), comms.iter().map(|ev| ev.bytes).sum());

        // Equality follows the instruction sequences, however the streams
        // were built.
        let mut pushed = TraceStream::new();
        for &inst in &insts {
            pushed.push(inst);
        }
        assert_eq!(pushed, stream);
        if !insts.is_empty() {
            let mut other = insts.clone();
            let at = rng.usize_range(0, other.len());
            other[at] = arb_any_inst(&mut rng);
            let other_stream: TraceStream = other.iter().copied().collect();
            assert_eq!(other_stream == stream, other == insts);
        }
    }
}

// ---------- grouped runs: a replayed compute timeline is exact ----------

/// Every transfer is a background copy over PCI-E behind a short setup.
struct Background;

impl CommModel for Background {
    fn plan(&mut self, event: &CommEvent) -> CommAction {
        CommAction::Asynchronous {
            setup: 1_000,
            transfer: FabricKind::PciExpress.transfer_ticks(event.bytes, &CommCosts::paper()),
        }
    }
}

/// Every transfer is a synchronous copy that takes no time.
struct Free;

impl CommModel for Free {
    fn plan(&mut self, _: &CommEvent) -> CommAction {
        CommAction::Synchronous { ticks: 0 }
    }
}

type ModelFactory = Box<dyn Fn() -> Box<dyn CommModel>>;

/// The models a sweep groups — the five evaluated systems and the four
/// address spaces — plus an asynchronous and a zero-cost one.
fn group_models() -> Vec<ModelFactory> {
    let costs = CommCosts::paper();
    let mut models: Vec<ModelFactory> = Vec::new();
    for system in EvaluatedSystem::ALL {
        models.push(Box::new(move || Box::new(system.comm_model(costs))));
    }
    for space in AddressSpace::ALL {
        models.push(Box::new(move || {
            Box::new(IdealSpaceComm::new(space, costs))
        }));
    }
    models.push(Box::new(|| Box::new(Background)));
    models.push(Box::new(|| Box::new(Free)));
    models
}

/// Runs `models` on `trace` as one group and asserts that every member's
/// report equals a fresh simulation's under the same model. Returns the
/// group's runs.
fn assert_group_matches_per_job(
    trace: &PhasedTrace,
    config: SystemConfig,
    mode: ExecMode,
    models: &[&ModelFactory],
    what: &str,
) -> Vec<GroupRun> {
    let build = |model: &ModelFactory| {
        Simulation::builder()
            .config(config)
            .mode(mode)
            .comm_model(model())
            .build()
            .expect("valid config")
    };
    let runs = build(models[0])
        .run_group(trace, models[1..].iter().map(|model| move || model()))
        .expect("well-formed trace");
    assert_eq!(runs.len(), models.len(), "{what}");
    for (i, (model, run)) in models.iter().zip(&runs).enumerate() {
        let alone = build(model).run(trace).expect("well-formed trace");
        assert_eq!(run.report, alone, "{what}: member {i}");
    }
    assert!(!runs[0].replayed, "{what}: the leader is simulated");
    runs
}

/// A compute instruction, now and then a programming-model special (an LLC
/// push among them, which moves hierarchy state inside compute).
fn arb_group_compute_inst(rng: &mut Rng) -> Inst {
    match rng.range(0, 16) {
        0 => arb_special_inst(rng),
        1 => Inst::Special(SpecialOp::Push {
            level: CacheLevel::SharedLlc,
            addr: rng.range(0, 1 << 32),
            bytes: rng.range(1, 4096),
        }),
        _ => arb_compute_inst(rng),
    }
}

fn arb_group_trace(rng: &mut Rng) -> PhasedTrace {
    arb_phased_trace(rng, 80)
}

/// A random phased trace whose compute streams hold fewer than `max_len`
/// instructions each.
fn arb_phased_trace(rng: &mut Rng, max_len: usize) -> PhasedTrace {
    let mut t = PhasedTrace::new("group");
    for _ in 0..rng.usize_range(1, 8) {
        let phase =
            [Phase::Sequential, Phase::Parallel, Phase::Communication][rng.usize_range(0, 3)];
        t.push_segment(arb_segment(rng, phase, 0, max_len));
    }
    t
}

/// A long parallel segment, a short communication segment and a long
/// sequential one. Each compute stream runs past two sampled periods
/// (2 × (1 536 + 512) instructions), with specials inside.
fn arb_long_group_trace(rng: &mut Rng) -> PhasedTrace {
    let mut t = PhasedTrace::new("group");
    for phase in [Phase::Parallel, Phase::Communication, Phase::Sequential] {
        t.push_segment(arb_segment(rng, phase, 4_200, 4_800));
    }
    t
}

/// A random `phase` segment whose compute streams hold at least `min_len`
/// (a sequential one at least one) and fewer than `max_len` instructions.
fn arb_segment(rng: &mut Rng, phase: Phase, min_len: usize, max_len: usize) -> PhaseSegment {
    match phase {
        Phase::Sequential => PhaseSegment::new(
            Phase::Sequential,
            rng.vec(min_len.max(1), max_len, arb_group_compute_inst)
                .into_iter()
                .collect(),
            TraceStream::new(),
        ),
        Phase::Parallel => PhaseSegment::new(
            Phase::Parallel,
            rng.vec(min_len, max_len, arb_group_compute_inst)
                .into_iter()
                .collect(),
            rng.vec(min_len, max_len, arb_group_compute_inst)
                .into_iter()
                .collect(),
        ),
        Phase::Communication => PhaseSegment::new(
            Phase::Communication,
            rng.vec(1, 4, |r| {
                if r.range(0, 4) == 0 {
                    arb_special_inst(r)
                } else {
                    arb_comm_inst(r)
                }
            })
            .into_iter()
            .collect(),
            TraceStream::new(),
        ),
    }
}

/// `config` with 512 B–1 KB two-way caches: a short store stream evicts
/// dirty lines all the way out of the LLC.
fn tiny_caches(mut config: SystemConfig) -> SystemConfig {
    let l1d = config.cpu.l1d;
    let tiny = |capacity_bytes| CacheConfig {
        capacity_bytes,
        associativity: 2,
        ..l1d
    };
    config.cpu.l1d = tiny(512);
    config.cpu.l2 = tiny(1024);
    config.gpu.l1d = tiny(512);
    config.llc.tile = tiny(1024);
    config
}

#[test]
fn grouped_runs_equal_per_job_runs_for_random_traces() {
    let models = group_models();
    let mut rng = Rng::new(0x6A0F);
    let (mut replayed, mut simulated, mut replayed_skips) = (0, 0, 0);
    // 24 short traces, then one whose compute streams run past two sampled
    // periods (2 × (1 536 + 512) instructions) with specials inside, so a
    // replayed sampled member skips. The long one runs sampled, on the
    // two configurations at the ends of the range, only: the short ones
    // already cover the rest, and a long debug-build simulation is slow.
    for case in 0..25 {
        let long = case >= 24;
        let trace = if long {
            arb_long_group_trace(&mut rng)
        } else {
            arb_group_trace(&mut rng)
        };
        // Rotate the leader so every model leads some group.
        let lead = case % models.len();
        let order: Vec<&ModelFactory> = models[lead..].iter().chain(&models[..lead]).collect();
        let (modes, configs): (&[ExecMode], &[(u32, bool)]) = if long {
            (&[ExecMode::Sampled], &[(0, false), (4, true)])
        } else {
            (
                &[ExecMode::Accurate, ExecMode::Sampled],
                &[(0, false), (4, false), (0, true), (4, true)],
            )
        };
        for &mode in modes {
            for &(degree, tiny) in configs {
                let mut config = SystemConfig::baseline();
                config.cpu.l2_prefetch_degree = degree;
                if tiny {
                    config = tiny_caches(config);
                }
                let what = format!("case {case}, {mode:?}, degree {degree}, tiny caches {tiny}");
                let members = assert_group_matches_per_job(&trace, config, mode, &order, &what);
                for run in &members[1..] {
                    if !run.replayed {
                        simulated += 1;
                    } else if run.report.fast_forwarded_ticks > 0 {
                        replayed_skips += 1;
                    } else {
                        replayed += 1;
                    }
                }
            }
        }
    }
    // Both paths, and a replay across sampled skips, must have been
    // exercised for the equality to mean much.
    assert!(
        replayed > 0 && simulated > 0 && replayed_skips > 0,
        "{replayed} replayed without skips, {replayed_skips} with, {simulated} simulated"
    );
}

/// FNV-1a digest of the per-job reports below, recorded before the four
/// compute-segment loops (accurate sequential, accurate parallel, sampled
/// sequential, sampled parallel) became one windowed loop.
const RANDOM_TRACE_REPORTS_DIGEST: u64 = 0x2e49_a66f_12ae_3bf6;

#[test]
fn per_job_reports_over_random_traces_match_the_pinned_digest() {
    // The group test's 24 traces, then 4 whose streams run to 4 000
    // instructions: long enough for the default sampled geometry to skip,
    // and, with a special or LLC push every 16 instructions or so, to skip
    // across them.
    let models = group_models();
    let mut rng = Rng::new(0x6A0F);
    let mut text = String::new();
    let mut fast_forwarded = 0;
    for case in 0..28 {
        let trace = arb_phased_trace(&mut rng, if case < 24 { 80 } else { 4_000 });
        for mode in [ExecMode::Accurate, ExecMode::sampled_default()] {
            for model in &models {
                let report = Simulation::builder()
                    .mode(mode)
                    .comm_model(model())
                    .build()
                    .expect("valid config")
                    .run(&trace)
                    .expect("well-formed trace");
                fast_forwarded += report.fast_forwarded_ticks;
                text.push_str(&format!("{report:?}\n"));
            }
        }
    }
    assert!(fast_forwarded > 0, "no sampled run skipped");
    let digest = fnv1a(text.as_bytes());
    assert_eq!(
        digest, RANDOM_TRACE_REPORTS_DIGEST,
        "reports digest to {digest:#018x}"
    );
}

#[test]
fn a_busy_dram_at_a_compute_start_forces_a_full_simulation() {
    // Tiny caches, so a store stream evicts dirty lines all the way out of
    // the LLC: posted DRAM writes keep the channels busy long after the
    // write-buffered stores retire.
    let config = tiny_caches(SystemConfig::baseline());
    let stores: TraceStream = (0..1024u64)
        .map(|i| Inst::Store {
            addr: 0x100_0000 + i * 64,
            bytes: 8,
        })
        .collect();
    let loads: TraceStream = (0..64u64)
        .map(|i| Inst::Load {
            addr: 0x800_0000 + i * 64,
            bytes: 8,
        })
        .collect();
    let copy: TraceStream = [Inst::Comm(CommEvent {
        direction: TransferDirection::DeviceToHost,
        bytes: 1 << 20,
        kind: CommKind::Intermediate,
        addr: 0x100_0000,
    })]
    .into_iter()
    .collect();
    let mut trace = PhasedTrace::new("posted-writes");
    trace.push_segment(PhaseSegment::new(
        Phase::Sequential,
        stores,
        TraceStream::new(),
    ));
    trace.push_segment(PhaseSegment::new(
        Phase::Communication,
        copy,
        TraceStream::new(),
    ));
    trace.push_segment(PhaseSegment::new(
        Phase::Sequential,
        loads,
        TraceStream::new(),
    ));
    let costs = CommCosts::paper();
    // The leader's PCI-E copy outlasts the posted writes, so its loads
    // start on idle DRAM; the elided copy starts them on busy channels.
    let pcie: ModelFactory =
        Box::new(move || Box::new(EvaluatedSystem::CpuGpuCuda.comm_model(costs)));
    let elided: ModelFactory =
        Box::new(move || Box::new(EvaluatedSystem::IdealHetero.comm_model(costs)));
    let members: Vec<bool> = assert_group_matches_per_job(
        &trace,
        config,
        ExecMode::Accurate,
        &[&pcie, &elided],
        "posted writes",
    )
    .iter()
    .map(|run| run.replayed)
    .collect();
    assert_eq!(members, [false, false], "the elided member must fall back");
    // The fallback is not a formality: the busy channels change the loads'
    // timing, which a replay of the leader's timeline would have missed.
    let alone = |model: &ModelFactory| {
        Simulation::builder()
            .config(config)
            .comm_model(model())
            .build()
            .expect("valid config")
            .run(&trace)
            .expect("well-formed trace")
    };
    assert_ne!(
        alone(&pcie).sequential_ticks,
        alone(&elided).sequential_ticks
    );
}

// ---------- consistency: weak is always a relaxation ----------

/// Litmus ops over 2 locations and 2 values; no ownership ops (those can
/// block, which makes outcome-set comparison vacuous).
fn arb_litmus_op(rng: &mut Rng) -> Op {
    match rng.range(0, 3) {
        0 => Op::Write {
            loc: u8::try_from(rng.range(0, 2)).expect("fits"),
            value: u8::try_from(rng.range(1, 3)).expect("fits"),
        },
        1 => Op::Read {
            loc: u8::try_from(rng.range(0, 2)).expect("fits"),
        },
        _ => Op::Fence,
    }
}

#[test]
fn weak_outcomes_contain_sc_outcomes() {
    let mut rng = Rng::new(0x11FF);
    for _ in 0..64 {
        let a = rng.vec(0, 4, arb_litmus_op);
        let b = rng.vec(0, 4, arb_litmus_op);
        let threads = [a, b];
        let sc = enumerate_outcomes(&threads, ConsistencyModel::SequentialConsistency);
        let weak = enumerate_outcomes(&threads, ConsistencyModel::Weak);
        assert!(
            sc.is_subset(&weak),
            "SC outcomes must be weak-reachable: sc={sc:?} weak={weak:?}"
        );
    }
}
