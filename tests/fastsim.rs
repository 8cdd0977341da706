//! The `ExecMode` accuracy contract, enforced end to end:
//!
//! * `Sampled` must stay within the documented 2% total-cycles error bound
//!   at scales ≥ 256.
//! * Cached sweep artifacts must never alias across modes.
//! * A recycled engine must be **bit-identical** to a fresh one — same
//!   `RunReport` and the same typed observer event stream — for the paper
//!   kernels and for randomized traces, communication segments included.

use hetmem::core::{AddressSpace, IdealSpaceComm};
use hetmem::sim::{CommCosts, EventTrace, ExecMode, RunReport, SimEvent, SimulationBuilder};
use hetmem::trace::kernels::{Kernel, KernelParams};
use hetmem::trace::{
    CommEvent, CommKind, Inst, Phase, PhaseSegment, PhasedTrace, SpecialOp, TraceStream,
    TransferDirection,
};
use hetmem::xplore::{content_key, content_key_with, Job, JobKind};

/// Runs `trace` under `mode` on the given memory model, returning the
/// report and the recorded event stream + counts.
fn run_mode(trace: &PhasedTrace, space: AddressSpace, mode: ExecMode) -> (RunReport, EventTrace) {
    let mut sim = SimulationBuilder::new()
        .comm_model(IdealSpaceComm::new(space, CommCosts::paper()))
        .mode(mode)
        .observer(EventTrace::new())
        .build()
        .expect("baseline config is valid");
    let report = sim.run(trace).expect("well-formed trace");
    (report, sim.into_observer())
}

/// Runs `trace` under `mode` on an engine recycled from a sampled run of
/// `dirty`, and asserts that its report and event stream match a fresh
/// engine's.
fn assert_recycled_matches_fresh(
    dirty: &PhasedTrace,
    trace: &PhasedTrace,
    space: AddressSpace,
    mode: ExecMode,
    context: &str,
) {
    let comm = || IdealSpaceComm::new(space, CommCosts::paper());
    let mut warm = SimulationBuilder::new()
        .comm_model(comm())
        .mode(ExecMode::sampled_default())
        .build()
        .expect("baseline config is valid");
    warm.run(dirty).expect("well-formed trace");
    let (used, _observer) = warm.into_parts();

    let mut recycled_sim = SimulationBuilder::new()
        .comm_model(comm())
        .mode(mode)
        .recycle(Some(used))
        .observer(EventTrace::new())
        .build()
        .expect("baseline config is valid");
    let recycled_report = recycled_sim.run(trace).expect("well-formed trace");
    let recycled_events: Vec<SimEvent> = recycled_sim.into_observer().events().copied().collect();

    let (fresh_report, fresh_events) = run_mode(trace, space, mode);
    let fresh_stream: Vec<SimEvent> = fresh_events.events().copied().collect();

    assert_eq!(
        fresh_report,
        recycled_report,
        "{context}: recycled engine diverged under {}",
        mode.label()
    );
    assert_eq!(
        fresh_stream,
        recycled_events,
        "{context}: recycled event stream diverged under {}",
        mode.label()
    );
}

#[test]
fn sampled_total_cycles_stay_within_two_percent_at_scale_256_and_up() {
    // The ExecMode accuracy contract: <2% total-cycle error at scale >= 256
    // under the default geometry, for every cell of the paper grid. Cells
    // whose instruction streams fit inside one detailed window are simulated
    // exactly and never skip; sampling proper (fast_forwarded_ticks > 0)
    // must still engage on most of the grid, otherwise the mode has
    // silently degraded into plain accurate simulation.
    for scale in [256u32, 512] {
        let mut engaged = 0usize;
        let mut cells = 0usize;
        for kernel in Kernel::ALL {
            let trace = kernel.generate(&KernelParams::scaled(scale));
            for space in AddressSpace::ALL {
                let (exact, _) = run_mode(&trace, space, ExecMode::Accurate);
                let (sampled, _) = run_mode(&trace, space, ExecMode::sampled_default());
                let exact_total = exact.total_ticks() as f64;
                let sampled_total = sampled.total_ticks() as f64;
                let err = (sampled_total - exact_total).abs() / exact_total;
                assert!(
                    err < 0.02,
                    "{kernel:?} on {space:?} at scale {scale}: sampled error {:.3}% \
                     (exact {exact_total}, sampled {sampled_total})",
                    err * 100.0
                );
                cells += 1;
                if sampled.fast_forwarded_ticks > 0 {
                    engaged += 1;
                }
            }
        }
        assert!(
            engaged * 2 >= cells,
            "at scale {scale} sampling only engaged on {engaged}/{cells} cells"
        );
    }
}

// ---------- randomized differential (PR 2 parity-harness style) ----------

/// Deterministic xorshift64* generator (same harness as tests/properties.rs;
/// test binaries cannot share code without a support crate).
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

    fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.usize_range(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.usize_range(0, options.len())]
    }
}

/// A compute instruction, with an occasional programming-model special so
/// the serializing path (and the sampler's detailed mini-runs) is covered.
fn arb_stream_inst(rng: &mut Rng) -> Inst {
    match rng.range(0, 9) {
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
        6 | 7 => Inst::Branch { taken: rng.bool() },
        _ => Inst::Special(SpecialOp::Push {
            level: rng.pick(&[
                hetmem::trace::CacheLevel::Scratchpad,
                hetmem::trace::CacheLevel::SharedLlc,
            ]),
            addr: rng.range(0, 1 << 32),
            bytes: rng.range(64, 1 << 14),
        }),
    }
}

fn arb_comm_seg_inst(rng: &mut Rng) -> Inst {
    if rng.bool() {
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
    } else {
        Inst::Special(SpecialOp::Acquire {
            addr: rng.range(0, 1 << 32),
            bytes: rng.range(1, 1 << 20),
        })
    }
}

fn arb_trace(rng: &mut Rng) -> PhasedTrace {
    let mut t = PhasedTrace::new("fastsim-prop");
    for _ in 0..rng.usize_range(1, 8) {
        let segment = match rng.range(0, 3) {
            0 => PhaseSegment::new(
                Phase::Sequential,
                rng.vec(1, 120, arb_stream_inst).into_iter().collect(),
                TraceStream::new(),
            ),
            1 => PhaseSegment::new(
                Phase::Parallel,
                rng.vec(0, 120, arb_stream_inst).into_iter().collect(),
                rng.vec(0, 120, arb_stream_inst).into_iter().collect(),
            ),
            _ => PhaseSegment::new(
                Phase::Communication,
                rng.vec(1, 8, arb_comm_seg_inst).into_iter().collect(),
                TraceStream::new(),
            ),
        };
        t.push_segment(segment);
    }
    t
}

#[test]
fn random_traces_run_identically_on_a_recycled_engine() {
    let mut rng = Rng::new(0xFA57_51B1);
    for case in 0..96 {
        let dirty = arb_trace(&mut rng);
        let trace = arb_trace(&mut rng);
        assert_eq!(dirty.validate(), Ok(()));
        assert_eq!(trace.validate(), Ok(()));
        let space = match case % 4 {
            0 => AddressSpace::Unified,
            1 => AddressSpace::PartiallyShared,
            2 => AddressSpace::Disjoint,
            _ => AddressSpace::Adsm,
        };
        assert_recycled_matches_fresh(
            &dirty,
            &trace,
            space,
            ExecMode::Accurate,
            &format!("random case {case} on {space:?}"),
        );
    }
}

#[test]
fn sampled_mode_is_exact_when_everything_fits_one_window() {
    // A stream shorter than the detail window is simulated fully in detail:
    // apart from parallel-phase de-interleaving there is nothing to
    // extrapolate, so a purely sequential trace must match exactly.
    let mut b = hetmem::trace::TraceBuilder::new("tiny-seq", 3);
    b.sequential(
        100,
        hetmem::trace::InstMix::serial(),
        hetmem::trace::AddressPattern::Stream {
            base: 0x1000,
            len: 4096,
            stride: 8,
        },
    );
    let trace = b.finish();
    let (exact, _) = run_mode(&trace, AddressSpace::Unified, ExecMode::Accurate);
    let (sampled, _) = run_mode(&trace, AddressSpace::Unified, ExecMode::sampled_default());
    assert_eq!(exact.total_ticks(), sampled.total_ticks());
    assert_eq!(sampled.fast_forwarded_ticks, 0);
}

// ---------- cache-key isolation ----------

#[test]
fn cache_keys_never_alias_across_modes() {
    let job = Job {
        id: 0,
        kernel: Kernel::Reduction,
        kind: JobKind::AddressSpace {
            space: AddressSpace::Unified,
        },
        scale: 64,
    };
    let config = hetmem::core::experiment::ExperimentConfig::paper();
    let accurate = content_key_with(&job, &config, None, ExecMode::Accurate);
    let sampled = content_key_with(&job, &config, None, ExecMode::sampled_default());
    assert_ne!(accurate, sampled);
    // Accurate keys are unchanged from the pre-mode engine: the default
    // 3-argument key is the accurate key, so existing caches stay warm.
    assert_eq!(accurate, content_key(&job, &config));
}

/// The thread-local engine pool hands previously-used `System`s back to
/// `SimulationBuilder::recycle`; a recycled engine must be observationally
/// indistinguishable from a freshly constructed one, even when the previous
/// run was a different kernel in a different mode.
#[test]
fn recycled_engine_is_observationally_identical_to_fresh() {
    let warm_trace = Kernel::MatrixMul.generate(&KernelParams::scaled(256));
    let trace = Kernel::Reduction.generate(&KernelParams::scaled(256));

    for mode in [ExecMode::Accurate, ExecMode::sampled_default()] {
        assert_recycled_matches_fresh(
            &warm_trace,
            &trace,
            AddressSpace::Unified,
            mode,
            "reduction after matmul",
        );
    }
}
