//! Run reports: the per-phase cycle breakdown of Figure 5 plus all
//! microarchitectural counters.

use crate::clock::{ticks_to_ns, Tick};
use crate::cpu::CpuStats;
use crate::gpu::GpuStats;
use crate::hierarchy::HierarchyStats;
use hetmem_trace::Phase;

/// The result of simulating one kernel trace on one design point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Kernel name the trace was generated from.
    pub kernel: String,
    /// Ticks spent in sequential segments.
    pub sequential_ticks: Tick,
    /// Ticks spent in parallel segments (communication delays excluded).
    pub parallel_ticks: Tick,
    /// Ticks attributable to communication (transfers, ownership,
    /// page faults, and any un-hidden asynchronous copy tail).
    pub communication_ticks: Tick,
    /// Ticks the engine extrapolated across sampling skips rather than
    /// simulating them step by step. Always zero in
    /// [`crate::ExecMode::Accurate`]; counts genuinely estimated ticks in
    /// `Sampled`. Not part of
    /// [`RunReport::total_ticks`] — the phase ticks already include these
    /// spans.
    pub fast_forwarded_ticks: Tick,
    /// Memory-system counters.
    pub hierarchy: HierarchyStats,
    /// CPU core counters.
    pub cpu: CpuStats,
    /// GPU core counters.
    pub gpu: GpuStats,
}

impl RunReport {
    /// Total execution ticks.
    #[must_use]
    pub fn total_ticks(&self) -> Tick {
        self.sequential_ticks + self.parallel_ticks + self.communication_ticks
    }

    /// Ticks attributed to `phase`.
    #[must_use]
    pub fn phase_ticks(&self, phase: Phase) -> Tick {
        match phase {
            Phase::Sequential => self.sequential_ticks,
            Phase::Parallel => self.parallel_ticks,
            Phase::Communication => self.communication_ticks,
        }
    }

    /// Fraction of total time spent in `phase`, in `[0, 1]`. Zero for an
    /// empty run.
    #[must_use]
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let total = self.total_ticks();
        if total == 0 {
            0.0
        } else {
            self.phase_ticks(phase) as f64 / total as f64
        }
    }

    /// Total execution time in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        ticks_to_ns(self.total_ticks())
    }

    /// Communication time in nanoseconds.
    #[must_use]
    pub fn communication_ns(&self) -> f64 {
        ticks_to_ns(self.communication_ticks)
    }

    /// Derived microarchitectural rates.
    #[must_use]
    pub fn derived(&self) -> DerivedStats {
        let safe_div = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let cpu_cycles = crate::clock::ClockDomain::CPU.ticks_to_cycles(self.total_ticks()) as f64;
        let gpu_cycles = crate::clock::ClockDomain::GPU.ticks_to_cycles(self.total_ticks()) as f64;
        let per_kilo = |events: u64, insts: u64| safe_div(events as f64 * 1000.0, insts as f64);
        let dram_bytes = (self.hierarchy.dram.reads + self.hierarchy.dram.writes) * 64;
        DerivedStats {
            cpu_ipc: safe_div(self.cpu.instructions as f64, cpu_cycles),
            gpu_ipc: safe_div(self.gpu.instructions as f64, gpu_cycles),
            cpu_l1_mpki: per_kilo(self.hierarchy.cpu_l1d.misses, self.cpu.instructions),
            gpu_l1_mpki: per_kilo(self.hierarchy.gpu_l1d.misses, self.gpu.instructions),
            llc_mpki: per_kilo(
                self.hierarchy.llc.misses,
                self.cpu.instructions + self.gpu.instructions,
            ),
            branch_mpki: per_kilo(self.cpu.mispredictions, self.cpu.instructions),
            dram_bandwidth_gbps: safe_div(dram_bytes as f64, self.total_ns()),
        }
    }
}

/// Rates derived from a [`RunReport`]'s raw counters: IPC per PU, misses
/// per kilo-instruction, and achieved DRAM bandwidth.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DerivedStats {
    /// CPU instructions per CPU cycle (over total runtime).
    pub cpu_ipc: f64,
    /// GPU instructions per GPU cycle (over total runtime).
    pub gpu_ipc: f64,
    /// CPU L1D misses per 1000 CPU instructions.
    pub cpu_l1_mpki: f64,
    /// GPU L1D misses per 1000 GPU instructions.
    pub gpu_l1_mpki: f64,
    /// LLC misses per 1000 instructions (both PUs).
    pub llc_mpki: f64,
    /// Branch mispredictions per 1000 CPU instructions.
    pub branch_mpki: f64,
    /// Achieved DRAM bandwidth in GB/s (bytes / total time).
    pub dram_bandwidth_gbps: f64,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let derived = self.derived();
        write!(
            f,
            "{}: total {:.1} µs (seq {:.1}%, par {:.1}%, comm {:.1}%) | IPC cpu {:.2} gpu {:.2}",
            self.kernel,
            self.total_ns() / 1000.0,
            100.0 * self.phase_fraction(Phase::Sequential),
            100.0 * self.phase_fraction(Phase::Parallel),
            100.0 * self.phase_fraction(Phase::Communication),
            derived.cpu_ipc,
            derived.gpu_ipc,
        )?;
        // Label fast-forwarded time distinctly from executed time so fast
        //-mode output never passes itself off as fully detailed.
        if self.fast_forwarded_ticks > 0 {
            write!(
                f,
                " | fast-forwarded {:.1} µs",
                ticks_to_ns(self.fast_forwarded_ticks) / 1000.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let r = RunReport {
            kernel: "demo".into(),
            sequential_ticks: 100,
            parallel_ticks: 700,
            communication_ticks: 200,
            ..RunReport::default()
        };
        assert_eq!(r.total_ticks(), 1000);
        let sum: f64 = Phase::ALL.iter().map(|&p| r.phase_fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(r.phase_ticks(Phase::Parallel), 700);
    }

    #[test]
    fn empty_run_has_zero_fractions() {
        let r = RunReport::default();
        assert_eq!(r.total_ticks(), 0);
        assert_eq!(r.phase_fraction(Phase::Parallel), 0.0);
    }

    #[test]
    fn derived_rates_are_finite_and_bounded() {
        let r = RunReport::default();
        let d = r.derived();
        assert_eq!(d.cpu_ipc, 0.0);
        assert_eq!(d.dram_bandwidth_gbps, 0.0);

        let mut r = RunReport {
            parallel_ticks: 12_000,
            ..RunReport::default()
        };
        r.cpu.instructions = 4_000; // 1000 CPU cycles at 12 ticks/cycle
        r.cpu.mispredictions = 40;
        r.hierarchy.cpu_l1d.misses = 80;
        let d = r.derived();
        assert!((d.cpu_ipc - 4.0).abs() < 1e-9, "{}", d.cpu_ipc);
        assert!((d.branch_mpki - 10.0).abs() < 1e-9);
        assert!((d.cpu_l1_mpki - 20.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let mut r = RunReport {
            kernel: "reduction".into(),
            parallel_ticks: 12_000,
            ..RunReport::default()
        };
        r.cpu.instructions = 4_000; // IPC 4.00 at 1000 CPU cycles
        let s = r.to_string();
        assert!(s.contains("reduction"));
        assert!(s.contains("par"));
        assert!(s.contains("IPC cpu 4.00"), "{s}");
    }

    #[test]
    fn display_labels_fast_forwarded_time_only_when_present() {
        let mut r = RunReport {
            kernel: "reduction".into(),
            parallel_ticks: 12_000,
            ..RunReport::default()
        };
        assert!(!r.to_string().contains("fast-forwarded"));
        r.fast_forwarded_ticks = 42_000; // 1 µs at 42 ticks/ns
        let s = r.to_string();
        assert!(s.contains("fast-forwarded 1.0 µs"), "{s}");
        // Fast-forwarded spans are already inside the phase ticks.
        assert_eq!(r.total_ticks(), 12_000);
    }
}
