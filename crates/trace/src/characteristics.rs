//! Benchmark characteristics — the statistics of Table III in the paper.

use crate::inst::CommKind;
use crate::phase::{Phase, PhasedTrace};
use crate::PuKind;

/// The per-kernel statistics the paper reports in Table III: dynamic
/// instruction counts (parallel-phase CPU, parallel-phase GPU, serial),
/// number of communications, and the initial transfer size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Characteristics {
    /// Kernel name.
    pub name: String,
    /// CPU instructions executed in parallel segments ("CPU" column).
    pub cpu_instructions: usize,
    /// GPU instructions executed in parallel segments ("GPU" column).
    pub gpu_instructions: usize,
    /// CPU instructions executed in sequential segments ("serial" column).
    pub serial_instructions: usize,
    /// Number of communication events ("# of communications" column).
    pub communications: usize,
    /// Bytes of the initial input distribution ("initial transfer data
    /// size" column).
    pub initial_transfer_bytes: u64,
}

impl Characteristics {
    /// Computes the characteristics of `trace`.
    #[must_use]
    pub fn of(trace: &PhasedTrace) -> Characteristics {
        let initial: u64 = trace
            .segments()
            .iter()
            .flat_map(|s| {
                s.stream(PuKind::Cpu)
                    .comm_events()
                    .iter()
                    .chain(s.stream(PuKind::Gpu).comm_events())
            })
            .filter(|ev| ev.kind == CommKind::InitialInput)
            .map(|ev| ev.bytes)
            .sum();
        Characteristics {
            name: trace.name().to_owned(),
            cpu_instructions: trace.pu_phase_len(PuKind::Cpu, Phase::Parallel),
            gpu_instructions: trace.pu_phase_len(PuKind::Gpu, Phase::Parallel),
            serial_instructions: trace.pu_phase_len(PuKind::Cpu, Phase::Sequential),
            communications: trace.comm_count(),
            initial_transfer_bytes: initial,
        }
    }

    /// Total dynamic instructions across both PUs and all phases.
    #[must_use]
    pub fn total_instructions(&self) -> usize {
        self.cpu_instructions + self.gpu_instructions + self.serial_instructions
    }
}

impl std::fmt::Display for Characteristics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: cpu={} gpu={} serial={} comms={} initial={}B",
            self.name,
            self.cpu_instructions,
            self.gpu_instructions,
            self.serial_instructions,
            self.communications,
            self.initial_transfer_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{AddressPattern, InstMix, TraceBuilder};
    use crate::inst::{CommEvent, TransferDirection};

    #[test]
    fn characteristics_attribute_phases_correctly() {
        let mut b = TraceBuilder::new("k", 1);
        b.communication([CommEvent {
            direction: TransferDirection::HostToDevice,
            bytes: 512,
            kind: CommKind::InitialInput,
            addr: 0,
        }]);
        b.parallel(
            30,
            InstMix::cpu_compute(),
            AddressPattern::Stream {
                base: 0,
                len: 512,
                stride: 8,
            },
            40,
            InstMix::gpu_compute(),
            AddressPattern::Stream {
                base: 0x1000,
                len: 512,
                stride: 32,
            },
        );
        b.communication([CommEvent {
            direction: TransferDirection::DeviceToHost,
            bytes: 64,
            kind: CommKind::ResultReturn,
            addr: 0x1000,
        }]);
        b.sequential(
            20,
            InstMix::serial(),
            AddressPattern::Stream {
                base: 0,
                len: 512,
                stride: 8,
            },
        );
        let c = b.finish().characteristics();
        assert_eq!(c.cpu_instructions, 30);
        assert_eq!(c.gpu_instructions, 40);
        assert_eq!(c.serial_instructions, 20);
        assert_eq!(c.communications, 2);
        // Only the InitialInput event counts toward the initial transfer.
        assert_eq!(c.initial_transfer_bytes, 512);
        assert_eq!(c.total_instructions(), 90);
    }
}
