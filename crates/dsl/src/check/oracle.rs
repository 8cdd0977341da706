//! Dynamic oracle: a concrete interpreter of lowered programs.
//!
//! Where the abstract interpreter reasons about *all* executions with
//! boolean freshness, the oracle simply runs the one execution there is —
//! loops fully unrolled, one monotonically increasing version counter per
//! buffer, one version per physical copy — and records every statement
//! that actually reads a stale copy. The differential harness compares
//! its findings against the static HM0101/HM0102 verdicts site for site;
//! because the boolean abstraction is exact for these straight-line
//! semantics, the two must agree.

use crate::ast::Target;
use crate::lower::Lowered;
use crate::model::AddressSpace;
use crate::stmt::Stmt;

/// What the concrete run observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// `(stmt index, buffer)` sites where a GPU kernel read a device copy
    /// older than the newest value (deduplicated per site).
    pub stale_gpu_reads: Vec<(usize, String)>,
    /// `(stmt index, buffer)` sites where host code read a host copy
    /// older than the newest value (deduplicated per site).
    pub stale_host_reads: Vec<(usize, String)>,
}

impl OracleReport {
    /// No stale read of either kind occurred.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.stale_gpu_reads.is_empty() && self.stale_host_reads.is_empty()
    }
}

struct Oracle<'a> {
    lowered: &'a Lowered,
    names: Vec<String>,
    /// Newest version of each buffer anywhere.
    latest: Vec<u64>,
    /// Version held by the host copy.
    host_v: Vec<u64>,
    /// Version held by the device copy.
    dev_v: Vec<u64>,
    report: OracleReport,
}

/// Runs the lowered program concretely and reports actual stale reads.
#[must_use]
pub fn run_oracle(lowered: &Lowered) -> OracleReport {
    let names = super::absint::collect_buffers(lowered);
    let n = names.len();
    let mut oracle = Oracle {
        lowered,
        names,
        latest: vec![0; n],
        host_v: vec![0; n],
        dev_v: vec![0; n],
        report: OracleReport::default(),
    };
    oracle.exec_span(0, lowered.stmts.len());
    oracle.report
}

impl Oracle<'_> {
    fn id(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .expect("buffer name registered by collect_buffers")
    }

    fn exec_span(&mut self, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            if let Stmt::LoopHead { iterations } = self.lowered.stmts[i] {
                let tail = super::absint::matching_tail(&self.lowered.stmts, i);
                for _ in 0..iterations {
                    self.exec_span(i + 1, tail);
                }
                i = tail.saturating_add(1);
            } else {
                self.exec_stmt(i);
                i += 1;
            }
        }
    }

    fn host_write(&mut self, buf: &str) {
        let b = self.id(buf);
        self.latest[b] += 1;
        self.host_v[b] = self.latest[b];
        match self.lowered.model {
            // A single coherent copy: both views advance together.
            AddressSpace::Unified | AddressSpace::PartiallyShared => {
                self.dev_v[b] = self.latest[b];
            }
            AddressSpace::Disjoint | AddressSpace::Adsm => {}
        }
    }

    fn gpu_write(&mut self, buf: &str) {
        let b = self.id(buf);
        self.latest[b] += 1;
        self.dev_v[b] = self.latest[b];
        match self.lowered.model {
            // Coherent copy — and under ADSM the host addresses the
            // device-resident object directly, so it sees the write too.
            AddressSpace::Unified | AddressSpace::PartiallyShared | AddressSpace::Adsm => {
                self.host_v[b] = self.latest[b];
            }
            AddressSpace::Disjoint => {}
        }
    }

    /// Records a stale read of `buf` at `i` by the device (`gpu`) or the
    /// host, once per site.
    fn read(&mut self, i: usize, buf: &str, gpu: bool) {
        let b = self.id(buf);
        let (held, sites) = if gpu {
            (self.dev_v[b], &mut self.report.stale_gpu_reads)
        } else {
            (self.host_v[b], &mut self.report.stale_host_reads)
        };
        let site = (i, buf.to_owned());
        if held < self.latest[b] && !sites.contains(&site) {
            sites.push(site);
        }
    }

    fn exec_stmt(&mut self, i: usize) {
        let stmt = self.lowered.stmts[i].clone();
        match stmt {
            Stmt::MemcpyH2D { buf, .. } => {
                // A raw memcpy: the device copy becomes whatever the host
                // holds, newer or older.
                let b = self.id(&buf);
                self.dev_v[b] = self.host_v[b];
            }
            Stmt::MemcpyD2H { buf, .. } => {
                let b = self.id(&buf);
                self.host_v[b] = self.dev_v[b];
            }
            Stmt::AdsmCopyToDevice { bufs, .. } => {
                // The ADSM runtime publishes only if the host view is
                // newer — it never clobbers a newer device value.
                for buf in &bufs {
                    let b = self.id(buf);
                    if self.host_v[b] > self.dev_v[b] {
                        self.dev_v[b] = self.host_v[b];
                    }
                }
            }
            Stmt::InitCode { bufs, .. } => {
                for buf in &bufs {
                    self.host_write(buf);
                }
            }
            Stmt::KernelCall {
                target: Target::Gpu,
                reads,
                writes,
                ..
            } => {
                for buf in &reads {
                    self.read(i, buf, true);
                }
                for buf in &writes {
                    self.gpu_write(buf);
                }
            }
            Stmt::KernelCall {
                target: Target::Cpu,
                reads,
                writes,
                ..
            } => {
                for buf in &reads {
                    // Under ADSM host code addresses the shared object
                    // directly, so a host read sees the newest of either
                    // view and cannot be stale.
                    if self.lowered.model == AddressSpace::Adsm {
                        continue;
                    }
                    self.read(i, buf, false);
                }
                for buf in &writes {
                    self.host_write(buf);
                }
            }
            // Allocation, ownership, sync, and free statements move no
            // data; the oracle only tracks values.
            Stmt::HostAlloc { .. }
            | Stmt::SharedAlloc { .. }
            | Stmt::AdsmAlloc { .. }
            | Stmt::DeclDevicePtrs { .. }
            | Stmt::DeviceAlloc { .. }
            | Stmt::ReleaseOwnership { .. }
            | Stmt::AcquireOwnership { .. }
            | Stmt::Sync
            | Stmt::FreeDevice { .. }
            | Stmt::LoopHead { .. }
            | Stmt::LoopTail => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::programs;

    #[test]
    fn paper_lowerings_run_clean_under_every_model() {
        for program in programs::all().iter().chain(programs::extra::all().iter()) {
            for model in AddressSpace::ALL {
                let report = run_oracle(&lower(program, model));
                assert!(
                    report.is_clean(),
                    "{} under {model}: {report:?}",
                    program.name
                );
            }
        }
    }

    #[test]
    fn deleting_a_transfer_is_observed_concretely() {
        let lowered = lower(&programs::reduction(), AddressSpace::Disjoint);
        let mut broken = lowered.clone();
        let idx = broken
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::MemcpyH2D { .. }))
            .expect("disjoint lowering has H2D transfers");
        broken.stmts.remove(idx);
        let report = run_oracle(&broken);
        assert!(
            !report.stale_gpu_reads.is_empty(),
            "removing the upload must cause a concrete stale GPU read"
        );
    }

    #[test]
    fn unified_runs_never_go_stale() {
        let lowered = lower(&programs::k_means(), AddressSpace::Unified);
        let mut broken = lowered;
        // Even with every statement order intact there are no transfers
        // to delete under unified; the oracle must report clean.
        broken.stmts.retain(|s| !matches!(s, Stmt::Sync));
        assert!(run_oracle(&broken).is_clean());
    }
}
