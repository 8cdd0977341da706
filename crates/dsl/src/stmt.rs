//! Concrete source-level statements produced by lowering.
//!
//! Each [`Stmt`] corresponds to one source line of the style the paper's
//! Figures 2–3 show. The key classification is
//! [`Stmt::is_comm_overhead`]: Table V counts exactly the lines that exist
//! only to handle data communication and data movement between the PUs —
//! allocation of computation data, initialization, and the kernels
//! themselves are the "Comp" baseline.

use crate::ast::Target;

/// One lowered source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `int *a = malloc(...);` — ordinary host allocation (Comp baseline).
    HostAlloc {
        /// Buffer name.
        buf: String,
        /// Buffer size.
        bytes: u64,
    },
    /// `int *a = sharedmalloc(...);` — allocation in the shared region of a
    /// partially shared space. Replaces a `malloc` one-for-one, so it is
    /// *not* communication overhead.
    SharedAlloc {
        /// Buffer name.
        buf: String,
        /// Buffer size.
        bytes: u64,
    },
    /// `a = adsmAlloc(64B);` — ADSM shared-space allocation (extra line over
    /// the plain program: the buffer also keeps its host `malloc`).
    AdsmAlloc {
        /// Buffer name.
        buf: String,
        /// Buffer size.
        bytes: u64,
    },
    /// `int *gpu_a, *gpu_b, *gpu_c;` — duplicate device pointers (disjoint).
    DeclDevicePtrs {
        /// Names of the mirrored buffers.
        bufs: Vec<String>,
    },
    /// `GPUmemallocate(gpu_a, gpu_b, gpu_c);` — grouped device allocation
    /// (disjoint).
    DeviceAlloc {
        /// Names of the device buffers.
        bufs: Vec<String>,
        /// Total bytes allocated on the device.
        bytes: u64,
    },
    /// `Memcpy(gpu_a, a, MemcpyHosttoDevice);` — one per buffer (disjoint).
    MemcpyH2D {
        /// Buffer name.
        buf: String,
        /// Bytes moved.
        bytes: u64,
    },
    /// `Memcpy(a, gpu_a, MemcpyDevicetoHost);` — one per buffer (disjoint).
    MemcpyD2H {
        /// Buffer name.
        buf: String,
        /// Bytes moved.
        bytes: u64,
    },
    /// `copyfromCPUtoGPU(a, b, c);` — grouped ADSM input copy.
    AdsmCopyToDevice {
        /// Buffer names copied at this program point.
        bufs: Vec<String>,
        /// Total bytes moved.
        bytes: u64,
    },
    /// `releaseOwnership(a, b, c);` — partially shared space, before a GPU
    /// kernel touches the shared objects.
    ReleaseOwnership {
        /// Buffer names.
        bufs: Vec<String>,
    },
    /// `acquireOwnership(c);` — partially shared space, before the host
    /// reads results back.
    AcquireOwnership {
        /// Buffer names.
        bufs: Vec<String>,
    },
    /// `addGPUTwoVectors(a, b, c);` / `addTwoVectors(d, e, f);` — a kernel
    /// call (Comp baseline).
    KernelCall {
        /// Executing PU.
        target: Target,
        /// Kernel name.
        name: String,
        /// Argument buffer names.
        args: Vec<String>,
        /// Buffer names the kernel reads (dataflow metadata for the static
        /// checker and the dynamic oracle; a subset of `args`).
        reads: Vec<String>,
        /// Buffer names the kernel writes (a subset of `args`).
        writes: Vec<String>,
        /// Whether this is data-parallel work (versus a sequential host
        /// step) — used by code generation to build parallel segments.
        parallel: bool,
        /// Total bytes of the argument buffers (code-generation sizing).
        arg_bytes: u64,
        /// Whether small per-launch arguments are re-uploaded with the
        /// launch (costs a dynamic transfer, no source line).
        args_upload: bool,
    },
    /// `waitForGPU();` — completion synchronization.
    Sync,
    /// `accfree(a); accfree(b); accfree(c);` or `GPUfree(gpu_a);` — freeing
    /// communication-related storage.
    FreeDevice {
        /// Buffer names freed on this line.
        bufs: Vec<String>,
    },
    /// `for (i = 0; i < n; i++) {` — loop head (Comp baseline).
    LoopHead {
        /// Iteration count.
        iterations: u32,
    },
    /// `}` — loop end (Comp baseline).
    LoopTail,
    /// Host-side initialization (Comp baseline).
    InitCode {
        /// Buffer names initialized.
        bufs: Vec<String>,
        /// Total bytes initialized.
        bytes: u64,
    },
}

impl Stmt {
    /// The buffers the statement names, in order.
    pub(crate) fn buffers(&self) -> &[String] {
        match self {
            Stmt::HostAlloc { buf, .. }
            | Stmt::SharedAlloc { buf, .. }
            | Stmt::AdsmAlloc { buf, .. }
            | Stmt::MemcpyH2D { buf, .. }
            | Stmt::MemcpyD2H { buf, .. } => std::slice::from_ref(buf),
            Stmt::DeclDevicePtrs { bufs }
            | Stmt::DeviceAlloc { bufs, .. }
            | Stmt::AdsmCopyToDevice { bufs, .. }
            | Stmt::ReleaseOwnership { bufs }
            | Stmt::AcquireOwnership { bufs }
            | Stmt::FreeDevice { bufs }
            | Stmt::InitCode { bufs, .. } => bufs,
            Stmt::KernelCall { args, .. } => args,
            Stmt::Sync | Stmt::LoopHead { .. } | Stmt::LoopTail => &[],
        }
    }

    /// Whether this line exists only to handle inter-PU data communication
    /// and data handling — the lines Table V counts.
    #[must_use]
    pub fn is_comm_overhead(&self) -> bool {
        match self {
            Stmt::HostAlloc { .. }
            | Stmt::SharedAlloc { .. }
            | Stmt::KernelCall { .. }
            | Stmt::LoopHead { .. }
            | Stmt::LoopTail
            | Stmt::InitCode { .. } => false,
            Stmt::AdsmAlloc { .. }
            | Stmt::DeclDevicePtrs { .. }
            | Stmt::DeviceAlloc { .. }
            | Stmt::MemcpyH2D { .. }
            | Stmt::MemcpyD2H { .. }
            | Stmt::AdsmCopyToDevice { .. }
            | Stmt::ReleaseOwnership { .. }
            | Stmt::AcquireOwnership { .. }
            | Stmt::Sync
            | Stmt::FreeDevice { .. } => true,
        }
    }
}

fn join(names: &[String]) -> String {
    names.join(", ")
}

impl std::fmt::Display for Stmt {
    /// Renders the statement as the C-like source line it models.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stmt::HostAlloc { buf, bytes } => write!(f, "int *{buf} = malloc({bytes});"),
            Stmt::SharedAlloc { buf, bytes } => write!(f, "int *{buf} = sharedmalloc({bytes});"),
            Stmt::AdsmAlloc { buf, bytes } => write!(f, "{buf} = adsmAlloc({bytes});"),
            Stmt::DeclDevicePtrs { bufs } => {
                let ptrs: Vec<String> = bufs.iter().map(|b| format!("*gpu_{b}")).collect();
                write!(f, "int {};", ptrs.join(", "))
            }
            Stmt::DeviceAlloc { bufs, .. } => {
                let ptrs: Vec<String> = bufs.iter().map(|b| format!("gpu_{b}")).collect();
                write!(f, "GPUmemallocate({});", ptrs.join(", "))
            }
            Stmt::MemcpyH2D { buf, .. } => {
                write!(f, "Memcpy(gpu_{buf}, {buf}, MemcpyHosttoDevice);")
            }
            Stmt::MemcpyD2H { buf, .. } => {
                write!(f, "Memcpy({buf}, gpu_{buf}, MemcpyDevicetoHost);")
            }
            Stmt::AdsmCopyToDevice { bufs, .. } => {
                write!(f, "copyfromCPUtoGPU({});", join(bufs))
            }
            Stmt::ReleaseOwnership { bufs } => write!(f, "releaseOwnership({});", join(bufs)),
            Stmt::AcquireOwnership { bufs } => write!(f, "acquireOwnership({});", join(bufs)),
            Stmt::KernelCall { name, args, .. } => write!(f, "{name}({});", join(args)),
            Stmt::Sync => f.write_str("waitForGPU();"),
            Stmt::FreeDevice { bufs } => {
                let frees: Vec<String> = bufs.iter().map(|b| format!("accfree({b});")).collect();
                write!(f, "{}", frees.join(" "))
            }
            Stmt::LoopHead { iterations } => {
                write!(f, "for (iter = 0; iter < {iterations}; iter++) {{")
            }
            Stmt::LoopTail => f.write_str("}"),
            Stmt::InitCode { bufs, .. } => write!(f, "initialize({});", join(bufs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_classification_matches_table_v_semantics() {
        // Baseline lines.
        assert!(!Stmt::HostAlloc {
            buf: "a".into(),
            bytes: 64
        }
        .is_comm_overhead());
        assert!(!Stmt::SharedAlloc {
            buf: "a".into(),
            bytes: 64
        }
        .is_comm_overhead());
        assert!(!Stmt::KernelCall {
            target: Target::Gpu,
            name: "k".into(),
            args: vec![],
            reads: vec![],
            writes: vec![],
            parallel: true,
            arg_bytes: 0,
            args_upload: false,
        }
        .is_comm_overhead());
        // Communication-handling lines.
        assert!(Stmt::MemcpyH2D {
            buf: "a".into(),
            bytes: 64
        }
        .is_comm_overhead());
        assert!(Stmt::ReleaseOwnership {
            bufs: vec!["a".into()]
        }
        .is_comm_overhead());
        assert!(Stmt::AdsmAlloc {
            buf: "a".into(),
            bytes: 64
        }
        .is_comm_overhead());
        assert!(Stmt::Sync.is_comm_overhead());
    }

    #[test]
    fn display_looks_like_the_paper_figures() {
        assert_eq!(
            Stmt::MemcpyH2D {
                buf: "a".into(),
                bytes: 64
            }
            .to_string(),
            "Memcpy(gpu_a, a, MemcpyHosttoDevice);"
        );
        assert_eq!(
            Stmt::ReleaseOwnership {
                bufs: vec!["a".into(), "b".into(), "c".into()]
            }
            .to_string(),
            "releaseOwnership(a, b, c);"
        );
        assert_eq!(
            Stmt::AdsmAlloc {
                buf: "c".into(),
                bytes: 64
            }
            .to_string(),
            "c = adsmAlloc(64);"
        );
        assert_eq!(
            Stmt::FreeDevice {
                bufs: vec!["a".into(), "b".into()]
            }
            .to_string(),
            "accfree(a); accfree(b);"
        );
        assert_eq!(
            Stmt::DeclDevicePtrs {
                bufs: vec!["a".into(), "b".into()]
            }
            .to_string(),
            "int *gpu_a, *gpu_b;"
        );
    }
}
