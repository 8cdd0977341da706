//! A line-oriented text encoding for phased traces (`.hmt`).
//!
//! Traces are exchanged with external tooling (or archived for exact
//! replay) in a simple, diffable format — one instruction per line:
//!
//! ```text
//! hmt 1
//! trace "reduction"
//! segment communication
//! pu cpu
//! C h2d initial 320512 0x10000000
//! segment parallel
//! pu cpu
//! L 4 0x10000000
//! I
//! B t
//! pu gpu
//! V 8
//! end
//! ```
//!
//! Opcodes: `I` int-alu, `M` mul, `F` fp-alu, `V <lanes>` simd,
//! `L <bytes> <addr>` load, `S <bytes> <addr>` store, `B t|n` branch,
//! `C <h2d|d2h> <initial|result|mid> <bytes> <addr>` communication event,
//! and the specials `acq`/`rel <addr> <bytes>`, `pf <addr>`,
//! `push <l1|l2|llc|smem> <addr> <bytes>`, `launch`, `sync`,
//! `alloc <cpu|gpu|shared> <addr> <bytes>`, `free <addr>`. Addresses are
//! hexadecimal with an `0x` prefix; `#` starts a comment line.
//!
//! [`parse_trace`] accepts exactly what [`write_trace`] emits (round-trip
//! tested, including property tests over random traces) and reports errors
//! with line numbers.

use crate::inst::{CacheLevel, CommEvent, CommKind, Inst, MemSpace, SpecialOp, TransferDirection};
use crate::phase::{Phase, PhaseSegment, PhasedTrace};
use crate::stream::TraceStream;
use crate::PuKind;
use std::fmt::Write as _;

/// Error produced when decoding a trace fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: u32,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Sequential => "sequential",
        Phase::Parallel => "parallel",
        Phase::Communication => "communication",
    }
}

fn level_name(level: CacheLevel) -> &'static str {
    match level {
        CacheLevel::PrivateL1 => "l1",
        CacheLevel::PrivateL2 => "l2",
        CacheLevel::SharedLlc => "llc",
        CacheLevel::Scratchpad => "smem",
    }
}

fn space_name(space: MemSpace) -> &'static str {
    match space {
        MemSpace::CpuPrivate => "cpu",
        MemSpace::GpuPrivate => "gpu",
        MemSpace::Shared => "shared",
    }
}

fn kind_name(kind: CommKind) -> &'static str {
    match kind {
        CommKind::InitialInput => "initial",
        CommKind::ResultReturn => "result",
        CommKind::Intermediate => "mid",
    }
}

fn encode_inst(out: &mut String, inst: &Inst) {
    match inst {
        Inst::IntAlu => out.push('I'),
        Inst::Mul => out.push('M'),
        Inst::FpAlu => out.push('F'),
        Inst::SimdAlu { lanes } => {
            let _ = write!(out, "V {lanes}");
        }
        Inst::Load { addr, bytes } => {
            let _ = write!(out, "L {bytes} {addr:#x}");
        }
        Inst::Store { addr, bytes } => {
            let _ = write!(out, "S {bytes} {addr:#x}");
        }
        Inst::Branch { taken } => {
            let _ = write!(out, "B {}", if *taken { 't' } else { 'n' });
        }
        Inst::Comm(ev) => {
            let dir = match ev.direction {
                TransferDirection::HostToDevice => "h2d",
                TransferDirection::DeviceToHost => "d2h",
            };
            let _ = write!(
                out,
                "C {dir} {} {} {:#x}",
                kind_name(ev.kind),
                ev.bytes,
                ev.addr
            );
        }
        Inst::Special(op) => match op {
            SpecialOp::Acquire { addr, bytes } => {
                let _ = write!(out, "acq {addr:#x} {bytes}");
            }
            SpecialOp::Release { addr, bytes } => {
                let _ = write!(out, "rel {addr:#x} {bytes}");
            }
            SpecialOp::PageFault { addr } => {
                let _ = write!(out, "pf {addr:#x}");
            }
            SpecialOp::Push { level, addr, bytes } => {
                let _ = write!(out, "push {} {addr:#x} {bytes}", level_name(*level));
            }
            SpecialOp::KernelLaunch => out.push_str("launch"),
            SpecialOp::Sync => out.push_str("sync"),
            SpecialOp::Alloc { space, addr, bytes } => {
                let _ = write!(out, "alloc {} {addr:#x} {bytes}", space_name(*space));
            }
            SpecialOp::Free { addr } => {
                let _ = write!(out, "free {addr:#x}");
            }
        },
    }
    out.push('\n');
}

/// Encodes `trace` into the `.hmt` text format.
#[must_use]
pub fn write_trace(trace: &PhasedTrace) -> String {
    let mut out = String::new();
    out.push_str("hmt 1\n");
    let _ = writeln!(out, "trace \"{}\"", trace.name());
    for segment in trace.segments() {
        let _ = writeln!(out, "segment {}", phase_name(segment.phase()));
        for pu in PuKind::ALL {
            let stream = segment.stream(pu);
            if stream.is_empty() {
                continue;
            }
            let _ = writeln!(out, "pu {}", if pu == PuKind::Cpu { "cpu" } else { "gpu" });
            for inst in stream.iter() {
                encode_inst(&mut out, &inst);
            }
        }
    }
    out.push_str("end\n");
    out
}

struct Decoder<'s> {
    lines: std::iter::Enumerate<std::str::Lines<'s>>,
}

type Fields<'a> = Vec<&'a str>;

impl<'s> Decoder<'s> {
    fn err<T>(line: u32, message: impl Into<String>) -> Result<T, TraceParseError> {
        Err(TraceParseError {
            line,
            message: message.into(),
        })
    }

    /// Next meaningful line: (1-based number, raw trimmed text, fields).
    fn next_line(&mut self) -> Option<(u32, &'s str, Fields<'s>)> {
        loop {
            let (idx, raw) = self.lines.next()?;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some((
                idx as u32 + 1,
                trimmed,
                trimmed.split_whitespace().collect(),
            ));
        }
    }
}

fn parse_u64(line: u32, s: &str) -> Result<u64, TraceParseError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|_| TraceParseError {
        line,
        message: format!("bad number {s:?}"),
    })
}

fn parse_u8(line: u32, s: &str) -> Result<u8, TraceParseError> {
    let n = parse_u64(line, s)?;
    u8::try_from(n).map_err(|_| TraceParseError {
        line,
        message: format!("{n} does not fit in u8"),
    })
}

fn decode_inst(line: u32, fields: &Fields<'_>) -> Result<Inst, TraceParseError> {
    let want = |n: usize| -> Result<(), TraceParseError> {
        if fields.len() == n {
            Ok(())
        } else {
            Decoder::err(
                line,
                format!(
                    "opcode {:?} expects {} fields, found {}",
                    fields[0],
                    n,
                    fields.len()
                ),
            )
        }
    };
    match fields[0] {
        "I" => {
            want(1)?;
            Ok(Inst::IntAlu)
        }
        "M" => {
            want(1)?;
            Ok(Inst::Mul)
        }
        "F" => {
            want(1)?;
            Ok(Inst::FpAlu)
        }
        "V" => {
            want(2)?;
            Ok(Inst::SimdAlu {
                lanes: parse_u8(line, fields[1])?,
            })
        }
        "L" => {
            want(3)?;
            Ok(Inst::Load {
                bytes: parse_u8(line, fields[1])?,
                addr: parse_u64(line, fields[2])?,
            })
        }
        "S" => {
            want(3)?;
            Ok(Inst::Store {
                bytes: parse_u8(line, fields[1])?,
                addr: parse_u64(line, fields[2])?,
            })
        }
        "B" => {
            want(2)?;
            match fields[1] {
                "t" => Ok(Inst::Branch { taken: true }),
                "n" => Ok(Inst::Branch { taken: false }),
                other => Decoder::err(
                    line,
                    format!("branch outcome must be t or n, got {other:?}"),
                ),
            }
        }
        "C" => {
            want(5)?;
            let direction = match fields[1] {
                "h2d" => TransferDirection::HostToDevice,
                "d2h" => TransferDirection::DeviceToHost,
                other => return Decoder::err(line, format!("bad direction {other:?}")),
            };
            let kind = match fields[2] {
                "initial" => CommKind::InitialInput,
                "result" => CommKind::ResultReturn,
                "mid" => CommKind::Intermediate,
                other => return Decoder::err(line, format!("bad comm kind {other:?}")),
            };
            Ok(Inst::Comm(CommEvent {
                direction,
                kind,
                bytes: parse_u64(line, fields[3])?,
                addr: parse_u64(line, fields[4])?,
            }))
        }
        "acq" | "rel" => {
            want(3)?;
            let addr = parse_u64(line, fields[1])?;
            let bytes = parse_u64(line, fields[2])?;
            Ok(Inst::Special(if fields[0] == "acq" {
                SpecialOp::Acquire { addr, bytes }
            } else {
                SpecialOp::Release { addr, bytes }
            }))
        }
        "pf" => {
            want(2)?;
            Ok(Inst::Special(SpecialOp::PageFault {
                addr: parse_u64(line, fields[1])?,
            }))
        }
        "push" => {
            want(4)?;
            let level = match fields[1] {
                "l1" => CacheLevel::PrivateL1,
                "l2" => CacheLevel::PrivateL2,
                "llc" => CacheLevel::SharedLlc,
                "smem" => CacheLevel::Scratchpad,
                other => return Decoder::err(line, format!("bad cache level {other:?}")),
            };
            Ok(Inst::Special(SpecialOp::Push {
                level,
                addr: parse_u64(line, fields[2])?,
                bytes: parse_u64(line, fields[3])?,
            }))
        }
        "launch" => {
            want(1)?;
            Ok(Inst::Special(SpecialOp::KernelLaunch))
        }
        "sync" => {
            want(1)?;
            Ok(Inst::Special(SpecialOp::Sync))
        }
        "alloc" => {
            want(4)?;
            let space = match fields[1] {
                "cpu" => MemSpace::CpuPrivate,
                "gpu" => MemSpace::GpuPrivate,
                "shared" => MemSpace::Shared,
                other => return Decoder::err(line, format!("bad memory space {other:?}")),
            };
            Ok(Inst::Special(SpecialOp::Alloc {
                space,
                addr: parse_u64(line, fields[2])?,
                bytes: parse_u64(line, fields[3])?,
            }))
        }
        "free" => {
            want(2)?;
            Ok(Inst::Special(SpecialOp::Free {
                addr: parse_u64(line, fields[1])?,
            }))
        }
        other => Decoder::err(line, format!("unknown opcode {other:?}")),
    }
}

/// Decodes a `.hmt` trace.
///
/// # Errors
///
/// Returns a [`TraceParseError`] with a line number on any malformed input,
/// including traces that violate the phased-trace shape invariants.
pub fn parse_trace(src: &str) -> Result<PhasedTrace, TraceParseError> {
    let mut d = Decoder {
        lines: src.lines().enumerate(),
    };

    let Some((line, _, header)) = d.next_line() else {
        return Decoder::err(0, "empty input");
    };
    if header != ["hmt", "1"] {
        return Decoder::err(line, "expected header `hmt 1`");
    }

    let Some((line, raw, name_fields)) = d.next_line() else {
        return Decoder::err(line, "missing `trace` line");
    };
    if name_fields.first() != Some(&"trace") {
        return Decoder::err(line, "expected `trace \"<name>\"`");
    }
    // Take the name from the raw line so interior whitespace survives.
    let name = raw
        .strip_prefix("trace")
        .map(str::trim_start)
        .and_then(|s| s.strip_prefix('"'))
        .and_then(|s| s.strip_suffix('"'))
        .ok_or(())
        .or_else(|()| Decoder::err::<&str>(line, "trace name must be double-quoted"))?
        .to_owned();

    let mut trace = PhasedTrace::new(name);
    let mut phase: Option<Phase> = None;
    let mut cpu = TraceStream::new();
    let mut gpu = TraceStream::new();
    let mut current_pu = PuKind::Cpu;
    let mut ended = false;

    let flush = |trace: &mut PhasedTrace,
                 phase: &mut Option<Phase>,
                 cpu: &mut TraceStream,
                 gpu: &mut TraceStream| {
        if let Some(p) = phase.take() {
            trace.push_segment(PhaseSegment::new(
                p,
                std::mem::take(cpu),
                std::mem::take(gpu),
            ));
        }
    };

    while let Some((line, _, fields)) = d.next_line() {
        match fields[0] {
            "segment" => {
                if fields.len() != 2 {
                    return Decoder::err(line, "segment needs a phase name");
                }
                flush(&mut trace, &mut phase, &mut cpu, &mut gpu);
                phase = Some(match fields[1] {
                    "sequential" => Phase::Sequential,
                    "parallel" => Phase::Parallel,
                    "communication" => Phase::Communication,
                    other => return Decoder::err(line, format!("unknown phase {other:?}")),
                });
                current_pu = PuKind::Cpu;
            }
            "pu" => {
                if phase.is_none() {
                    return Decoder::err(line, "`pu` outside a segment");
                }
                current_pu = match fields.get(1) {
                    Some(&"cpu") => PuKind::Cpu,
                    Some(&"gpu") => PuKind::Gpu,
                    other => return Decoder::err(line, format!("bad pu {other:?}")),
                };
            }
            "end" => {
                flush(&mut trace, &mut phase, &mut cpu, &mut gpu);
                ended = true;
                break;
            }
            _ => {
                if phase.is_none() {
                    return Decoder::err(line, "instruction outside a segment");
                }
                let inst = decode_inst(line, &fields)?;
                match current_pu {
                    PuKind::Cpu => cpu.push(inst),
                    PuKind::Gpu => gpu.push(inst),
                }
            }
        }
    }
    if !ended {
        return Decoder::err(0, "missing `end` line");
    }
    if let Err(e) = trace.validate() {
        return Decoder::err(0, format!("decoded trace is malformed: {e}"));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Kernel, KernelParams};

    #[test]
    fn all_kernels_round_trip() {
        for kernel in Kernel::ALL {
            let original = kernel.generate(&KernelParams::scaled(64));
            let text = write_trace(&original);
            let decoded = parse_trace(&text).unwrap_or_else(|e| panic!("{kernel}: {e}"));
            assert_eq!(decoded, original, "{kernel}");
        }
    }

    #[test]
    fn format_is_line_oriented_and_commented() {
        let trace = Kernel::Reduction.generate(&KernelParams::scaled(512));
        let mut text = write_trace(&trace);
        // Comments and blank lines are ignored.
        text = text.replace("segment parallel", "# breakdown\n\nsegment parallel");
        assert_eq!(parse_trace(&text).expect("still valid"), trace);
    }

    #[test]
    fn header_and_structure_errors_are_reported() {
        assert!(parse_trace("").is_err());
        let e = parse_trace("not a trace").expect_err("bad header");
        assert!(e.message.contains("hmt 1"), "{e}");
        let e = parse_trace("hmt 1\ntrace noquotes\nend\n").expect_err("unquoted");
        assert!(e.message.contains("double-quoted"), "{e}");
        let e = parse_trace("hmt 1\ntrace \"t\"\nI\nend\n").expect_err("stray inst");
        assert!(e.message.contains("outside a segment"), "{e}");
        let e = parse_trace("hmt 1\ntrace \"t\"\nsegment parallel\n").expect_err("no end");
        assert!(e.message.contains("missing `end`"), "{e}");
    }

    #[test]
    fn bad_instruction_lines_carry_line_numbers() {
        let src = "hmt 1\ntrace \"t\"\nsegment parallel\npu cpu\nQ\nend\n";
        let e = parse_trace(src).expect_err("unknown opcode");
        assert_eq!(e.line, 5);
        assert!(e.message.contains("unknown opcode"), "{e}");

        let src = "hmt 1\ntrace \"t\"\nsegment parallel\npu cpu\nL 8\nend\n";
        let e = parse_trace(src).expect_err("missing field");
        assert!(e.message.contains("expects 3 fields"), "{e}");

        let src = "hmt 1\ntrace \"t\"\nsegment parallel\npu cpu\nL 999 0x0\nend\n";
        let e = parse_trace(src).expect_err("u8 overflow");
        assert!(e.message.contains("fit in u8"), "{e}");
    }

    #[test]
    fn malformed_shape_is_rejected_after_decode() {
        // GPU work in a sequential segment decodes token-wise but violates
        // the trace invariants.
        let src = "hmt 1\ntrace \"t\"\nsegment sequential\npu gpu\nI\nend\n";
        let e = parse_trace(src).expect_err("invalid shape");
        assert!(e.message.contains("malformed"), "{e}");
    }

    #[test]
    fn encoding_is_idempotent() {
        let trace = Kernel::KMeans.generate(&KernelParams::scaled(128));
        let once = write_trace(&trace);
        let twice = write_trace(&parse_trace(&once).expect("valid"));
        assert_eq!(once, twice);
    }

    #[test]
    fn names_with_spaces_round_trip() {
        let trace = Kernel::MatrixMul.generate(&KernelParams::scaled(4096));
        assert_eq!(trace.name(), "matrix mul");
        let decoded = parse_trace(&write_trace(&trace)).expect("round trip");
        assert_eq!(decoded.name(), "matrix mul");
    }
}
