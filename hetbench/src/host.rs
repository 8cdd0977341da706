//! Host facts and provenance attached to every result.

use std::process::Command;
use std::time::Instant;

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (VmHWM), in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Resets the peak resident set size (VmHWM) to the current one, so the
/// next [`peak_rss_mb`] covers only what runs from here on.
///
/// # Errors
///
/// Returns a message when `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU time this process has used so far (user + system, all threads,
/// exited ones included), in seconds, at nanosecond resolution.
///
/// # Errors
///
/// Returns the OS error when the clock cannot be read.
pub fn cpu_s() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // (two `long`s on Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Wall-clock and process CPU time since a starting point.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    ///
    /// # Errors
    ///
    /// Returns the OS error when the CPU clock cannot be read.
    pub fn start() -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s()?,
        })
    }

    /// `(wall, cpu)` seconds since [`Stopwatch::start`].
    ///
    /// # Errors
    ///
    /// Returns the OS error when the CPU clock cannot be read.
    pub fn elapsed(&self) -> Result<(f64, f64), String> {
        Ok((self.wall.elapsed().as_secs_f64(), cpu_s()? - self.cpu))
    }
}

/// Memory mappings of this process (lines of `/proc/self/maps`); each
/// live or unjoined thread holds its stack mappings.
#[must_use]
pub fn map_count() -> i64 {
    std::fs::read_to_string("/proc/self/maps").map_or(0, |m| m.lines().count() as i64)
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One line naming the host and the build this result came from.
#[must_use]
pub fn provenance() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={} profile={profile} git_rev={} rustc=\"{}\"",
        nproc(),
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        first_line("rustc", &["--version"]),
    )
}
