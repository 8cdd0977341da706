//! Shared helpers for the study binaries.
//!
//! Each `study_*` binary runs one study beyond the paper's measurements;
//! see `DESIGN.md`'s per-experiment index for the mapping. They accept
//! `--scale N` to divide the workload (default: the paper's full-size
//! traces, `N = 1`). The paper's own tables and figures come from
//! `hetmem tables` and `hetmem fig`.

/// Parses `--scale N` from the process arguments, defaulting to `default`.
///
/// # Panics
///
/// Panics with a usage message if the argument is present but malformed.
#[must_use]
pub fn scale_arg(default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--scale") {
        None => default,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse::<u32>().ok())
            .filter(|&v| v > 0)
            .unwrap_or_else(|| panic!("usage: {} [--scale N]  (N >= 1)", args[0])),
    }
}

/// Prints a titled section.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_without_flag() {
        assert_eq!(scale_arg(7), 7);
    }
}
