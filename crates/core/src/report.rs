//! Text-table rendering for the regenerated tables and figures.

use crate::experiment::{CaseStudyRun, SpaceRun};
use crate::presets::EvaluatedSystem;
use hetmem_dsl::AddressSpace;
use hetmem_trace::kernels::Kernel;
use hetmem_trace::Phase;

/// A simple aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Figure 5: normalized execution-time breakdown per kernel × system.
/// Values are fractions of each kernel's slowest system so the stacked-bar
/// shape of the paper's figure is directly readable.
#[must_use]
pub fn render_figure5(runs: &[CaseStudyRun]) -> String {
    let mut table = TextTable::new(&[
        "kernel",
        "system",
        "total(µs)",
        "norm",
        "seq%",
        "par%",
        "comm%",
    ]);
    for kernel in Kernel::ALL {
        let of_kernel: Vec<&CaseStudyRun> = runs.iter().filter(|r| r.kernel == kernel).collect();
        let slowest = of_kernel
            .iter()
            .map(|r| r.report.total_ticks())
            .max()
            .unwrap_or(1)
            .max(1);
        for sys in EvaluatedSystem::ALL {
            if let Some(run) = of_kernel.iter().find(|r| r.system == sys) {
                let rep = &run.report;
                table.row(vec![
                    kernel.name().to_owned(),
                    sys.name().to_owned(),
                    format!("{:.1}", rep.total_ns() / 1000.0),
                    format!("{:.3}", rep.total_ticks() as f64 / slowest as f64),
                    format!("{:.1}", 100.0 * rep.phase_fraction(Phase::Sequential)),
                    format!("{:.1}", 100.0 * rep.phase_fraction(Phase::Parallel)),
                    format!("{:.1}", 100.0 * rep.phase_fraction(Phase::Communication)),
                ]);
            }
        }
    }
    table.render()
}

/// Figure 6: communication overhead only (µs and share of total).
#[must_use]
pub fn render_figure6(runs: &[CaseStudyRun]) -> String {
    let mut table = TextTable::new(&["kernel", "system", "comm(µs)", "comm%"]);
    for kernel in Kernel::ALL {
        for sys in EvaluatedSystem::ALL {
            if let Some(run) = runs.iter().find(|r| r.kernel == kernel && r.system == sys) {
                table.row(vec![
                    kernel.name().to_owned(),
                    sys.name().to_owned(),
                    format!("{:.2}", run.report.communication_ns() / 1000.0),
                    format!(
                        "{:.2}",
                        100.0 * run.report.phase_fraction(Phase::Communication)
                    ),
                ]);
            }
        }
    }
    table.render()
}

/// Figure 7: address-space options under ideal communication, normalized to
/// the unified space per kernel.
#[must_use]
pub fn render_figure7(runs: &[SpaceRun]) -> String {
    let mut table = TextTable::new(&["kernel", "UNI", "PAS", "DIS", "ADSM", "max spread %"]);
    for kernel in Kernel::ALL {
        let get = |space| {
            runs.iter()
                .find(|r| r.kernel == kernel && r.space == space)
                .map(|r| r.report.total_ticks())
        };
        let Some(uni) = get(AddressSpace::Unified) else {
            continue;
        };
        let norm = |space| {
            get(space).map_or_else(
                || "-".to_owned(),
                |t| format!("{:.4}", t as f64 / uni as f64),
            )
        };
        let all: Vec<u64> = AddressSpace::ALL.iter().filter_map(|&s| get(s)).collect();
        let max = *all.iter().max().unwrap_or(&1);
        let min = *all.iter().min().unwrap_or(&1);
        let spread = 100.0 * (max - min) as f64 / max as f64;
        table.row(vec![
            kernel.name().to_owned(),
            norm(AddressSpace::Unified),
            norm(AddressSpace::PartiallyShared),
            norm(AddressSpace::Disjoint),
            norm(AddressSpace::Adsm),
            format!("{spread:.3}"),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns() {
        let mut t = TextTable::new(&["a", "long-header"]);
        t.row(vec!["xx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
