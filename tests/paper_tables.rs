//! Cross-crate checks that the regenerated tables match the paper exactly.

use hetmem::dsl::{loc_table, paper_loc_table};
use hetmem::trace::kernels::{Kernel, KernelParams};

#[test]
fn table_iii_reproduced_exactly_at_full_scale() {
    for kernel in Kernel::ALL {
        let trace = kernel.generate(&KernelParams::full());
        assert_eq!(
            trace.characteristics(),
            kernel.paper_characteristics(),
            "Table III row for {kernel}"
        );
        assert_eq!(trace.validate(), Ok(()), "{kernel} trace well-formed");
    }
}

#[test]
fn table_v_reproduced_exactly_by_lowering() {
    assert_eq!(loc_table(), paper_loc_table());
}

#[test]
fn table_v_ordering_claim_holds() {
    // §V-C: "the overhead increases in the following order:
    // Unified < partially shared <= ADSM < disjoint memory space".
    for row in loc_table() {
        assert_eq!(row.uni, 0, "{}", row.kernel);
        assert!(row.pas > row.uni, "{}", row.kernel);
        // The trend across the table (k-mean is the paper's own <= case).
        assert!(
            row.pas <= row.adsm || row.kernel == "k-mean",
            "{}",
            row.kernel
        );
        assert!(row.adsm <= row.dis, "{}", row.kernel);
    }
}

#[test]
fn table_i_observations_hold() {
    use hetmem::core::{catalog, AddressSpace, Consistency};
    let cat = catalog();
    assert_eq!(cat.len(), 13);
    // No unified + fully coherent + strongly consistent system exists.
    assert!(!cat.iter().any(|e| {
        e.space == AddressSpace::Unified && e.fully_coherent && e.consistency == Consistency::Strong
    }));
    // Disjoint is the most common organization.
    let count = |s| cat.iter().filter(|e| e.space == s).count();
    assert!(count(AddressSpace::Disjoint) >= count(AddressSpace::Unified));
    assert!(count(AddressSpace::Disjoint) >= count(AddressSpace::PartiallyShared));
    assert!(count(AddressSpace::Disjoint) >= count(AddressSpace::Adsm));
}

#[test]
fn table_iv_parameters_match_the_paper() {
    let c = hetmem::sim::CommCosts::paper();
    assert_eq!(c.api_pci_cycles, 33_250);
    assert_eq!(c.api_acq_cycles, 1_000);
    assert_eq!(c.api_tr_cycles, 7_000);
    assert_eq!(c.lib_pf_cycles, 42_000);
    assert_eq!(c.pci_bytes_per_sec, 16_000_000_000); // 16 GB/s, PCI-E 2.0
}

#[test]
fn table_ii_baseline_matches_the_paper() {
    use hetmem::sim::{ClockDomain, SystemConfig};
    let cfg = SystemConfig::baseline();
    assert_eq!(ClockDomain::CPU.frequency_hz(), 3_500_000_000);
    assert_eq!(ClockDomain::GPU.frequency_hz(), 1_500_000_000);
    assert_eq!(cfg.gpu.simd_width, 8);
    assert_eq!(cfg.cpu.l1d.capacity_bytes, 32 * 1024);
    assert_eq!(cfg.cpu.l2.capacity_bytes, 256 * 1024);
    assert_eq!(
        u64::from(cfg.llc.tiles) * cfg.llc.tile.capacity_bytes,
        8 << 20
    );
    assert_eq!(cfg.dram.channels, 4);
    assert_eq!(cfg.gpu.scratchpad_bytes, 16 * 1024);
}
