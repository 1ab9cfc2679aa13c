//! Golden fingerprints for `run-registry`: every id at its default
//! parameters and the registry seed, recorded from the commit the
//! benchmark was defined on. A run that reproduces a different
//! fingerprint has produced wrong output.

/// The seed `treu run` uses when none is given.
pub const REGISTRY_SEED: u64 = 2023;

pub const GOLDEN: [(&str, u64); 21] = [
    ("E2.10", 0xa1c9_ca59_d05c_e46d),
    ("E2.10-abl", 0xecd2_adde_3ad6_96b1),
    ("E2.11", 0xb103_4997_7b4a_9b5f),
    ("E2.2a", 0x7d96_f6a0_f641_866d),
    ("E2.2b", 0xf360_33d1_6dee_ed6d),
    ("E2.3", 0xec0b_ac62_7d66_0149),
    ("E2.4", 0x16d3_767c_ffa5_f400),
    ("E2.5", 0xee9a_1466_0fd9_e69b),
    ("E2.5-abl", 0xb2b8_3721_bb2e_d5c1),
    ("E2.6", 0x0330_741c_8320_a3b6),
    ("E2.7", 0x9ba0_c0c0_bc79_308a),
    ("E2.8", 0xc807_5fea_897e_a60e),
    ("E2.8-abl", 0x084b_6bb2_6012_1bce),
    ("E2.9", 0xec20_0c1c_fdbe_c518),
    ("E3", 0xd5e5_5ec2_5ad7_3156),
    ("N1", 0x2852_699d_fad8_201b),
    ("T1", 0xd8dc_cb3d_246f_6f07),
    ("T2", 0x09ca_f600_7152_cdfe),
    ("T3", 0xe04e_e944_2101_f2d1),
    ("X-bias", 0x2d1a_c35d_47bf_29f8),
    ("cluster_faults", 0xe7a2_3310_d130_f445),
];

/// Failed operations in a registry run: one per id whose fingerprint
/// differs from its golden value or has none, plus one per golden id the
/// run did not produce. Each id run or expected is one operation.
pub fn failed_ids(golden: &[(&str, u64)], run: &[(String, u64)]) -> Vec<String> {
    let mut failed: Vec<String> = run
        .iter()
        .filter(|(id, fp)| !golden.iter().any(|(g, want)| g == id && want == fp))
        .map(|(id, _)| id.clone())
        .collect();
    failed.extend(
        golden
            .iter()
            .filter(|(g, _)| !run.iter().any(|(id, _)| id == g))
            .map(|(g, _)| g.to_string()),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: [(&str, u64); 2] = [("T1", 1), ("E2.8", 0xc807_5fea_897e_a60e)];

    fn run(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(id, fp)| (id.to_string(), fp)).collect()
    }

    #[test]
    fn matching_run_has_no_failures() {
        assert!(failed_ids(&G, &run(&G)).is_empty());
    }

    #[test]
    fn golden_mismatch_is_a_failed_operation() {
        let bad = run(&[("T1", 1), ("E2.8", 0xc807_5fea_897e_a60f)]);
        assert_eq!(failed_ids(&G, &bad), ["E2.8"]);
    }

    #[test]
    fn unknown_and_missing_ids_fail() {
        let bad = run(&[("T1", 1), ("X", 5)]);
        assert_eq!(failed_ids(&G, &bad), ["X", "E2.8"]);
    }

    #[test]
    fn table_holds_the_documented_value() {
        assert_eq!(GOLDEN.len(), treu::full_registry().len());
        assert!(GOLDEN.contains(&("E2.8", 0xc807_5fea_897e_a60e)));
    }
}
