//! The analytical models' outputs, pinned bit for bit: each test folds the
//! `f64::to_bits` of its outputs into one FNV-1a digest.
//!
//! The constants were generated from the all-pairs link-load walk the
//! routing walker replaced; a change to how loads or latencies are computed
//! must leave every one of them equal.

use quarc_analytical::*;
use quarc_core::grid::GridTopology;
use quarc_core::topology::{QuarcTopology, SpidergonTopology};

/// FNV-1a over the outputs' bit patterns (`None` folds as `u64::MAX`).
fn digest(values: impl IntoIterator<Item = Option<f64>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.map_or(u64::MAX, f64::to_bits).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn saturation_rates_are_pinned() {
    let got = digest([16, 32, 64].into_iter().flat_map(|n| {
        [8, 16, 32].into_iter().flat_map(move |m| {
            [
                Some(quarc_saturation_rate(n, m)),
                Some(saturation_rate(&SpidergonTopology::new(n), m)),
            ]
        })
    }));
    assert_eq!(got, 0xcc98_61ef_87d9_8391, "got {got:#x}");
}

#[test]
fn unicast_latencies_are_pinned() {
    let got = digest([0.001, 0.005, 0.01].into_iter().flat_map(|rate| {
        [
            quarc_unicast_latency(16, 8, rate),
            unicast_latency(&SpidergonTopology::new(16), 8, rate),
            quarc_unicast_latency(64, 16, rate),
            unicast_latency(&SpidergonTopology::new(64), 16, rate),
            unicast_latency(&GridTopology::mesh(4, 4), 8, rate),
            unicast_latency(&GridTopology::mesh(5, 3), 8, rate),
        ]
    }));
    assert_eq!(got, 0xe463_e2e0_ee3d_979e, "got {got:#x}");
}

#[test]
fn link_loads_are_pinned() {
    let loads = [16, 32, 64]
        .into_iter()
        .flat_map(|n| {
            [
                LinkLoads::uniform(&QuarcTopology::new(n)),
                LinkLoads::uniform(&SpidergonTopology::new(n)),
            ]
        })
        .chain([(4, 4), (5, 3)].map(|(c, r)| LinkLoads::uniform(&GridTopology::mesh(c, r))))
        .chain([LinkLoads::uniform(&GridTopology::torus(4, 4))]);
    let got = digest(loads.flat_map(|l| [Some(l.max_count() as f64), Some(l.imbalance())]));
    assert_eq!(got, 0xcfe9_aaef_8e5f_3501, "got {got:#x}");
}
