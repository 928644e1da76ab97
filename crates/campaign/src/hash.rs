//! Stable content hashing for cache keys, RNG substreams and the
//! simulator-behaviour fingerprint.
//!
//! `std::hash` is deliberately not used: `DefaultHasher` is documented as
//! unstable across releases, and a cache key must survive toolchain bumps.
//! FNV-1a is tiny, stable forever, and 64 bits is ample for the few thousand
//! points a campaign expands to.

/// 64-bit FNV-1a over `bytes`.
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a over `bytes`, continuing from the hash `h` of what precedes them.
const fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    h
}

/// The simulator behaviour of this build: FNV-1a over `quarc-sim`'s three
/// equivalence goldens. Cache entries are tagged with it, so regenerating a
/// golden retires every cached number and a change that moves none keeps them.
pub const BEHAVIOUR: u64 = {
    let h = fnv1a64(include_bytes!("../../sim/tests/goldens/metrics_equivalence.txt"));
    let h =
        fnv1a64_from(h, include_bytes!("../../sim/tests/goldens/metrics_equivalence_large.txt"));
    fnv1a64_from(h, include_bytes!("../../sim/tests/goldens/metrics_equivalence_faults.txt"))
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn the_seeded_form_continues_the_hash() {
        assert_eq!(fnv1a64_from(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn behaviour_hashes_the_three_sim_goldens_in_order() {
        let goldens = concat!(env!("CARGO_MANIFEST_DIR"), "/../sim/tests/goldens");
        let bytes: Vec<u8> = ["", "_large", "_faults"]
            .iter()
            .flat_map(|set| {
                std::fs::read(format!("{goldens}/metrics_equivalence{set}.txt")).unwrap()
            })
            .collect();
        assert_eq!(BEHAVIOUR, fnv1a64(&bytes));
    }

    #[test]
    fn distinct_keys_differ() {
        assert_ne!(fnv1a64(b"quarc n=16"), fnv1a64(b"quarc n=32"));
    }
}
