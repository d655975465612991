//! The stable hashes the fleet derives its deterministic draws from (the
//! std hasher is seeded per process and would break determinism).

/// FNV-1a over a tenant name: a stable, dependency-free string hash.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The splitmix64 finalizer: spreads every input bit over the whole
/// word.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
