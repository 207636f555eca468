//! FNV-1a, byte-wise: the workspace's fingerprint and checksum recipe
//! ([`Placement::content_hash`](crate::Placement::content_hash), the
//! congestion map hash, the serve design key, the kernel checksums in
//! `BENCH_*.json`). Values are folded as little-endian bytes, floats as
//! their IEEE-754 bit patterns — equality of bits, not of numbers.

/// FNV-1a offset basis — an accumulator's initial value.
pub const OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
pub const PRIME: u64 = 0x100000001b3;

/// Folds `bytes` into the accumulator `h`.
#[must_use]
pub fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Folds a `u64`'s little-endian bytes into the accumulator.
#[must_use]
pub fn mix_u64(h: u64, v: u64) -> u64 {
    mix_bytes(h, &v.to_le_bytes())
}

/// Folds an `f64`'s **bits** into the accumulator.
#[must_use]
pub fn mix_f64(h: u64, v: f64) -> u64 {
    mix_u64(h, v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_1a_64_known_answers() {
        assert_eq!(mix_bytes(OFFSET, b""), OFFSET);
        assert_eq!(mix_bytes(OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(mix_bytes(OFFSET, b"foobar"), 0x85944171f73967e8);
        // 1.0 is 0x3ff0000000000000, folded least significant byte first.
        assert_eq!(mix_f64(OFFSET, 1.0), 0xaab1693229ba1db8);
    }

    #[test]
    fn fnv_mixing_is_order_sensitive() {
        let a = mix_f64(mix_f64(OFFSET, 1.0), 2.0);
        let b = mix_f64(mix_f64(OFFSET, 2.0), 1.0);
        assert_ne!(a, b);
        assert_ne!(mix_u64(OFFSET, 0), OFFSET);
    }
}
