//! Deterministic synthetic packet generation.

use crate::layout::PKT_STRIDE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regbal_ir::MemSpace;
use regbal_sim::Memory;

/// Fills `count` synthetic packets of `PKT_STRIDE` (64) bytes each at
/// `base` in SDRAM.
///
/// Each packet looks vaguely like an Ethernet+IPv4 frame: 12 bytes of
/// MAC addresses, a 2-byte type, then an IPv4-ish header whose word 2
/// carries the packet length and whose words 3/4 carry addresses; the
/// rest is seeded random payload. The structure is shared by all
/// kernels so that header-field offsets mean the same thing everywhere.
pub fn fill_packets(mem: &mut Memory, base: u32, count: u32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for p in 0..count {
        let addr = base + p * PKT_STRIDE;
        let mut bytes = [0u8; PKT_STRIDE as usize];
        rng.fill(&mut bytes[..]);
        // Deterministic-looking header fields on top of the noise.
        bytes[12] = 0x08; // ethertype IPv4
        bytes[13] = 0x00;
        bytes[14] = 0x45; // version/IHL
        bytes[15] = 0x00;
        // Length field: payload sizes cycle through realistic values.
        let len = 20 + (p % 11) * 4;
        bytes[16] = (len >> 8) as u8;
        bytes[17] = (len & 0xff) as u8;
        // TTL byte used by the forwarding kernels.
        bytes[22] = 2 + (bytes[22] % 60);
        mem.write_bytes(MemSpace::Sdram, addr, &bytes);
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Memory::new(0, 0, 1 << 16, 0);
        let mut b = Memory::new(0, 0, 1 << 16, 0);
        fill_packets(&mut a, 0, 4, 7);
        fill_packets(&mut b, 0, 4, 7);
        assert_eq!(
            a.read_bytes(MemSpace::Sdram, 0, 256),
            b.read_bytes(MemSpace::Sdram, 0, 256)
        );
        let mut c = Memory::new(0, 0, 1 << 16, 0);
        fill_packets(&mut c, 0, 4, 8);
        assert_ne!(
            a.read_bytes(MemSpace::Sdram, 0, 256),
            c.read_bytes(MemSpace::Sdram, 0, 256)
        );
    }

    #[test]
    fn header_fields_present() {
        let mut m = Memory::new(0, 0, 1 << 16, 0);
        fill_packets(&mut m, 0, 2, 1);
        for p in 0..2u32 {
            let b = m.read_bytes(MemSpace::Sdram, p * PKT_STRIDE, 24);
            assert_eq!(b[12], 0x08);
            assert_eq!(b[14], 0x45);
            assert!(b[22] >= 2);
        }
    }
}
