//! The memory spaces of the micro-engine.

use regbal_ir::MemSpace;

/// Byte-addressable scratch/SRAM/SDRAM/spad memories with 32-bit word
/// access (little endian).
#[derive(Debug, Clone)]
pub struct Memory {
    scratch: Vec<u8>,
    sram: Vec<u8>,
    sdram: Vec<u8>,
    spad: Vec<u8>,
}

impl Memory {
    /// Allocates zero-filled memories of the given byte sizes.
    pub fn new(
        scratch_size: usize,
        sram_size: usize,
        sdram_size: usize,
        spad_size: usize,
    ) -> Memory {
        Memory {
            scratch: vec![0; scratch_size],
            sram: vec![0; sram_size],
            sdram: vec![0; sdram_size],
            spad: vec![0; spad_size],
        }
    }

    fn space(&self, space: MemSpace) -> &[u8] {
        match space {
            MemSpace::Scratch => &self.scratch,
            MemSpace::Sram => &self.sram,
            MemSpace::Sdram => &self.sdram,
            MemSpace::Spad => &self.spad,
        }
    }

    fn space_mut(&mut self, space: MemSpace) -> &mut [u8] {
        match space {
            MemSpace::Scratch => &mut self.scratch,
            MemSpace::Sram => &mut self.sram,
            MemSpace::Sdram => &mut self.sdram,
            MemSpace::Spad => &mut self.spad,
        }
    }

    /// Reads the 32-bit word at byte address `addr`. Out-of-range
    /// addresses wrap modulo the space size (real hardware would fault;
    /// wrapping keeps buggy guest programs deterministic instead of
    /// aborting the simulation).
    pub fn read_word(&self, space: MemSpace, addr: u32) -> u32 {
        let mem = self.space(space);
        let at = addr as usize;
        if let Some(&[a, b, c, d]) = mem.get(at..at + 4) {
            return u32::from_le_bytes([a, b, c, d]);
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = mem[(addr as usize + i) % mem.len()];
        }
        u32::from_le_bytes(bytes)
    }

    /// Writes the 32-bit word at byte address `addr` (wrapping like
    /// [`read_word`](Self::read_word)).
    pub fn write_word(&mut self, space: MemSpace, addr: u32, value: u32) {
        let mem = self.space_mut(space);
        let at = addr as usize;
        if let Some(word) = mem.get_mut(at..at + 4) {
            word.copy_from_slice(&value.to_le_bytes());
            return;
        }
        let len = mem.len();
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            mem[(addr as usize + i) % len] = *b;
        }
    }

    /// Bulk-fills a region with bytes (for packet buffers and tables).
    pub fn write_bytes(&mut self, space: MemSpace, addr: u32, bytes: &[u8]) {
        let mem = self.space_mut(space);
        let len = mem.len();
        for (i, b) in bytes.iter().enumerate() {
            mem[(addr as usize + i) % len] = *b;
        }
    }

    /// Reads a region as bytes.
    pub fn read_bytes(&self, space: MemSpace, addr: u32, n: usize) -> Vec<u8> {
        let mem = self.space(space);
        (0..n).map(|i| mem[(addr as usize + i) % mem.len()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_little_endian() {
        let mut m = Memory::new(64, 64, 64, 64);
        m.write_word(MemSpace::Sram, 8, 0xDEADBEEF);
        assert_eq!(m.read_word(MemSpace::Sram, 8), 0xDEADBEEF);
        assert_eq!(m.read_bytes(MemSpace::Sram, 8, 2), vec![0xEF, 0xBE]);
        // Other spaces untouched.
        assert_eq!(m.read_word(MemSpace::Scratch, 8), 0);
        assert_eq!(m.read_word(MemSpace::Sdram, 8), 0);
    }

    #[test]
    fn spaces_are_independent() {
        let mut m = Memory::new(64, 64, 64, 64);
        m.write_word(MemSpace::Scratch, 0, 1);
        m.write_word(MemSpace::Sram, 0, 2);
        m.write_word(MemSpace::Sdram, 0, 3);
        assert_eq!(m.read_word(MemSpace::Scratch, 0), 1);
        assert_eq!(m.read_word(MemSpace::Sram, 0), 2);
        assert_eq!(m.read_word(MemSpace::Sdram, 0), 3);
    }

    #[test]
    fn addresses_wrap() {
        let mut m = Memory::new(16, 16, 16, 16);
        m.write_word(MemSpace::Scratch, 14, 0x11223344);
        assert_eq!(m.read_word(MemSpace::Scratch, 14), 0x11223344);
        // Bytes 14, 15 wrap to 0, 1.
        assert_eq!(m.read_bytes(MemSpace::Scratch, 0, 2), vec![0x22, 0x11]);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new(64, 64, 64, 64);
        m.write_bytes(MemSpace::Sdram, 4, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(MemSpace::Sdram, 4, 5), vec![1, 2, 3, 4, 5]);
    }
}
