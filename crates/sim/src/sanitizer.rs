//! The dynamic register-clobber sanitizer — the runtime counterpart of
//! the static verifier in `regbal-core::verify`.
//!
//! The paper's safety argument is that a value shared across threads
//! must be dead at every context-switch boundary (CSB). The static
//! verifier proves this about an *allocation*; the sanitizer checks it
//! about an *execution*: every physical-register write is tagged with
//! (thread, pc, cycle), and every read is checked against the tag. A
//! thread that wrote a register, crossed a CSB, and then reads the
//! register back after another thread overwrote it has observed exactly
//! the clobber the allocator promised could never happen — the
//! sanitizer reports it with the register, both threads, both fragment
//! owners, the CSB and both cycles, turning "checksum mismatch
//! somewhere" into an actionable diagnosis.
//!
//! Four report classes:
//!
//! * [`SanitizerReport::SharedClobber`] — a thread read a register it
//!   had written before its most recent CSB, but another thread wrote
//!   it in between (violation).
//! * [`SanitizerReport::ForeignPrivateWrite`] — a write landed in
//!   another thread's private bank (violation; the structured upgrade
//!   of the legacy watchdog).
//! * [`SanitizerReport::ScratchpadClobber`] — a thread reloaded a
//!   spill-scratchpad word it had spilled, but another thread
//!   overwrote the slot in between (violation; spad slots are
//!   thread-private spill homes, so foreign overwrites are packing
//!   bugs).
//! * [`SanitizerReport::UninitializedRead`] — a read of a register no
//!   one has written; the simulator returns 0, but nothing in the
//!   allocation model justifies relying on that (warning).
//!
//! Reads of a register last written by *another* thread without an own
//! write before the CSB are deliberately not flagged: threads may
//! communicate through registers on purpose (the producer/consumer
//! examples do), and only a value the reader itself placed and lost is
//! evidence of a mis-coloring.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

/// A program counter inside a simulated function: basic block plus
/// instruction index (the index one past the body denotes the block's
/// terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pc {
    /// Basic-block id (`BlockId` index) within the thread's function.
    pub block: u32,
    /// Instruction index within the block; `insts.len()` means the
    /// terminator.
    pub inst: u32,
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}:{}", self.block, self.inst)
    }
}

/// Configuration of the sanitizer: the register-bank layout and the
/// fragment-ownership map of the allocation under test.
///
/// All fields are plain data so that `regbal-core` (which `regbal-sim`
/// does not depend on) can produce them: `MultiAllocation::layout()`
/// gives the ranges and `MultiAllocation::fragment_tags()` the
/// fragment map.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerConfig {
    /// Private register banks, indexed by thread. Empty when the
    /// layout is unknown (bank checks are skipped, clobber and
    /// uninitialized-read checks still run).
    pub private_ranges: Vec<Range<u32>>,
    /// The shared bank, if the allocation has one (used only to label
    /// registers in diagnostics).
    pub shared_range: Option<Range<u32>>,
    /// Fragment-ownership tags: `(thread, physical register)` → a
    /// human-readable label of the vreg fragments the allocator placed
    /// there (e.g. `"v3#0,v7#1"`). Missing entries print as `?`.
    pub fragments: HashMap<(usize, u32), String>,
    /// At most this many reports are kept; the excess is counted in
    /// [`crate::RunReport::sanitizer_dropped`]. Duplicate reports (same class, register
    /// and site) are merged before the cap applies.
    pub max_reports: usize,
}

impl Default for SanitizerConfig {
    /// A layout-free configuration: bank checks are skipped, clobber
    /// and uninitialized-read checks still run, and up to
    /// [`SanitizerConfig::DEFAULT_MAX_REPORTS`] reports are kept.
    fn default() -> Self {
        SanitizerConfig::with_layout(Vec::new(), None)
    }
}

impl SanitizerConfig {
    /// Default cap on stored reports.
    pub const DEFAULT_MAX_REPORTS: usize = 1024;

    /// A configuration with the given banks and no fragment map.
    pub fn with_layout(private_ranges: Vec<Range<u32>>, shared_range: Option<Range<u32>>) -> Self {
        SanitizerConfig {
            private_ranges,
            shared_range,
            fragments: HashMap::new(),
            max_reports: Self::DEFAULT_MAX_REPORTS,
        }
    }
}

/// One sanitizer diagnostic. `SharedClobber` and `ForeignPrivateWrite`
/// are violations (the allocation is wrong); `UninitializedRead` is a
/// warning (the program relies on the simulator's implicit zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanitizerReport {
    /// `reader` wrote `reg`, lost the PU at the CSB at `csb_pc`, and
    /// read `reg` back after `writer` overwrote it — the value the
    /// allocator promised would survive the switch is gone.
    SharedClobber {
        /// The clobbered physical register.
        reg: u32,
        /// The thread whose value was lost.
        reader: usize,
        /// The thread that overwrote the register.
        writer: usize,
        /// Fragments the allocator assigned to `reg` in the reader
        /// (`?` when no fragment map was configured).
        reader_fragment: String,
        /// Fragments the allocator assigned to `reg` in the writer.
        writer_fragment: String,
        /// Pc of the clobbering write (in the writer's function).
        write_pc: Pc,
        /// Pc of the read that observed the clobber (in the reader's
        /// function).
        read_pc: Pc,
        /// Pc of the reader's most recent context-switch boundary —
        /// the point where the value should have been dead or private.
        csb_pc: Pc,
        /// Cycle of the clobbering write.
        write_cycle: u64,
        /// Cycle of the read.
        cycle: u64,
    },
    /// A write landed in another thread's private bank.
    ForeignPrivateWrite {
        /// The register written.
        reg: u32,
        /// The writing thread.
        writer: usize,
        /// The thread owning the bank.
        owner: usize,
        /// Fragments mapped to `reg` in the writer (usually `?`: a
        /// correct fragment map never targets a foreign bank).
        writer_fragment: String,
        /// Fragments mapped to `reg` in the owner.
        owner_fragment: String,
        /// Pc of the write.
        pc: Pc,
        /// Cycle of the write.
        cycle: u64,
    },
    /// `reader` spilled a value into the spill-scratchpad word at
    /// `addr`, but `writer` overwrote the slot before the reload —
    /// two threads were packed into the same spad slot.
    ScratchpadClobber {
        /// Byte address of the clobbered spad word.
        addr: u32,
        /// The thread whose spilled value was lost.
        reader: usize,
        /// The thread that overwrote the slot.
        writer: usize,
        /// Pc of the clobbering store (in the writer's function).
        write_pc: Pc,
        /// Pc of the reload that observed the clobber.
        read_pc: Pc,
        /// Cycle of the clobbering store.
        write_cycle: u64,
        /// Cycle of the reload.
        cycle: u64,
    },
    /// A read of a physical register that no thread has written; the
    /// simulator supplies 0.
    UninitializedRead {
        /// The register read.
        reg: u32,
        /// The reading thread.
        thread: usize,
        /// Pc of the read.
        pc: Pc,
        /// Cycle of the read.
        cycle: u64,
    },
}

impl SanitizerReport {
    /// Whether the report is a violation (an allocation bug) rather
    /// than a warning.
    pub fn is_violation(&self) -> bool {
        !matches!(self, SanitizerReport::UninitializedRead { .. })
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizerReport::SharedClobber {
                reg,
                reader,
                writer,
                reader_fragment,
                writer_fragment,
                write_pc,
                read_pc,
                csb_pc,
                write_cycle,
                cycle,
            } => write!(
                f,
                "clobber: r{reg} read by thread {reader} ({reader_fragment}) at {read_pc} \
                 cycle {cycle} was overwritten by thread {writer} ({writer_fragment}) at \
                 {write_pc} cycle {write_cycle}, across the CSB at {csb_pc}"
            ),
            SanitizerReport::ForeignPrivateWrite {
                reg,
                writer,
                owner,
                writer_fragment,
                owner_fragment,
                pc,
                cycle,
            } => write!(
                f,
                "foreign write: thread {writer} ({writer_fragment}) wrote r{reg} at {pc} \
                 cycle {cycle}, inside thread {owner}'s private bank ({owner_fragment})"
            ),
            SanitizerReport::ScratchpadClobber {
                addr,
                reader,
                writer,
                write_pc,
                read_pc,
                write_cycle,
                cycle,
            } => write!(
                f,
                "spad clobber: word {addr:#x} reloaded by thread {reader} at {read_pc} \
                 cycle {cycle} was overwritten by thread {writer} at {write_pc} \
                 cycle {write_cycle}"
            ),
            SanitizerReport::UninitializedRead { reg, thread, pc, cycle } => write!(
                f,
                "uninitialized read: thread {thread} read never-written r{reg} at {pc} \
                 cycle {cycle} (simulator supplies 0)"
            ),
        }
    }
}

/// The last write to a physical register.
#[derive(Debug, Clone, Copy)]
struct WriteTag {
    thread: usize,
    pc: Pc,
    cycle: u64,
}

/// A thread's own last write to a register, stamped with the thread's
/// CSB count ("epoch") at the time. A later read in a *higher* epoch
/// proves the value was expected to survive a switch.
#[derive(Debug, Clone, Copy)]
struct OwnWrite {
    epoch: u64,
}

/// The sanitizer state machine. Owned by a `Simulator` when enabled;
/// fed by its register-access and CSB hooks.
#[derive(Debug, Clone)]
pub(crate) struct Sanitizer {
    config: SanitizerConfig,
    /// Last write to each physical register, across all threads.
    last_write: Vec<Option<WriteTag>>,
    /// Per thread: its own last write to each register plus the epoch.
    own_write: Vec<Vec<Option<OwnWrite>>>,
    /// Per thread: CSBs crossed so far.
    csb_count: Vec<u64>,
    /// Per thread: pc of the most recent CSB.
    csb_pc: Vec<Pc>,
    /// Last write to each spill-scratchpad word (by byte address).
    spad_last: HashMap<u32, WriteTag>,
    /// Spad words each thread has spilled to (its spill homes).
    spad_own: HashSet<(usize, u32)>,
    reports: Vec<SanitizerReport>,
    seen: HashSet<(u8, u32, usize, u64)>,
    dropped: u64,
    regfile_size: usize,
}

impl Sanitizer {
    pub(crate) fn new(config: SanitizerConfig, regfile_size: usize) -> Sanitizer {
        Sanitizer {
            config,
            last_write: vec![None; regfile_size],
            own_write: Vec::new(),
            csb_count: Vec::new(),
            csb_pc: Vec::new(),
            spad_last: HashMap::new(),
            spad_own: HashSet::new(),
            reports: Vec::new(),
            seen: HashSet::new(),
            dropped: 0,
            regfile_size,
        }
    }

    pub(crate) fn reports(&self) -> &[SanitizerReport] {
        &self.reports
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    fn grow(&mut self, thread: usize) {
        while self.own_write.len() <= thread {
            self.own_write.push(vec![None; self.regfile_size]);
            self.csb_count.push(0);
            self.csb_pc.push(Pc::default());
        }
    }

    fn fragment(&self, thread: usize, reg: u32) -> String {
        self.config
            .fragments
            .get(&(thread, reg))
            .cloned()
            .unwrap_or_else(|| "?".to_string())
    }

    fn push(&mut self, key: (u8, u32, usize, u64), report: SanitizerReport) {
        if !self.seen.insert(key) {
            return;
        }
        let cap = if self.config.max_reports == 0 {
            SanitizerConfig::DEFAULT_MAX_REPORTS
        } else {
            self.config.max_reports
        };
        if self.reports.len() < cap {
            self.reports.push(report);
        } else {
            self.dropped += 1;
        }
    }

    /// Thread `thread` crosses a context-switch boundary at `pc` (a
    /// `ctx` or a blocking memory operation).
    pub(crate) fn note_csb(&mut self, thread: usize, pc: Pc) {
        self.grow(thread);
        self.csb_count[thread] += 1;
        self.csb_pc[thread] = pc;
    }

    /// Thread `thread` writes physical register `reg` at `pc`.
    pub(crate) fn note_write(&mut self, thread: usize, reg: u32, pc: Pc, cycle: u64) {
        self.grow(thread);
        for (owner, range) in self.config.private_ranges.iter().enumerate() {
            if owner != thread && range.contains(&reg) {
                let report = SanitizerReport::ForeignPrivateWrite {
                    reg,
                    writer: thread,
                    owner,
                    writer_fragment: self.fragment(thread, reg),
                    owner_fragment: self.fragment(owner, reg),
                    pc,
                    cycle,
                };
                self.push((2, reg, thread, pc_key(pc)), report);
                break;
            }
        }
        self.last_write[reg as usize] = Some(WriteTag { thread, pc, cycle });
        self.own_write[thread][reg as usize] = Some(OwnWrite {
            epoch: self.csb_count[thread],
        });
    }

    /// Thread `thread` stores to the spill-scratchpad word at `addr`.
    pub(crate) fn note_spad_write(&mut self, thread: usize, addr: u32, pc: Pc, cycle: u64) {
        self.grow(thread);
        self.spad_last.insert(addr, WriteTag { thread, pc, cycle });
        self.spad_own.insert((thread, addr));
    }

    /// Thread `thread` loads the spill-scratchpad word at `addr`. A
    /// reload of a word the thread spilled that another thread has
    /// since overwritten is a clobber: spad slots are thread-private
    /// spill homes (no epoch condition — a spill always crosses CSBs
    /// between store and reload, because memory operations block).
    pub(crate) fn note_spad_read(&mut self, thread: usize, addr: u32, pc: Pc, cycle: u64) {
        self.grow(thread);
        if let Some(&w) = self.spad_last.get(&addr) {
            if w.thread != thread && self.spad_own.contains(&(thread, addr)) {
                let report = SanitizerReport::ScratchpadClobber {
                    addr,
                    reader: thread,
                    writer: w.thread,
                    write_pc: w.pc,
                    read_pc: pc,
                    write_cycle: w.cycle,
                    cycle,
                };
                self.push((3, addr, thread, pc_key(pc)), report);
            }
        }
    }

    /// Thread `thread` reads physical register `reg` at `pc`.
    pub(crate) fn note_read(&mut self, thread: usize, reg: u32, pc: Pc, cycle: u64) {
        self.grow(thread);
        match self.last_write[reg as usize] {
            None => {
                let report = SanitizerReport::UninitializedRead {
                    reg,
                    thread,
                    pc,
                    cycle,
                };
                self.push((0, reg, thread, pc_key(pc)), report);
            }
            Some(w) if w.thread != thread => {
                // Only a value the reader itself wrote and then carried
                // across a CSB counts as clobbered; reads of values it
                // never produced may be deliberate communication.
                if let Some(own) = self.own_write[thread][reg as usize] {
                    if self.csb_count[thread] > own.epoch {
                        let report = SanitizerReport::SharedClobber {
                            reg,
                            reader: thread,
                            writer: w.thread,
                            reader_fragment: self.fragment(thread, reg),
                            writer_fragment: self.fragment(w.thread, reg),
                            write_pc: w.pc,
                            read_pc: pc,
                            csb_pc: self.csb_pc[thread],
                            write_cycle: w.cycle,
                            cycle,
                        };
                        self.push((1, reg, thread, pc_key(pc)), report);
                    }
                }
            }
            Some(_) => {}
        }
    }
}

/// Packs a pc into the dedup key.
fn pc_key(pc: Pc) -> u64 {
    (u64::from(pc.block) << 32) | u64::from(pc.inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(block: u32, inst: u32) -> Pc {
        Pc { block, inst }
    }

    #[test]
    fn clobber_requires_a_csb_between_own_write_and_read() {
        let mut s = Sanitizer::new(SanitizerConfig::default(), 8);
        s.note_write(0, 3, pc(0, 0), 1);
        s.note_write(1, 3, pc(0, 0), 2);
        // No CSB crossed by thread 0: not a clobber (could be a race in
        // the test program, not an allocation bug).
        s.note_read(0, 3, pc(0, 1), 3);
        assert!(s.reports().is_empty());
        // Now the same pattern across a CSB fires.
        s.note_write(0, 4, pc(0, 2), 4);
        s.note_csb(0, pc(0, 3));
        s.note_write(1, 4, pc(1, 0), 5);
        s.note_read(0, 4, pc(0, 4), 6);
        assert_eq!(s.reports().len(), 1);
        match &s.reports()[0] {
            SanitizerReport::SharedClobber {
                reg,
                reader,
                writer,
                csb_pc,
                ..
            } => {
                assert_eq!((*reg, *reader, *writer), (4, 0, 1));
                assert_eq!(*csb_pc, pc(0, 3));
            }
            other => panic!("wrong report: {other:?}"),
        }
    }

    #[test]
    fn foreign_reads_without_own_write_are_communication_not_clobber() {
        let mut s = Sanitizer::new(SanitizerConfig::default(), 8);
        s.note_write(1, 0, pc(0, 0), 1);
        s.note_csb(0, pc(0, 0));
        s.note_read(0, 0, pc(0, 1), 2);
        assert!(s.reports().is_empty());
    }

    #[test]
    fn uninitialized_reads_warn_and_dedup() {
        let mut s = Sanitizer::new(SanitizerConfig::default(), 8);
        s.note_read(0, 5, pc(0, 0), 1);
        s.note_read(0, 5, pc(0, 0), 2); // same site: merged
        s.note_read(0, 5, pc(0, 1), 3); // new site
        assert_eq!(s.reports().len(), 2);
        assert!(s.reports().iter().all(|r| !r.is_violation()));
    }

    #[test]
    fn foreign_private_write_names_both_banks() {
        let mut cfg = SanitizerConfig::with_layout(vec![0..4, 4..8], Some(8..12));
        cfg.fragments.insert((0, 2), "v1#0".into());
        let mut s = Sanitizer::new(cfg, 16);
        s.note_write(1, 2, pc(0, 7), 9);
        assert_eq!(s.reports().len(), 1);
        match &s.reports()[0] {
            SanitizerReport::ForeignPrivateWrite {
                reg,
                writer,
                owner,
                owner_fragment,
                ..
            } => {
                assert_eq!((*reg, *writer, *owner), (2, 1, 0));
                assert_eq!(owner_fragment, "v1#0");
            }
            other => panic!("wrong report: {other:?}"),
        }
        assert!(s.reports()[0].is_violation());
    }

    #[test]
    fn report_cap_counts_the_overflow() {
        let cfg = SanitizerConfig {
            max_reports: 2,
            ..SanitizerConfig::default()
        };
        let mut s = Sanitizer::new(cfg, 8);
        for i in 0..5 {
            s.note_read(0, 1, pc(0, i), u64::from(i));
        }
        assert_eq!(s.reports().len(), 2);
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn spad_clobber_requires_a_foreign_write_to_an_own_slot() {
        let mut s = Sanitizer::new(SanitizerConfig::default(), 8);
        // Thread 0 spills to word 0x40, thread 1 overwrites it, thread
        // 0 reloads: clobber.
        s.note_spad_write(0, 0x40, pc(0, 1), 1);
        s.note_spad_write(1, 0x40, pc(0, 2), 2);
        s.note_spad_read(0, 0x40, pc(0, 3), 3);
        assert_eq!(s.reports().len(), 1);
        match &s.reports()[0] {
            SanitizerReport::ScratchpadClobber {
                addr,
                reader,
                writer,
                write_cycle,
                cycle,
                ..
            } => {
                assert_eq!((*addr, *reader, *writer), (0x40, 0, 1));
                assert!(write_cycle < cycle);
            }
            other => panic!("wrong report: {other:?}"),
        }
        assert!(s.reports()[0].is_violation());
        // Reading a word the thread never spilled to is communication,
        // not a clobber.
        s.note_spad_write(1, 0x80, pc(0, 4), 4);
        s.note_spad_read(0, 0x80, pc(0, 5), 5);
        // Reading back one's own latest write is fine.
        s.note_spad_write(0, 0x40, pc(0, 6), 6);
        s.note_spad_read(0, 0x40, pc(0, 7), 7);
        assert_eq!(s.reports().len(), 1, "{:?}", s.reports());
    }

    #[test]
    fn spad_clobber_display_names_the_word_and_threads() {
        let r = SanitizerReport::ScratchpadClobber {
            addr: 0x44,
            reader: 1,
            writer: 3,
            write_pc: pc(2, 0),
            read_pc: pc(1, 4),
            write_cycle: 10,
            cycle: 31,
        };
        let text = r.to_string();
        assert!(text.contains("0x44"), "{text}");
        assert!(text.contains("thread 1"), "{text}");
        assert!(text.contains("thread 3"), "{text}");
    }

    #[test]
    fn display_is_actionable() {
        let r = SanitizerReport::SharedClobber {
            reg: 14,
            reader: 0,
            writer: 2,
            reader_fragment: "v3#1".into(),
            writer_fragment: "v9#0".into(),
            write_pc: pc(1, 2),
            read_pc: pc(0, 5),
            csb_pc: pc(0, 3),
            write_cycle: 40,
            cycle: 44,
        };
        let text = r.to_string();
        assert!(text.contains("r14"), "{text}");
        assert!(text.contains("thread 0"), "{text}");
        assert!(text.contains("thread 2"), "{text}");
        assert!(text.contains("bb0:3"), "{text}");
        assert!(text.contains("v3#1"), "{text}");
    }
}
