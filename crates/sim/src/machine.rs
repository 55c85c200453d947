//! The micro-engine: threads, round-robin scheduling, execution.

use crate::config::SimConfig;
use crate::mem::Memory;
use crate::sanitizer::{Pc, Sanitizer, SanitizerConfig, SanitizerReport};
use regbal_ir::{BinOp, Cond, Func, Inst, MemSpace, Operand, Reg, Terminator, UnOp};

/// Size of the shared physical register file in the simulator (larger
/// than the IXP's 128 so that fixed-partition baselines with spill
/// temporaries always fit).
const REGFILE_SIZE: usize = 256;

/// When to stop a [`Simulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Every thread has completed at least this many main-loop
    /// iterations (threads that halt count as done).
    Iterations(u64),
    /// The global cycle counter reaches this value.
    Cycles(u64),
}

/// How an event-mode batch of a PU ended (see
/// [`Simulator::run_to_event`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PuEvent {
    /// The PU is poised to issue a shared-memory instruction: the next
    /// scheduling step at local time `at` is a load or store, and none
    /// of it has executed yet. `at` is the batch's heap key.
    Mem {
        /// Local clock at the pre-issue scheduling point.
        at: u64,
    },
    /// The PU reached its stop condition (cycle horizon or every
    /// thread halted) with no shared-memory event pending.
    Done,
}

/// One event of the optional execution trace (see
/// [`Simulator::enable_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The PU switched to `thread`.
    Switch {
        /// Cycle of the switch.
        cycle: u64,
        /// The thread now running.
        thread: usize,
    },
    /// `thread` issued a memory operation and blocked.
    MemIssue {
        /// Cycle of the issue.
        cycle: u64,
        /// The issuing thread.
        thread: usize,
        /// Target memory space.
        space: MemSpace,
        /// Byte address of the first word.
        addr: u32,
        /// `true` for stores.
        write: bool,
        /// Cycle the thread becomes ready again.
        ready_at: u64,
    },
    /// `thread` yielded voluntarily (`ctx`).
    Yield {
        /// Cycle of the yield.
        cycle: u64,
        /// The yielding thread.
        thread: usize,
    },
    /// `thread` completed a main-loop iteration.
    Iteration {
        /// Cycle of the `iter_end`.
        cycle: u64,
        /// The thread.
        thread: usize,
        /// Its iteration count after this one.
        count: u64,
    },
    /// `thread` halted.
    Halt {
        /// Cycle of the halt.
        cycle: u64,
        /// The thread.
        thread: usize,
    },
}

/// A structured error the simulator hit mid-run. The offending thread
/// is halted and the error recorded (first one wins); the other
/// threads keep running, and the error surfaces in
/// [`RunReport::error`] instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A `call` instruction reached execution. Calls exist only at the
    /// module level — `regbal_ir::inline_module` must run first.
    UnloweredCall {
        /// The thread that executed the call.
        thread: usize,
        /// Name of the called function.
        callee: String,
        /// Location of the call in the thread's function.
        pc: Pc,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnloweredCall { thread, callee, pc } => write!(
                f,
                "thread {thread}: `call {callee}` at {pc} reached the simulator; \
                 inline subroutines first"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A cross-thread register-safety violation detected by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The writing thread.
    pub writer: usize,
    /// The thread whose private bank was written.
    pub owner: usize,
    /// The physical register written.
    pub reg: u32,
    /// The cycle of the write.
    pub cycle: u64,
}

/// Per-thread statistics of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadStats {
    /// Completed main-loop iterations (`iter_end` markers executed).
    pub iterations: u64,
    /// Instructions executed (terminators included, `iter_end` free).
    pub instructions: u64,
    /// Times the thread gave up the PU (memory blocks and `ctx`).
    pub ctx_switches: u64,
    /// Cycles the thread actually held the PU (its occupancy is
    /// `busy_cycles / run cycles`).
    pub busy_cycles: u64,
    /// Whether the thread halted.
    pub halted: bool,
    /// Wall-clock cycles of the whole run divided by this thread's
    /// iterations (`f64::INFINITY` with zero iterations) — the paper's
    /// "cycle counts averaged per iteration of the main loop".
    pub cycles_per_iteration: f64,
}

/// Result of a [`Simulator::run`].
///
/// Derives `PartialEq` so two runs can be compared field-for-field —
/// the event-driven chip cores are validated by demanding their
/// reports equal the reference interleaving's exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Per-thread statistics.
    pub threads: Vec<ThreadStats>,
    /// Watchdog violations (empty when the allocation is safe or the
    /// watchdog is disabled).
    pub violations: Vec<Violation>,
    /// Cycles during which no thread was ready (all blocked on memory).
    pub idle_cycles: u64,
    /// Trace events dropped because the buffer enabled with
    /// [`Simulator::enable_trace`] was full (0 when tracing is off or
    /// the capacity sufficed).
    pub trace_dropped: u64,
    /// The first structured error the run hit (the offending thread is
    /// halted; the rest of the PU keeps running).
    pub error: Option<SimError>,
    /// Sanitizer diagnostics (empty unless
    /// [`Simulator::enable_sanitizer`] was called).
    pub sanitizer: Vec<SanitizerReport>,
    /// Sanitizer reports dropped past the configured cap.
    pub sanitizer_dropped: u64,
    /// Fallback-ladder transitions the allocator took to produce this
    /// PU's code (stamped by the harness via
    /// [`Simulator::note_degraded`]; 0 means the primary strategy
    /// succeeded directly).
    pub degraded: u64,
}

impl RunReport {
    /// Sanitizer reports that are violations (allocation bugs), as
    /// opposed to warnings.
    pub fn sanitizer_violations(&self) -> impl Iterator<Item = &SanitizerReport> {
        self.sanitizer.iter().filter(|r| r.is_violation())
    }
}

/// The bounded trace buffer: keeps the first `capacity` events and
/// counts the rest instead of growing without limit on long traffic
/// runs.
#[derive(Debug, Clone)]
struct TraceBuf {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// One decoded instruction or terminator. Ops are `Copy`: a step reads
/// its op by value, so executing one neither clones nor allocates.
/// Addresses are 32-bit, so offsets are stored pre-truncated.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load {
        dst: Reg,
        base: Reg,
        offset: u32,
        space: MemSpace,
    },
    Store {
        src: Reg,
        base: Reg,
        offset: u32,
        space: MemSpace,
    },
    LoadBurst {
        regs: Burst,
        base: Reg,
        offset: u32,
        space: MemSpace,
    },
    StoreBurst {
        regs: Burst,
        base: Reg,
        offset: u32,
        space: MemSpace,
    },
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Operand,
    },
    Un {
        op: UnOp,
        dst: Reg,
        src: Operand,
    },
    Ctx,
    IterEnd,
    Nop,
    /// `callee` indexes [`Code::callees`].
    Call {
        callee: u32,
    },
    /// Targets are op indices.
    Jump {
        target: u32,
    },
    Branch {
        cond: Cond,
        lhs: Reg,
        rhs: Operand,
        taken: u32,
        fallthrough: u32,
    },
    Halt,
}

impl Op {
    /// Whether the op accesses shared memory (the batch boundary of the
    /// event-driven core). Terminators and ALU/`ctx` ops touch only
    /// PU-local state.
    fn is_mem(self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::Store { .. } | Op::LoadBurst { .. } | Op::StoreBurst { .. }
        )
    }
}

/// A burst's registers: `len` entries of [`Code::burst_regs`] from
/// `start`, in address order.
#[derive(Debug, Clone, Copy)]
struct Burst {
    start: u32,
    len: u32,
}

impl Burst {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A thread's function decoded once, when the thread is added: a flat
/// op array laid out block by block, each block's terminator as its
/// last op.
#[derive(Debug, Clone)]
struct Code {
    ops: Vec<Op>,
    /// Each op's location in the source function, for the sanitizer,
    /// the trace and [`SimError`] (a terminator's `inst` is its block's
    /// instruction count).
    pcs: Vec<Pc>,
    burst_regs: Vec<Reg>,
    callees: Vec<String>,
    /// Op index of the entry block's first op.
    entry: usize,
    /// The most words one load of this code delivers.
    max_load_words: usize,
}

impl Code {
    fn decode(func: &Func) -> Code {
        let mut starts = Vec::with_capacity(func.blocks.len());
        let mut len = 0;
        for block in &func.blocks {
            starts.push(len as u32);
            len += block.insts.len() + 1;
        }
        let mut code = Code {
            ops: Vec::with_capacity(len),
            pcs: Vec::with_capacity(len),
            burst_regs: Vec::new(),
            callees: Vec::new(),
            entry: starts[func.entry.index()] as usize,
            max_load_words: 0,
        };
        for (b, block) in func.blocks.iter().enumerate() {
            for (k, inst) in block.insts.iter().enumerate() {
                let op = code.decode_inst(inst);
                code.push(op, b, k);
            }
            let op = match block.term {
                Terminator::Jump(t) => Op::Jump {
                    target: starts[t.index()],
                },
                Terminator::Branch {
                    cond,
                    lhs,
                    rhs,
                    taken,
                    fallthrough,
                } => Op::Branch {
                    cond,
                    lhs,
                    rhs,
                    taken: starts[taken.index()],
                    fallthrough: starts[fallthrough.index()],
                },
                Terminator::Halt => Op::Halt,
            };
            code.push(op, b, block.insts.len());
        }
        code
    }

    fn push(&mut self, op: Op, block: usize, inst: usize) {
        self.ops.push(op);
        self.pcs.push(Pc {
            block: block as u32,
            inst: inst as u32,
        });
    }

    fn burst(&mut self, regs: &[Reg]) -> Burst {
        let start = self.burst_regs.len() as u32;
        self.burst_regs.extend_from_slice(regs);
        Burst {
            start,
            len: regs.len() as u32,
        }
    }

    fn decode_inst(&mut self, inst: &Inst) -> Op {
        match *inst {
            Inst::Bin { op, dst, lhs, rhs } => Op::Bin { op, dst, lhs, rhs },
            Inst::Un { op, dst, src } => Op::Un { op, dst, src },
            Inst::Load {
                dst,
                base,
                offset,
                space,
            } => {
                self.max_load_words = self.max_load_words.max(1);
                Op::Load {
                    dst,
                    base,
                    offset: offset as u32,
                    space,
                }
            }
            Inst::Store {
                src,
                base,
                offset,
                space,
            } => Op::Store {
                src,
                base,
                offset: offset as u32,
                space,
            },
            Inst::LoadBurst {
                ref dsts,
                base,
                offset,
                space,
            } => {
                self.max_load_words = self.max_load_words.max(dsts.len());
                Op::LoadBurst {
                    regs: self.burst(dsts),
                    base,
                    offset: offset as u32,
                    space,
                }
            }
            Inst::StoreBurst {
                ref srcs,
                base,
                offset,
                space,
            } => Op::StoreBurst {
                regs: self.burst(srcs),
                base,
                offset: offset as u32,
                space,
            },
            Inst::Ctx => Op::Ctx,
            Inst::IterEnd => Op::IterEnd,
            Inst::Nop => Op::Nop,
            Inst::Call { ref callee } => {
                self.callees.push(callee.clone());
                Op::Call {
                    callee: (self.callees.len() - 1) as u32,
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Thread {
    code: Code,
    /// Index of the next op in `code` (never read once halted).
    pc: usize,
    vregs: Vec<u32>,
    /// The outstanding load's results, written at resume. Every load
    /// refills this one buffer, sized for the code's widest load when
    /// the thread is added.
    pending_load: Vec<(Reg, u32)>,
    /// Pc of the load that produced `pending_load` (the delivery at
    /// resume is attributed to the load instruction).
    pending_pc: Pc,
    ready_at: u64,
    halted: bool,
    iterations: u64,
    instructions: u64,
    ctx_switches: u64,
    busy: u64,
}

/// The simulated processing unit.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    memory: Memory,
    threads: Vec<Thread>,
    regfile: Vec<u32>,
    now: u64,
    idle: u64,
    last_running: Option<usize>,
    rr_next: usize,
    violations: Vec<Violation>,
    trace: Option<TraceBuf>,
    sanitizer: Option<Sanitizer>,
    error: Option<SimError>,
    /// Degradation count stamped by the harness (plain data: the
    /// simulator does not depend on the allocator).
    degraded: u64,
}

impl Simulator {
    /// Creates an empty micro-engine.
    pub fn new(config: SimConfig) -> Simulator {
        let memory = Memory::new(
            config.scratch_size,
            config.sram_size,
            config.sdram_size,
            config.spad_size,
        );
        Simulator {
            config,
            memory,
            threads: Vec::new(),
            regfile: vec![0; REGFILE_SIZE],
            now: 0,
            idle: 0,
            last_running: None,
            rr_next: 0,
            violations: Vec::new(),
            trace: None,
            sanitizer: None,
            error: None,
            degraded: 0,
        }
    }

    /// Records how many fallback-ladder transitions the allocator took
    /// for this PU's code; surfaced verbatim in [`RunReport::degraded`].
    pub fn note_degraded(&mut self, count: u64) {
        self.degraded = count;
    }

    /// Enables event tracing, keeping at most `capacity` events (the
    /// earliest ones). Later events are not stored — the buffer never
    /// grows past the configured limit, even on traffic runs of
    /// millions of cycles — but they are *counted*: see
    /// [`trace_dropped`](Self::trace_dropped) and
    /// [`RunReport::trace_dropped`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuf {
            events: Vec::new(),
            capacity,
            dropped: 0,
        });
    }

    /// Enables the dynamic register-clobber sanitizer (see
    /// [`crate::sanitizer`]): every physical-register access is
    /// checked against the allocation's bank layout and fragment map.
    /// Enable before running; diagnostics surface in
    /// [`RunReport::sanitizer`] and via
    /// [`sanitizer_reports`](Self::sanitizer_reports).
    pub fn enable_sanitizer(&mut self, config: SanitizerConfig) {
        self.sanitizer = Some(Sanitizer::new(config, REGFILE_SIZE));
    }

    /// The sanitizer diagnostics so far (empty unless enabled).
    pub fn sanitizer_reports(&self) -> &[SanitizerReport] {
        self.sanitizer.as_ref().map_or(&[], |s| s.reports())
    }

    /// Sanitizer reports dropped past the configured cap.
    pub fn sanitizer_dropped(&self) -> u64 {
        self.sanitizer.as_ref().map_or(0, |s| s.dropped())
    }

    /// The first structured error the simulation hit, if any.
    pub fn error(&self) -> Option<&SimError> {
        self.error.as_ref()
    }

    /// The recorded trace (empty unless enabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_ref().map_or(&[], |t| t.events.as_slice())
    }

    /// Events dropped because the trace buffer was full (0 when tracing
    /// is disabled).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.dropped)
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(buf) = &mut self.trace {
            if buf.events.len() < buf.capacity {
                buf.events.push(event);
            } else {
                buf.dropped += 1;
            }
        }
    }

    /// Adds a thread executing `func` from its entry block. Virtual
    /// registers live in a per-thread file; physical registers in the
    /// shared file. Returns the thread index.
    ///
    /// # Panics
    ///
    /// Panics if `func` fails validation.
    pub fn add_thread(&mut self, func: Func) -> usize {
        func.validate().expect("simulated function must be valid");
        let code = Code::decode(&func);
        self.threads.push(Thread {
            pc: code.entry,
            vregs: vec![0; func.num_vregs as usize],
            pending_load: Vec::with_capacity(code.max_load_words),
            code,
            pending_pc: Pc::default(),
            ready_at: 0,
            halted: false,
            iterations: 0,
            instructions: 0,
            ctx_switches: 0,
            busy: 0,
        });
        self.threads.len() - 1
    }

    /// The memories, for pre-loading packets and checking results.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Mutable access to the memories.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Runs until `stop` (or the configured global cycle budget).
    pub fn run(&mut self, stop: StopWhen) -> RunReport {
        let mut mem = std::mem::replace(&mut self.memory, Memory::new(0, 0, 0, 0));
        self.run_slice(&mut mem, stop);
        self.memory = mem;
        self.report()
    }

    /// The PU's local clock (cycles executed so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every thread of this PU has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Runs against `mem` until `stop`, building no report — one slice
    /// of [`crate::Chip::run`], where several PUs share the off-chip
    /// memories. The PU's own memory is ignored.
    pub(crate) fn run_slice(&mut self, mem: &mut Memory, stop: StopWhen) {
        self.run_batch(mem, stop, u64::MAX);
    }

    /// Runs only *pure* work: executes the PU up to (but not into) its
    /// next shared-memory instruction, or to `stop` / halt. Pure work
    /// reads and writes nothing outside this PU, so calls on different
    /// PUs commute and the event core need order only the memory steps.
    ///
    /// On `Mem { at }` the PU is *poised*: the scheduling step at local
    /// time `at` would issue a load or store, and none of that step
    /// (context-switch cost included) has executed yet.
    pub(crate) fn run_to_event(&mut self, stop: StopWhen) -> PuEvent {
        // The batch provably executes no memory instruction (fuel 0
        // stops it poised first), so a placeholder memory suffices.
        let mut dummy = Memory::new(0, 0, 0, 0);
        self.run_batch(&mut dummy, stop, 0)
    }

    /// Resolves a poised shared-memory event against `mem`, then keeps
    /// running pure work to the next event. The serial event-driven
    /// core's per-event step: returns the PU's next event key.
    pub(crate) fn run_through_event(&mut self, mem: &mut Memory, stop: StopWhen) -> PuEvent {
        self.run_batch(mem, stop, 1)
    }

    /// The scheduling loop shared by the slice core and the event core.
    ///
    /// `fuel` is the number of shared-memory instructions the batch may
    /// execute; when the next scheduling step would issue one with no
    /// fuel left, the loop returns `Mem { at: self.now }` *before*
    /// committing anything (no rotation, no context-switch cost), so
    /// re-entering with fuel replays the step exactly.
    ///
    /// Invariant behind the event-driven chip: every effect on state
    /// outside this PU happens in a fueled memory step, and the key
    /// `at` equals the `now` the reference granularity-1 interleaving
    /// would schedule that step at.
    fn run_batch(&mut self, mem: &mut Memory, stop: StopWhen, mut fuel: u64) -> PuEvent {
        loop {
            if self.now >= self.config.max_cycles || self.stopped(stop) {
                return PuEvent::Done;
            }
            // Continue the owning thread if it can still run (a thread
            // that blocked recorded a future `ready_at`; one that
            // yielded or halted cleared `last_running`).
            if let Some(i) = self.last_running {
                if !self.threads[i].halted && self.threads[i].ready_at <= self.now {
                    if self.poised_at_mem(i) {
                        if fuel == 0 {
                            return PuEvent::Mem { at: self.now };
                        }
                        fuel -= 1;
                    }
                    self.step(i, mem);
                    continue;
                }
            }
            // Pick the next ready thread, round robin.
            match self.peek_ready() {
                Some(j) => {
                    if self.poised_at_mem(j) {
                        if fuel == 0 {
                            return PuEvent::Mem { at: self.now };
                        }
                        fuel -= 1;
                    }
                    self.rr_next = if j + 1 == self.threads.len() { 0 } else { j + 1 };
                    if self.last_running != Some(j) {
                        self.now += self.config.ctx_switch_cost;
                    }
                    self.resume(j);
                    self.step(j, mem);
                }
                None => {
                    // All blocked: advance to the earliest wake-up.
                    let Some(next) = self
                        .threads
                        .iter()
                        .filter(|t| !t.halted)
                        .map(|t| t.ready_at)
                        .min()
                    else {
                        return PuEvent::Done; // everything halted
                    };
                    let next = next.max(self.now + 1);
                    self.idle += next - self.now;
                    self.now = next;
                }
            }
        }
    }

    /// Whether thread `i`'s next op accesses shared memory.
    fn poised_at_mem(&self, i: usize) -> bool {
        let t = &self.threads[i];
        t.code.ops[t.pc].is_mem()
    }

    fn stopped(&self, stop: StopWhen) -> bool {
        match stop {
            StopWhen::Cycles(c) => self.now >= c,
            StopWhen::Iterations(n) => self
                .threads
                .iter()
                .all(|t| t.halted || t.iterations >= n),
        }
    }

    /// The thread the round-robin scan would pick, without committing
    /// the rotation — callers that schedule it must set `rr_next` past
    /// it themselves (see [`run_batch`](Self::run_batch)).
    fn peek_ready(&self) -> Option<usize> {
        let n = self.threads.len();
        let mut j = self.rr_next;
        for _ in 0..n {
            let t = &self.threads[j];
            if !t.halted && t.ready_at <= self.now {
                return Some(j);
            }
            j += 1;
            if j == n {
                j = 0;
            }
        }
        None
    }

    /// Makes thread `j` the runner, delivering any pending load result
    /// (the transfer-register copy at resume).
    fn resume(&mut self, j: usize) {
        self.record(TraceEvent::Switch {
            cycle: self.now,
            thread: j,
        });
        self.last_running = Some(j);
        let pc = self.threads[j].pending_pc;
        for k in 0..self.threads[j].pending_load.len() {
            let (dst, value) = self.threads[j].pending_load[k];
            self.write_reg(j, dst, value, pc);
        }
        self.threads[j].pending_load.clear();
    }

    fn read_reg(&mut self, i: usize, r: Reg, pc: Pc) -> u32 {
        match r {
            Reg::Virt(v) => self.threads[i].vregs[v.index()],
            Reg::Phys(p) => {
                let slot = p.index() % REGFILE_SIZE;
                if let Some(san) = &mut self.sanitizer {
                    san.note_read(i, slot as u32, pc, self.now);
                }
                self.regfile[slot]
            }
        }
    }

    fn write_reg(&mut self, i: usize, r: Reg, value: u32, pc: Pc) {
        match r {
            Reg::Virt(v) => self.threads[i].vregs[v.index()] = value,
            Reg::Phys(p) => {
                let slot = p.index() % REGFILE_SIZE;
                for (owner, range) in self.config.private_ranges.iter().enumerate() {
                    if owner != i && range.contains(&p.0) {
                        self.violations.push(Violation {
                            writer: i,
                            owner,
                            reg: p.0,
                            cycle: self.now,
                        });
                    }
                }
                if let Some(san) = &mut self.sanitizer {
                    san.note_write(i, slot as u32, pc, self.now);
                }
                self.regfile[slot] = value;
            }
        }
    }

    fn operand(&mut self, i: usize, o: Operand, pc: Pc) -> u32 {
        match o {
            Operand::Reg(r) => self.read_reg(i, r, pc),
            Operand::Imm(imm) => imm as u32,
        }
    }

    /// Records that thread `i` crosses a context-switch boundary at
    /// `pc` (for the sanitizer's epoch tracking).
    fn note_csb(&mut self, i: usize, pc: Pc) {
        if let Some(san) = &mut self.sanitizer {
            san.note_csb(i, pc);
        }
    }

    /// Records a spill-scratchpad word access for the sanitizer's
    /// cross-thread clobber tracking (spad slots are thread-private
    /// spill homes, so foreign overwrites are diagnosable like
    /// register clobbers).
    fn note_spad(&mut self, i: usize, addr: u32, write: bool, pc: Pc) {
        if let Some(san) = &mut self.sanitizer {
            if write {
                san.note_spad_write(i, addr, pc, self.now);
            } else {
                san.note_spad_read(i, addr, pc, self.now);
            }
        }
    }

    /// Executes one op of thread `i`.
    fn step(&mut self, i: usize, mem: &mut Memory) {
        let t = &mut self.threads[i];
        let at = t.pc;
        let op = t.code.ops[at];
        let pc = t.code.pcs[at];
        t.pc = at + 1;
        if let Op::IterEnd = op {
            // Free marker: no cycle, no instruction count.
            t.iterations += 1;
            let count = t.iterations;
            self.record(TraceEvent::Iteration {
                cycle: self.now,
                thread: i,
                count,
            });
            return;
        }
        t.busy += 1;
        t.instructions += 1;
        self.now += 1;
        match op {
            Op::Jump { target } => self.threads[i].pc = target as usize,
            Op::Branch {
                cond,
                lhs,
                rhs,
                taken,
                fallthrough,
            } => {
                let l = self.read_reg(i, lhs, pc);
                let r = self.operand(i, rhs, pc);
                let target = if cond.eval(l, r) { taken } else { fallthrough };
                self.threads[i].pc = target as usize;
            }
            Op::Halt => self.halt(i),
            Op::Bin { op, dst, lhs, rhs } => {
                let l = self.read_reg(i, lhs, pc);
                let r = self.operand(i, rhs, pc);
                self.write_reg(i, dst, eval_bin(op, l, r), pc);
            }
            Op::Un { op, dst, src } => {
                let s = self.operand(i, src, pc);
                let value = match op {
                    UnOp::Mov => s,
                    UnOp::Not => !s,
                    UnOp::Neg => s.wrapping_neg(),
                };
                self.write_reg(i, dst, value, pc);
            }
            Op::Load {
                dst,
                base,
                offset,
                space,
            } => {
                let addr = self.read_reg(i, base, pc).wrapping_add(offset);
                let value = mem.read_word(space, addr);
                if space == MemSpace::Spad {
                    self.note_spad(i, addr, false, pc);
                }
                let t = &mut self.threads[i];
                t.pending_load.clear();
                t.pending_load.push((dst, value));
                t.pending_pc = pc;
                self.block_on(i, pc, space, addr, false);
            }
            Op::LoadBurst {
                regs,
                base,
                offset,
                space,
            } => {
                let addr = self.read_reg(i, base, pc).wrapping_add(offset);
                if space == MemSpace::Spad {
                    for w in 0..regs.len {
                        self.note_spad(i, addr.wrapping_add(4 * w), false, pc);
                    }
                }
                let t = &mut self.threads[i];
                t.pending_load.clear();
                for (w, &dst) in (0u32..).zip(&t.code.burst_regs[regs.range()]) {
                    let value = mem.read_word(space, addr.wrapping_add(4 * w));
                    t.pending_load.push((dst, value));
                }
                t.pending_pc = pc;
                self.block_on(i, pc, space, addr, false);
            }
            Op::StoreBurst {
                regs,
                base,
                offset,
                space,
            } => {
                let addr = self.read_reg(i, base, pc).wrapping_add(offset);
                for (w, k) in (0u32..).zip(regs.range()) {
                    let src = self.threads[i].code.burst_regs[k];
                    let value = self.read_reg(i, src, pc);
                    let word = addr.wrapping_add(4 * w);
                    mem.write_word(space, word, value);
                    if space == MemSpace::Spad {
                        self.note_spad(i, word, true, pc);
                    }
                }
                self.block_on(i, pc, space, addr, true);
            }
            Op::Store {
                src,
                base,
                offset,
                space,
            } => {
                let addr = self.read_reg(i, base, pc).wrapping_add(offset);
                let value = self.read_reg(i, src, pc);
                mem.write_word(space, addr, value);
                if space == MemSpace::Spad {
                    self.note_spad(i, addr, true, pc);
                }
                self.block_on(i, pc, space, addr, true);
            }
            Op::Ctx => {
                // Voluntary yield: ready immediately, but the PU moves
                // on to the next ready thread.
                self.note_csb(i, pc);
                self.threads[i].ctx_switches += 1;
                self.last_running = None;
                self.record(TraceEvent::Yield {
                    cycle: self.now,
                    thread: i,
                });
            }
            Op::Nop => {}
            Op::Call { callee } => {
                // Calls exist only pre-inlining; executing one is a
                // toolchain bug. Record it and halt the thread — the
                // rest of the PU keeps running and the error surfaces
                // in the report instead of aborting the process.
                if self.error.is_none() {
                    self.error = Some(SimError::UnloweredCall {
                        thread: i,
                        callee: self.threads[i].code.callees[callee as usize].clone(),
                        pc,
                    });
                }
                self.halt(i);
            }
            Op::IterEnd => unreachable!("handled above"),
        }
    }

    /// Blocks thread `i` on the memory access it just issued at `pc`:
    /// it crosses a context-switch boundary and gives up the PU until
    /// the access completes.
    fn block_on(&mut self, i: usize, pc: Pc, space: MemSpace, addr: u32, write: bool) {
        self.note_csb(i, pc);
        let ready_at = self.now + self.config.latency(space);
        let t = &mut self.threads[i];
        t.ready_at = ready_at;
        t.ctx_switches += 1;
        self.last_running = None;
        self.record(TraceEvent::MemIssue {
            cycle: self.now,
            thread: i,
            space,
            addr,
            write,
            ready_at,
        });
    }

    fn halt(&mut self, i: usize) {
        self.threads[i].halted = true;
        self.last_running = None;
        self.record(TraceEvent::Halt {
            cycle: self.now,
            thread: i,
        });
    }

    /// A statistics snapshot without advancing the simulation.
    pub fn report(&self) -> RunReport {
        RunReport {
            cycles: self.now,
            threads: self
                .threads
                .iter()
                .map(|t| ThreadStats {
                    iterations: t.iterations,
                    instructions: t.instructions,
                    ctx_switches: t.ctx_switches,
                    busy_cycles: t.busy,
                    halted: t.halted,
                    cycles_per_iteration: if t.iterations > 0 {
                        self.now as f64 / t.iterations as f64
                    } else {
                        f64::INFINITY
                    },
                })
                .collect(),
            violations: self.violations.clone(),
            idle_cycles: self.idle,
            trace_dropped: self.trace_dropped(),
            error: self.error.clone(),
            sanitizer: self.sanitizer_reports().to_vec(),
            sanitizer_dropped: self.sanitizer_dropped(),
            degraded: self.degraded,
        }
    }
}

fn eval_bin(op: BinOp, l: u32, r: u32) -> u32 {
    use BinOp::*;
    match op {
        Add => l.wrapping_add(r),
        Sub => l.wrapping_sub(r),
        Mul => l.wrapping_mul(r),
        And => l & r,
        Or => l | r,
        Xor => l ^ r,
        Shl => l.wrapping_shl(r),
        Shr => l.wrapping_shr(r),
        Asr => (l as i32).wrapping_shr(r) as u32,
        SetLt => u32::from((l as i32) < (r as i32)),
        SetLtU => u32::from(l < r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::{parse_func, MemSpace};

    fn sim() -> Simulator {
        Simulator::new(SimConfig::default())
    }

    #[test]
    fn arithmetic_and_memory() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 100\n v1 = mov 7\n v2 = mul v1, 6\n v2 = add v2, 1\n store scratch[v0+0], v2\n halt\n}",
        )
        .unwrap();
        let mut s = sim();
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 100), 43);
        assert!(r.threads[0].halted);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn load_latency_blocks_single_thread() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 0\n v1 = load sram[v0+0]\n v1 = add v1, 1\n store scratch[v0+0], v1\n halt\n}",
        )
        .unwrap();
        let mut s = sim();
        s.memory_mut().write_word(MemSpace::Sram, 0, 9);
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 10);
        // mov(1) + load(1) + latency(20 idle) + add(1) + store(1)
        // + latency(16) + halt(1) ≈ 41+ cycles.
        assert!(r.cycles >= 40, "cycles {}", r.cycles);
        assert!(r.idle_cycles >= 20, "idle {}", r.idle_cycles);
    }

    #[test]
    fn two_threads_hide_latency() {
        let src = "func t {\nbb0:\n v0 = mov 0\n jump bb1\nbb1:\n v1 = load sram[v0+0]\n v0 = add v0, 4\n iter_end\n bltu v0, 400, bb1, bb2\nbb2:\n halt\n}";
        let f = parse_func(src).unwrap();
        // One thread alone:
        let mut s1 = sim();
        s1.add_thread(f.clone());
        let r1 = s1.run(StopWhen::Cycles(1_000_000));
        // Two threads share the PU:
        let mut s2 = sim();
        s2.add_thread(f.clone());
        s2.add_thread(f);
        let r2 = s2.run(StopWhen::Cycles(1_000_000));
        assert!(r1.threads[0].halted && r2.threads[1].halted);
        // Two threads do twice the work in much less than twice the time.
        assert!(
            (r2.cycles as f64) < 1.5 * r1.cycles as f64,
            "no latency hiding: {} vs {}",
            r2.cycles,
            r1.cycles
        );
        assert!(r2.idle_cycles < r1.idle_cycles);
    }

    #[test]
    fn ctx_rotates_threads_fairly() {
        // Each thread increments its own counter in scratch, yielding
        // between increments; both must make progress.
        let make = |addr: u32| {
            parse_func(&format!(
                "func t {{\nbb0:\n v0 = mov {addr}\n v1 = mov 0\n jump bb1\nbb1:\n v1 = add v1, 1\n ctx\n bltu v1, 50, bb1, bb2\nbb2:\n store scratch[v0+0], v1\n halt\n}}"
            ))
            .unwrap()
        };
        let mut s = sim();
        s.add_thread(make(0));
        s.add_thread(make(4));
        let r = s.run(StopWhen::Cycles(100_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 50);
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 4), 50);
        assert!(r.threads[0].ctx_switches >= 49);
    }

    #[test]
    fn iteration_stop_condition() {
        let f = parse_func(
            "func t {\nbb0:\n nop\n iter_end\n jump bb0\n}",
        )
        .unwrap();
        let mut s = sim();
        s.add_thread(f);
        let r = s.run(StopWhen::Iterations(10));
        assert!(r.threads[0].iterations >= 10);
        assert!(r.threads[0].cycles_per_iteration.is_finite());
    }

    #[test]
    fn physical_registers_are_shared_between_threads() {
        // Thread 0 busy-waits on r0 == 1 which thread 1 sets; with a
        // shared file the flag is visible.
        let t0 = parse_func(
            "func a {\nbb0:\n ctx\n beq r0, 1, bb1, bb0\nbb1:\n r1 = mov 77\n r2 = mov 0\n store scratch[r2+0], r1\n halt\n}",
        )
        .unwrap();
        let t1 = parse_func("func b {\nbb0:\n r0 = mov 1\n halt\n}").unwrap();
        let mut s = sim();
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 77);
        assert!(r.threads[0].halted);
    }

    #[test]
    fn watchdog_flags_cross_thread_private_writes() {
        // Thread 1 writes r2, which belongs to thread 0's private bank.
        let t0 = parse_func("func a {\nbb0:\n r2 = mov 5\n ctx\n r3 = mov 0\n store scratch[r3+0], r2\n halt\n}").unwrap();
        let t1 = parse_func("func b {\nbb0:\n r2 = mov 99\n halt\n}").unwrap();
        let config = SimConfig {
            private_ranges: vec![0..8, 8..16],
            ..SimConfig::default()
        };
        let mut s = Simulator::new(config);
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].writer, 1);
        assert_eq!(r.violations[0].owner, 0);
        assert_eq!(r.violations[0].reg, 2);
        // And the clobber is observable: thread 0 stores 99, not 5.
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 99);
    }

    #[test]
    fn load_destination_written_at_resume_not_issue() {
        // Thread 0: loads into r0, then stores r0. Thread 1 overwrites
        // r0 while thread 0 waits; the transfer-register model must
        // still deliver the loaded value at resume.
        let t0 = parse_func(
            "func a {\nbb0:\n r1 = mov 0\n r0 = load sram[r1+0]\n store scratch[r1+0], r0\n halt\n}",
        )
        .unwrap();
        let t1 = parse_func("func b {\nbb0:\n r0 = mov 1234\n halt\n}").unwrap();
        let mut s = sim();
        s.memory_mut().write_word(MemSpace::Sram, 0, 5678);
        s.add_thread(t0);
        s.add_thread(t1);
        s.run(StopWhen::Cycles(10_000));
        assert_eq!(
            s.memory().read_word(MemSpace::Scratch, 0),
            5678,
            "load result must survive the other thread's write to r0"
        );
    }

    #[test]
    fn halted_threads_leave_the_rotation() {
        let t0 = parse_func("func a {\nbb0:\n halt\n}").unwrap();
        let t1 = parse_func(
            "func b {\nbb0:\n v0 = mov 3\n v1 = mov 0\n store scratch[v1+0], v0\n halt\n}",
        )
        .unwrap();
        let mut s = sim();
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(1_000));
        assert!(r.threads.iter().all(|t| t.halted));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 3);
    }

    #[test]
    fn cycle_budget_stops_runaway_loops() {
        let f = parse_func("func spin {\nbb0:\n nop\n jump bb0\n}").unwrap();
        let mut s = sim();
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(500));
        assert!(r.cycles >= 500 && r.cycles < 600);
        assert!(!r.threads[0].halted);
    }

    #[test]
    fn bursts_based_at_the_top_of_the_address_space_wrap() {
        // A burst based at 0xFFFF_FFFC runs its second word past 2^32:
        // the word address wraps to 0, as single-word accesses do.
        for space in ["sram", "spad"] {
            let f = parse_func(&format!(
                "func t {{\nbb0:\n v0 = mov -4\n v1 = mov 7\n v2 = mov 9\n \
                 storeb {space}[v0+0], v1, v2\n loadb {space}[v0+0], v3, v4\n \
                 v5 = mov 64\n store scratch[v5+0], v3\n store scratch[v5+4], v4\n halt\n}}"
            ))
            .unwrap();
            let mut s = sim();
            s.enable_sanitizer(SanitizerConfig::default());
            s.add_thread(f);
            let r = s.run(StopWhen::Cycles(10_000));
            assert!(r.threads[0].halted, "{space}");
            assert_eq!(s.memory().read_word(MemSpace::Scratch, 64), 7, "{space}");
            assert_eq!(s.memory().read_word(MemSpace::Scratch, 68), 9, "{space}");
            let mem = if space == "sram" { MemSpace::Sram } else { MemSpace::Spad };
            assert_eq!(s.memory().read_word(mem, 0), 9, "{space}: word 1 wraps to 0");
        }
    }

    #[test]
    fn signed_ops_behave() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov -8\n v1 = asr v0, 1\n v2 = slt v0, 0\n v3 = mov 0\n store scratch[v3+0], v1\n store scratch[v3+4], v2\n halt\n}",
        )
        .unwrap();
        let mut s = sim();
        s.add_thread(f);
        s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0) as i32, -4);
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 4), 1);
    }
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use regbal_ir::{parse_func, MemSpace};

    #[test]
    fn clobber_across_ctx_is_diagnosed_with_the_full_triple() {
        // Thread 0 parks 5 in r4, yields, reads it back; thread 1
        // overwrites r4 in between — the canonical shared-register
        // clobber the allocator must never produce.
        let t0 = parse_func(
            "func a {\nbb0:\n r4 = mov 5\n ctx\n r5 = mov 0\n store scratch[r5+0], r4\n halt\n}",
        )
        .unwrap();
        let t1 = parse_func("func b {\nbb0:\n r4 = mov 99\n halt\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        let mut cfg = SanitizerConfig::with_layout(std::iter::once(0..4).collect(), Some(4..8));
        cfg.fragments.insert((0, 4), "v0#0".into());
        cfg.fragments.insert((1, 4), "v7#0".into());
        s.enable_sanitizer(cfg);
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        let clobbers: Vec<_> = r
            .sanitizer
            .iter()
            .filter(|d| matches!(d, SanitizerReport::SharedClobber { .. }))
            .collect();
        assert_eq!(clobbers.len(), 1, "{:?}", r.sanitizer);
        match clobbers[0] {
            SanitizerReport::SharedClobber {
                reg,
                reader,
                writer,
                reader_fragment,
                writer_fragment,
                csb_pc,
                write_cycle,
                cycle,
                ..
            } => {
                assert_eq!((*reg, *reader, *writer), (4, 0, 1));
                assert_eq!(reader_fragment, "v0#0");
                assert_eq!(writer_fragment, "v7#0");
                // The `ctx` is the second instruction of bb0.
                assert_eq!(*csb_pc, Pc { block: 0, inst: 1 });
                assert!(write_cycle < cycle);
            }
            _ => unreachable!(),
        }
        assert_eq!(r.sanitizer_violations().count(), 1);
    }

    #[test]
    fn uninitialized_read_warns_but_still_reads_zero() {
        let f = parse_func(
            "func t {\nbb0:\n r1 = add r5, 7\n r2 = mov 0\n store scratch[r2+0], r1\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(1_000));
        // The silent-zero semantics are preserved...
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 7);
        // ...but the reliance on them is now visible, as a warning.
        assert!(r.sanitizer.iter().any(|d| matches!(
            d,
            SanitizerReport::UninitializedRead { reg: 5, thread: 0, .. }
        )));
        assert_eq!(r.sanitizer_violations().count(), 0);
    }

    #[test]
    fn sanitizer_off_keeps_reports_empty() {
        let f = parse_func("func t {\nbb0:\n r1 = add r5, 7\n halt\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(1_000));
        assert!(r.sanitizer.is_empty());
        assert_eq!(r.sanitizer_dropped, 0);
    }

    #[test]
    fn transfer_register_delivery_is_attributed_to_the_reader() {
        // Same shape as load_destination_written_at_resume_not_issue:
        // thread 1 writes r0 while thread 0 waits on a load into r0.
        // The delivery at resume makes thread 0 the last writer, so the
        // subsequent read must NOT be flagged as a clobber.
        let t0 = parse_func(
            "func a {\nbb0:\n r1 = mov 0\n r0 = load sram[r1+0]\n store scratch[r1+0], r0\n halt\n}",
        )
        .unwrap();
        let t1 = parse_func("func b {\nbb0:\n r0 = mov 1234\n halt\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::default());
        s.memory_mut().write_word(MemSpace::Sram, 0, 5678);
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 5678);
        assert_eq!(r.sanitizer_violations().count(), 0, "{:?}", r.sanitizer);
    }

    #[test]
    fn private_registers_never_false_positive_across_csbs() {
        // Each thread keeps a counter in its own private register
        // across many yields: no reports of any kind.
        let make = |reg: u32, addr: u32| {
            parse_func(&format!(
                "func t {{\nbb0:\n r{reg} = mov 0\n jump bb1\nbb1:\n r{reg} = add r{reg}, 1\n ctx\n bltu r{reg}, 20, bb1, bb2\nbb2:\n r30 = mov {addr}\n store scratch[r30+0], r{reg}\n halt\n}}"
            ))
            .unwrap()
        };
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::with_layout(vec![0..8, 8..16], None));
        s.add_thread(make(2, 0));
        s.add_thread(make(10, 4));
        let r = s.run(StopWhen::Cycles(100_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 20);
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 4), 20);
        assert!(r.sanitizer.is_empty(), "{:?}", r.sanitizer);
    }

    #[test]
    fn foreign_private_write_is_a_structured_violation_too() {
        let t0 = parse_func("func a {\nbb0:\n r2 = mov 5\n ctx\n halt\n}").unwrap();
        let t1 = parse_func("func b {\nbb0:\n r2 = mov 99\n halt\n}").unwrap();
        let config = SimConfig {
            private_ranges: vec![0..8, 8..16],
            ..SimConfig::default()
        };
        let mut s = Simulator::new(config);
        s.enable_sanitizer(SanitizerConfig::with_layout(vec![0..8, 8..16], None));
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        // Both the legacy watchdog and the sanitizer fire.
        assert_eq!(r.violations.len(), 1);
        assert!(r.sanitizer.iter().any(|d| matches!(
            d,
            SanitizerReport::ForeignPrivateWrite { reg: 2, writer: 1, owner: 0, .. }
        )));
    }

    #[test]
    fn cross_thread_spad_clobber_is_caught_end_to_end() {
        // The exact bug the scratch-tier allocator must never produce:
        // two threads handed the same scratchpad spill slot. Thread 0
        // parks 5 in spad word 0x100, yields, reloads it; thread 1
        // overwrites the slot in between. The reload observes 99 (spad
        // is a plain shared store at machine level) and the sanitizer
        // pins the clobber on the foreign writer.
        let t0 = parse_func(
            "func a {\nbb0:\n r1 = mov 256\n r2 = mov 5\n store spad[r1+0], r2\n ctx\n \
             r3 = load spad[r1+0]\n r4 = mov 0\n store scratch[r4+0], r3\n halt\n}",
        )
        .unwrap();
        // Disjoint register numbers per thread: the only cross-thread
        // state is the shared spad slot itself.
        let t1 = parse_func(
            "func b {\nbb0:\n r11 = mov 256\n r12 = mov 99\n store spad[r11+0], r12\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::default());
        s.add_thread(t0);
        s.add_thread(t1);
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 99, "clobber lands");
        let clobbers: Vec<_> = r
            .sanitizer
            .iter()
            .filter(|d| matches!(d, SanitizerReport::ScratchpadClobber { .. }))
            .collect();
        assert_eq!(clobbers.len(), 1, "{:?}", r.sanitizer);
        match clobbers[0] {
            SanitizerReport::ScratchpadClobber {
                addr,
                reader,
                writer,
                write_cycle,
                cycle,
                ..
            } => {
                assert_eq!((*addr, *reader, *writer), (256, 0, 1));
                assert!(write_cycle < cycle);
            }
            _ => unreachable!(),
        }
        assert_eq!(r.sanitizer_violations().count(), 1);
    }

    #[test]
    fn disjoint_spad_slots_never_false_positive() {
        // The healthy shape the packer produces: dense slots, one per
        // spill, no sharing — across yields, zero reports.
        let make = |r: u32, slot: u32, val: i64, out: u32| {
            parse_func(&format!(
                "func t {{\nbb0:\n r{r} = mov {slot}\n r{} = mov {val}\n store spad[r{r}+0], r{} \
                 \n ctx\n r{} = load spad[r{r}+0]\n r{} = mov {out}\n \
                 store scratch[r{}+0], r{}\n halt\n}}",
                r + 1,
                r + 1,
                r + 2,
                r + 3,
                r + 3,
                r + 2
            ))
            .unwrap()
        };
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::default());
        s.add_thread(make(1, 256, 5, 0));
        s.add_thread(make(11, 260, 7, 4));
        let r = s.run(StopWhen::Cycles(10_000));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 5);
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 4), 7);
        assert!(r.sanitizer.is_empty(), "{:?}", r.sanitizer);
    }

    #[test]
    fn zero_thread_run_reports_cleanly() {
        let mut s = Simulator::new(SimConfig::default());
        s.enable_sanitizer(SanitizerConfig::default());
        let r = s.run(StopWhen::Cycles(100));
        assert_eq!(r.cycles, 0);
        assert!(r.threads.is_empty());
        assert!(r.sanitizer.is_empty());
        assert!(r.error.is_none());
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use regbal_ir::{parse_func, parse_module, MemSpace};

    #[test]
    fn unlowered_call_is_a_structured_error_not_a_panic() {
        let m = parse_module(
            "func main {\nbb0:\n nop\n call helper\n halt\n}\nfunc helper {\nbb0:\n nop\n halt\n}",
        )
        .unwrap();
        let f = m.iter().find(|f| f.name == "main").unwrap().clone();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(1_000));
        match r.error {
            Some(SimError::UnloweredCall { thread, ref callee, pc }) => {
                assert_eq!(thread, 0);
                assert_eq!(callee, "helper");
                assert_eq!(pc, Pc { block: 0, inst: 1 });
            }
            ref other => panic!("expected UnloweredCall, got {other:?}"),
        }
        assert!(r.threads[0].halted, "offending thread halts");
        let text = r.error.unwrap().to_string();
        assert!(text.contains("call helper"), "{text}");
        assert!(text.contains("bb0:1"), "{text}");
    }

    #[test]
    fn other_threads_survive_an_unlowered_call() {
        let m = parse_module(
            "func broken {\nbb0:\n call helper\n halt\n}\nfunc helper {\nbb0:\n halt\n}",
        )
        .unwrap();
        let broken = m.iter().find(|f| f.name == "broken").unwrap().clone();
        let good = parse_func(
            "func good {\nbb0:\n v0 = mov 8\n v1 = mov 0\n store scratch[v1+0], v0\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(broken);
        s.add_thread(good);
        let r = s.run(StopWhen::Cycles(10_000));
        assert!(r.error.is_some());
        assert!(r.threads.iter().all(|t| t.halted));
        assert_eq!(s.memory().read_word(MemSpace::Scratch, 0), 8);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use regbal_ir::parse_func;

    #[test]
    fn trace_records_the_event_sequence() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 0\n v1 = load sram[v0+8]\n ctx\n store scratch[v0+4], v1\n iter_end\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_trace(64);
        s.add_thread(f);
        s.run(StopWhen::Cycles(100_000));
        let trace = s.trace();
        assert!(matches!(trace[0], TraceEvent::Switch { thread: 0, .. }));
        assert!(trace.iter().any(|e| matches!(
            e,
            TraceEvent::MemIssue { write: false, addr: 8, .. }
        )));
        assert!(trace.iter().any(|e| matches!(e, TraceEvent::Yield { .. })));
        assert!(trace.iter().any(|e| matches!(
            e,
            TraceEvent::MemIssue { write: true, addr: 4, .. }
        )));
        assert!(trace.iter().any(|e| matches!(
            e,
            TraceEvent::Iteration { count: 1, .. }
        )));
        assert!(matches!(trace.last(), Some(TraceEvent::Halt { .. })));
        // Cycles are monotonically non-decreasing.
        let cycles: Vec<u64> = trace
            .iter()
            .map(|e| match *e {
                TraceEvent::Switch { cycle, .. }
                | TraceEvent::MemIssue { cycle, .. }
                | TraceEvent::Yield { cycle, .. }
                | TraceEvent::Iteration { cycle, .. }
                | TraceEvent::Halt { cycle, .. } => cycle,
            })
            .collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_capacity_is_respected() {
        let f = parse_func("func spin {\nbb0:\n ctx\n jump bb0\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_trace(10);
        s.add_thread(f);
        s.run(StopWhen::Cycles(1_000));
        assert_eq!(s.trace().len(), 10);
    }

    #[test]
    fn trace_overflow_is_counted_and_reported() {
        // Every iteration yields and loops — a long run generates far
        // more events than the 10-slot buffer holds.
        let f = parse_func("func spin {\nbb0:\n ctx\n jump bb0\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_trace(10);
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(1_000));
        assert_eq!(s.trace().len(), 10, "buffer must stay bounded");
        assert!(s.trace_dropped() > 0);
        assert_eq!(r.trace_dropped, s.trace_dropped(), "report carries the count");
    }

    #[test]
    fn no_drops_within_capacity() {
        let f = parse_func("func t {\nbb0:\n nop\n halt\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.enable_trace(64);
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(100));
        assert!(!s.trace().is_empty());
        assert_eq!(r.trace_dropped, 0);
    }

    #[test]
    fn trace_disabled_by_default() {
        let f = parse_func("func t {\nbb0:\n nop\n halt\n}").unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(100));
        assert!(s.trace().is_empty());
        assert_eq!(r.trace_dropped, 0);
    }
}

#[cfg(test)]
mod busy_tests {
    use super::*;
    use regbal_ir::parse_func;

    #[test]
    fn busy_cycles_equal_instructions_for_pure_alu() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 1\n v0 = add v0, 1\n v0 = add v0, 1\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(1_000));
        assert_eq!(r.threads[0].busy_cycles, r.threads[0].instructions);
        assert_eq!(r.threads[0].busy_cycles, 4);
    }

    #[test]
    fn busy_cycles_exclude_memory_stalls() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 0\n v1 = load sdram[v0+0]\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(10_000));
        // 3 issue cycles; the 150-cycle stall is idle, not busy.
        assert_eq!(r.threads[0].busy_cycles, 3);
        assert!(r.cycles > 150);
    }

    #[test]
    fn busy_cycles_partition_among_threads() {
        let f = parse_func(
            "func t {\nbb0:\n v0 = mov 4\n jump l\nl:\n v0 = sub v0, 1\n ctx\n bne v0, 0, l, d\nd:\n halt\n}",
        )
        .unwrap();
        let mut s = Simulator::new(SimConfig::default());
        s.add_thread(f.clone());
        s.add_thread(f);
        let r = s.run(StopWhen::Cycles(10_000));
        let busy: u64 = r.threads.iter().map(|t| t.busy_cycles).sum();
        // Busy + idle + context-switch cost accounts for the whole run.
        assert!(busy <= r.cycles);
        assert!(busy + r.idle_cycles <= r.cycles);
        assert!(r.threads[0].busy_cycles > 0 && r.threads[1].busy_cycles > 0);
    }
}
