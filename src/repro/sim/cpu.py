"""The interpreter core: fetch, decode (cached), execute, account cycles.

One :class:`Cpu` models one hart running one task.  Its
:class:`~repro.isa.extensions.IsaProfile` is the ISAX capability mask:
executing an instruction from an extension the profile lacks raises
``IllegalInstructionFault(kind="unsupported-extension")`` — the
architectural event FAM migrates on and Chimera's runtime rewriter
repairs.

Faults propagate as exceptions with ``cpu.pc`` still pointing at the
faulting instruction; the simulated kernel (:mod:`repro.sim.machine`)
catches them, adjusts state, and resumes by calling :meth:`Cpu.run`
again.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

from repro.elf.binary import Perm
from repro.isa.decoding import IllegalEncodingError, decode
from repro.isa.extensions import Extension, IsaProfile, RV64GCV
from repro.isa.fields import sign_extend, to_unsigned64
from repro.isa.instructions import Instruction
from repro.sim.cost import CostModel, DEFAULT_ARCH
from repro.sim.faults import (
    BreakpointTrap,
    EcallTrap,
    IllegalInstructionFault,
    SimFault,
    SimulationLimitExceeded,
)
from repro.sim.memory import AddressSpace
from repro.sim.vector import VectorUnit

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

#: Mnemonics that may redirect control flow; they terminate superblocks.
#: ecall/ebreak raise, so they end a block the same way a jump does.
_CTRL_MNEMONICS = frozenset({
    "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "ecall", "ebreak",
    "c.j", "c.jr", "c.jalr", "c.beqz", "c.bnez", "c.ebreak",
})

#: Straight-line run length cap per superblock.
_MAX_BLOCK_OPS = 128

#: Conditional branches: inside a trace they become guards whose
#: recorded direction is checked on every pass.
_COND_BRANCHES = frozenset({
    "beq", "bne", "blt", "bge", "bltu", "bgeu", "c.beqz", "c.bnez",
})

#: Indirect jumps: inside a trace the computed target is guarded
#: against the recorded one.
_INDIRECT_JUMPS = frozenset({"jalr", "c.jr", "c.jalr"})

#: Trace-tier shape caps: blocks chained per trace / flat ops per trace.
_MAX_TRACE_BLOCKS = 64
_MAX_TRACE_OPS = 1024

#: Recording attempts per entry pc before the tier gives up on it (a
#: chain that keeps hitting a syscall or the instruction budget).
_MAX_TRACE_ATTEMPTS = 4

#: Default executions of a cached superblock before its entry pc is
#: considered hot and a trace is recorded across its branches.
DEFAULT_TRACE_THRESHOLD = 16


class _Trace:
    """One recorded hot trace: superblocks chained across taken branches.

    It is compiled from a flat op list of ``(pc, nxt, expected, instr,
    handler, cost, cost_taken)`` — ``expected`` is the pc the recording
    observed execution continuing at, so every former branch site doubles
    as a guard: an op whose handler leaves ``cpu.pc`` anywhere other than
    ``expected`` side-exits the trace with the architectural state
    already exact (the op retired, the pc is wherever the branch really
    went).  ``loops`` marks a trace whose last op returns to ``entry``;
    those replay in a closed loop without re-entering the dispatcher,
    revalidating segment versions at every loop edge.
    """

    __slots__ = ("entry", "n", "pcs", "ranges", "versions", "loops",
                 "fn", "cyc")

    def __init__(self, entry, ops, ranges, versions, loops):
        self.entry = entry
        self.n = len(ops)
        self.pcs = tuple(op[0] for op in ops)
        self.ranges = ranges
        self.versions = versions
        self.loops = loops
        # exec-compiled pass function; per-op prefix cycle sums (fault path)
        self.fn, self.cyc = _compile_trace(ops)


def _s(value: int) -> int:
    """Unsigned-64 storage -> signed value."""
    return value - 0x1_0000_0000_0000_0000 if value & 0x8000_0000_0000_0000 else value


class Cpu:
    """A single simulated hart."""

    def __init__(
        self,
        space: AddressSpace,
        profile: IsaProfile = RV64GCV,
        cost_model: Optional[CostModel] = None,
        name: str = "hart0",
        block_cache: bool = True,
        trace_cache: bool = True,
        trace_threshold: int = DEFAULT_TRACE_THRESHOLD,
    ):
        self.space = space
        self.profile = profile
        self.cost = cost_model or CostModel(DEFAULT_ARCH)
        self.name = name
        self.regs: list[int] = [0] * 32
        self.pc = 0
        self.vector = VectorUnit(vlen=self.cost.params.vlen)
        self.cycles = 0
        self.instret = 0
        #: pc of the most recently *retired* instruction; lets fault
        #: handlers attribute a fetch fault to the jump that caused it
        #: (e.g. a SMILE jalr whose gp was clobbered before recovery).
        self.last_pc: Optional[int] = None
        #: Optional per-retired-instruction hook (see
        #: :mod:`repro.telemetry.exec_trace`).
        self.tracer = None
        #: Optional pre-fetch hook called with this cpu before every
        #: instruction; may raise a structured :class:`SimFault`.  The
        #: resilience layer arms it to kill/flake a core mid-task at a
        #: precise instruction boundary (nothing partially executed).
        self.step_hook: Optional[Callable[["Cpu"], None]] = None
        #: Optional hook called with (cpu, fault) for every SimFault that
        #: propagates out of :meth:`step`, after the faulting pc has been
        #: filled in.  The chaos harness installs an assertion here that
        #: ``fault.pc`` is never None once the CPU knows it.
        self.fault_hook: Optional[Callable[["Cpu", "SimFault"], None]] = None
        #: Counts of interesting dynamic events, keyed by name.
        self.counters: dict[str, int] = defaultdict(int)
        #: Optional address tags: executing a tagged address bumps the
        #: named counter (used to count e.g. ARMore trampoline bounces).
        self.tag_addrs: dict[int, str] = {}
        #: When True, decode-cache misses bump the ``decode_misses``
        #: counter.  Off by default — telemetry flips it on so existing
        #: tests asserting exact counter contents are unaffected.
        self.count_decode = False
        # decode cache: addr -> (instr, handler, tag, seg, seg_version)
        self._dcache: dict[int, tuple[Instruction, Callable, Optional[str], object, int]] = {}
        #: Superblock engine switch: when True, :meth:`run` executes
        #: straight-line runs from a basic-block cache; when any hook
        #: (step_hook/tracer/tag_addrs) is live it falls back to
        #: :meth:`step` so chaos/self-heal/telemetry semantics hold.
        self.block_cache = block_cache
        # superblock cache: entry pc -> (ops, seg, seg_version, start, end)
        # where ops = [(pc, next_pc, instr, handler, cost, cost_taken)].
        self._bcache: dict[int, tuple[list, object, int, int, int]] = {}
        #: Trace tier switch: when True (and the block cache is on), hot
        #: superblock entries are linked into cross-branch traces that
        #: replay without per-branch dispatch.  Requires the block cache;
        #: falls back to :meth:`step` under the same hook conditions.
        self.trace_cache = trace_cache and block_cache
        #: Cached-superblock executions at one entry pc before a trace
        #: is recorded from it.
        self.trace_threshold = max(1, trace_threshold)
        # trace cache: entry pc -> _Trace
        self._tcache: dict[int, _Trace] = {}
        # hot-block profiler: superblock entry pc -> cached-hit count
        self._hot_counts: dict[int, int] = {}
        # entry pc -> failed recording attempts (give up at the cap)
        self._trace_attempts: dict[int, int] = {}
        # faulting-op index, written by compiled trace passes on the way
        # out so the caller can reconstruct pc/instret/cycles exactly
        self._trace_ex = 0

    # -- register helpers --------------------------------------------------

    def get_reg(self, idx: int) -> int:
        """Read an integer register (x0 reads as 0)."""
        return self.regs[idx] if idx else 0

    def set_reg(self, idx: int, value: int) -> None:
        """Write an integer register (writes to x0 are discarded)."""
        if idx:
            self.regs[idx] = value & _MASK64

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named event counter."""
        self.counters[counter] += amount

    def flush_decode_cache(self) -> None:
        """Drop all cached decodes, superblocks, and traces (after code
        patching or an address-space view switch).  Hot counts reset too:
        they are keyed by pc and mean nothing across a view change."""
        self._dcache.clear()
        self._bcache.clear()
        self._tcache.clear()
        self._hot_counts.clear()
        self._trace_attempts.clear()

    def invalidate_code(self, addr: int, length: int) -> None:
        """Targeted invalidation after a code patch at ``[addr, addr+length)``.

        Evicts decode-cache entries and superblocks overlapping the
        patched range.  Surviving entries in the patched segment are
        re-validated in place when the segment advanced by exactly the
        one version bump this patch made — so a ranged patch costs only
        the overlapping entries, not the whole cache.  Correctness never
        depends on this being called: every cache probe checks the
        segment version and rebuilds stale entries lazily.
        """
        end = addr + length
        dcache = self._dcache
        for pc in [pc for pc, e in dcache.items()
                   if pc < end and pc + e[0].length > addr]:
            del dcache[pc]
        for pc, entry in dcache.items():
            instr, handler, tag, seg, version = entry
            if seg.contains(addr) and version == seg.version - 1:
                dcache[pc] = (instr, handler, tag, seg, seg.version)
        bcache = self._bcache
        for pc in [pc for pc, b in bcache.items()
                   if b[3] < end and b[4] > addr]:
            del bcache[pc]
        for pc, block in bcache.items():
            ops, seg, version, start, stop = block
            if seg.contains(addr) and version == seg.version - 1:
                bcache[pc] = (ops, seg, seg.version, start, stop)
        # Traces registered the code range of every constituent block:
        # evict exactly the traces whose chain overlaps the patch, then
        # revalidate survivors in the patched segment the same way the
        # block cache does (their recorded bytes are untouched).
        tcache = self._tcache
        stale = [pc for pc, t in tcache.items()
                 if any(s < end and e > addr for _sg, _v, s, e in t.ranges)]
        for pc in stale:
            del tcache[pc]
            self._trace_attempts.pop(pc, None)
        if stale:
            self.counters["traces_invalidated"] += len(stale)
        for t in tcache.values():
            for r in t.ranges:
                seg = r[0]
                if seg.contains(addr) and r[1] == seg.version - 1:
                    r[1] = seg.version
            for v in t.versions:
                seg = v[0]
                if seg.contains(addr) and v[1] == seg.version - 1:
                    v[1] = seg.version

    def snapshot_regs(self) -> list[int]:
        """Copy of the integer register file."""
        return list(self.regs)

    def hot_blocks(self, top: int = 0) -> list[tuple[int, int]]:
        """Hot-block histogram: (entry pc, cached executions), hottest
        first (ties broken by pc).  ``top`` limits the list; 0 = all."""
        items = sorted(self._hot_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return items[:top] if top else items

    # -- fetch/decode --------------------------------------------------------

    def _decode_at(self, pc: int) -> tuple[Instruction, Callable, Optional[str]]:
        cached = self._dcache.get(pc)
        if cached is not None:
            instr, handler, tag, seg, version = cached
            if seg.version == version:
                return instr, handler, tag
        seg = self.space.fetch_segment(pc)  # raises SegmentationFault(exec)
        if self.count_decode:
            self.bump("decode_misses")
        try:
            instr = decode(seg.data, pc - seg.base, addr=pc)
        except IllegalEncodingError as exc:
            raise IllegalInstructionFault(pc, exc.kind, str(exc)) from exc
        bind = _BINDERS.get(instr.mnemonic)
        if bind is None:
            raise IllegalInstructionFault(pc, "unknown", f"no semantics for {instr.mnemonic}")
        if instr.extension not in self.profile.extensions:
            handler = _unsupported
        else:
            # Operands bound once per decoded pc; absent ones read as x0/0.
            # Binding raises IllegalInstructionFault for operands the
            # entry has no semantics for (a vsetvli SEW the unit lacks).
            handler = bind(instr.rd or 0, instr.rs1 or 0, instr.rs2 or 0,
                           instr.imm or 0, pc, pc + instr.length,
                           instr.vd or 0, instr.vs1 or 0, instr.vs2 or 0)
        tag = self.tag_addrs.get(pc) if self.tag_addrs else None
        self._dcache[pc] = (instr, handler, tag, seg, seg.version)
        return instr, handler, tag

    # -- execution -----------------------------------------------------------

    def step(self) -> Instruction:
        """Execute one instruction; returns it.  Faults propagate.

        Every :class:`SimFault` leaving this method carries the faulting
        pc: raise sites that only know an address (memory faults) get it
        filled in here, where the pc is authoritative.
        """
        pc = self.pc
        try:
            if self.step_hook is not None:
                self.step_hook(self)
            instr, handler, tag = self._decode_at(pc)
            self.pc = pc + instr.length
            try:
                taken = handler(self, instr)
            except Exception:
                self.pc = pc  # leave pc at the faulting instruction
                raise
        except SimFault as fault:
            if fault.pc is None:
                fault.pc = pc
            if self.fault_hook is not None:
                self.fault_hook(self, fault)
            raise
        if tag is not None:
            self.counters[tag] = self.counters.get(tag, 0) + 1
        if self.tracer is not None:
            self.tracer(self, instr)
        self.last_pc = pc
        self.instret += 1
        self.cycles += self.cost.instruction_cost(instr, taken=bool(taken))
        return instr

    def run(self, max_instructions: int = 50_000_000) -> None:
        """Run until a fault propagates or the budget is exhausted.

        With :attr:`block_cache` on and no per-step hook live, execution
        goes through the superblock engine: straight-line runs are
        decoded once into a flat dispatch list and replayed in a tight
        loop with precomputed costs.  Any live ``step_hook``/``tracer``/
        ``tag_addrs`` drops back to :meth:`step` per instruction, so
        instrumented runs observe every architectural event.
        """
        step = self.step
        remaining = max_instructions
        if not self.block_cache:
            while remaining > 0:
                step()
                remaining -= 1
            raise SimulationLimitExceeded(max_instructions)
        bcache = self._bcache
        tcache = self._tcache
        tracing = self.trace_cache
        threshold = self.trace_threshold
        hot = self._hot_counts
        attempts = self._trace_attempts
        hits = 0
        thits = 0
        retired = 0
        try:
            while remaining > 0:
                if (self.step_hook is not None or self.tracer is not None
                        or self.tag_addrs):
                    step()
                    remaining -= 1
                    continue
                pc = self.pc
                if tracing:
                    trace = tcache.get(pc)
                    if trace is not None:
                        valid = True
                        for s, v in trace.versions:
                            if s.version != v:
                                valid = False
                                break
                        if not valid:
                            del tcache[pc]
                            attempts.pop(pc, None)
                            self.counters["traces_invalidated"] += 1
                        elif remaining >= trace.n:
                            thits += 1
                            # Keep the histogram live after promotion so
                            # ``hot_blocks`` reports real dispatch counts,
                            # not counts saturated at the threshold.
                            hot[pc] = hot.get(pc, 0) + 1
                            remaining -= self._run_trace(trace, remaining)
                            continue
                        # A budget tail shorter than one pass falls through
                        # to the block tier, which stops at the budget.
                block = bcache.get(pc)
                if block is None or block[1].version != block[2]:
                    try:
                        block = self._build_block(pc)
                    except SimFault as fault:
                        if fault.pc is None:
                            fault.pc = pc
                        if self.fault_hook is not None:
                            self.fault_hook(self, fault)
                        raise
                else:
                    hits += 1
                    if tracing:
                        c = hot.get(pc)
                        c = 1 if c is None else c + 1
                        hot[pc] = c
                        if (c >= threshold and pc not in tcache
                                and attempts.get(pc, 0) < _MAX_TRACE_ATTEMPTS):
                            executed = self._record_trace(pc, remaining)
                            retired += executed
                            remaining -= executed
                            continue
                executed = self._exec_block(block[0], remaining)
                retired += executed
                remaining -= executed
        finally:
            if retired:
                self.counters["superblock_instret"] += retired
            if hits:
                self.counters["block_cache_hits"] += hits
            if thits:
                self.counters["trace_cache_hits"] += thits
        raise SimulationLimitExceeded(max_instructions)

    def _build_block(self, pc: int) -> tuple[list, object, int, int, int]:
        """Decode the straight-line run starting at *pc* into a superblock.

        The block ends at the first control-flow instruction, at the
        segment edge, at an instruction the profile cannot execute, or
        at the op cap.  A decode failure past the entry just ends the
        block early: execution reaches that pc architecturally and the
        fault is raised from there with the exact :meth:`step` protocol.
        """
        seg = self.space.fetch_segment(pc)  # raises SegmentationFault(exec)
        version = seg.version
        seg_end = seg.end
        instruction_cost = self.cost.instruction_cost
        ops: list = []
        cur = pc
        while len(ops) < _MAX_BLOCK_OPS:
            try:
                instr, handler, _tag = self._decode_at(cur)
            except SimFault:
                if ops:
                    break  # fault raised when execution actually gets there
                raise
            nxt = cur + instr.length
            ops.append((cur, nxt, instr, handler,
                        instruction_cost(instr, taken=False),
                        instruction_cost(instr, taken=True)))
            if instr.mnemonic in _CTRL_MNEMONICS or handler is _unsupported:
                break
            cur = nxt
            if cur >= seg_end:
                break
        block = (ops, seg, version, pc, ops[-1][1])
        self._bcache[pc] = block
        return block

    def _exec_block(self, ops: list, limit: int) -> int:
        """Execute up to *limit* ops of one superblock; returns retired count.

        Mirrors :meth:`step` exactly on the fault path: pc restored to
        the faulting instruction, ``fault.pc`` filled, ``fault_hook``
        fired, and only retired ops counted toward instret/cycles.
        """
        if len(ops) > limit:
            ops = ops[:limit]
        executed = 0
        cycles = 0
        pc = self.pc
        try:
            for pc, nxt, instr, handler, cost, cost_taken in ops:
                self.pc = nxt
                if handler(self, instr):
                    cycles += cost_taken
                else:
                    cycles += cost
                executed += 1
                if self.pc != nxt:
                    break
        except SimFault as fault:
            self.pc = pc
            self._commit(executed, cycles, ops, count=True)
            if fault.pc is None:
                fault.pc = pc
            if self.fault_hook is not None:
                self.fault_hook(self, fault)
            raise
        except Exception:
            self.pc = pc
            self._commit(executed, cycles, ops, count=True)
            raise
        self._commit(executed, cycles, ops)
        return executed

    def _commit(self, executed: int, cycles: int, ops: list,
                count: bool = False) -> None:
        """Account a (possibly partial) superblock's retired ops.

        ``count=True`` (the fault paths) also settles the
        ``superblock_instret`` counter here, because :meth:`run` only
        sums the retired counts of blocks that return normally.
        """
        if not executed:
            return
        self.instret += executed
        self.cycles += cycles
        self.last_pc = ops[executed - 1][0]
        if count:
            self.counters["superblock_instret"] += executed

    # -- trace tier ----------------------------------------------------------

    def _record_trace(self, entry: int, budget: int) -> int:
        """Record a trace from hot *entry* by executing superblocks.

        The chain follows the branches actually taken right now: each
        block runs through :meth:`_exec_block` (so the recording pass is
        architecturally just normal execution — every op retires with
        the usual accounting), and the observed continuation pc becomes
        the guard value for the block's last op.  The chain closes when
        it returns to *entry* (a looping trace), revisits any interior
        block (an inner loop the trace must not unroll), or hits a size
        cap.  Recording aborts — leaving attempt accounting so the tier
        eventually gives up — when the chain faults, traps into a
        syscall, or runs out of instruction budget.

        Returns the number of instructions retired while recording.
        """
        attempts = self._trace_attempts
        attempts[entry] = attempts.get(entry, 0) + 1
        bcache = self._bcache
        flat: list = []
        ranges: list = []
        versions: list = []
        seen = {entry}
        total = 0
        loops = False
        pc = entry
        try:
            while (len(flat) < _MAX_TRACE_OPS
                   and len(ranges) < _MAX_TRACE_BLOCKS):
                block = bcache.get(pc)
                if block is None or block[1].version != block[2]:
                    try:
                        block = self._build_block(pc)
                    except SimFault as fault:
                        if fault.pc is None:
                            fault.pc = pc
                        if self.fault_hook is not None:
                            self.fault_hook(self, fault)
                        raise
                ops, seg, version, start, stop = block
                executed = self._exec_block(ops, budget - total)
                total += executed
                if executed < len(ops):
                    return total  # budget truncation: discard the recording
                next_pc = self.pc
                for opc, nxt, instr, handler, cost, cost_taken in ops[:-1]:
                    flat.append((opc, nxt, nxt, instr, handler,
                                 cost, cost_taken))
                opc, nxt, instr, handler, cost, cost_taken = ops[-1]
                flat.append((opc, nxt, next_pc, instr, handler,
                             cost, cost_taken))
                ranges.append([seg, version, start, stop])
                for v in versions:
                    if v[0] is seg:
                        break
                else:
                    versions.append([seg, version])
                if next_pc == entry:
                    loops = True
                    break
                if next_pc in seen:
                    break
                seen.add(next_pc)
                pc = next_pc
        except BaseException:
            # Counts of blocks that completed before the abort would be
            # lost (run() never sees our return value on a raise).
            if total:
                self.counters["superblock_instret"] += total
            raise
        if loops or len(ranges) >= 2:
            for seg, version, _s_, _e_ in ranges:
                if seg.version != version:
                    return total  # code changed mid-recording: discard
            self._tcache[entry] = _Trace(entry, flat, ranges, versions, loops)
            attempts.pop(entry, None)
            self.counters["traces_compiled"] += 1
        return total

    def _run_trace(self, trace: _Trace, limit: int) -> int:
        """Run whole passes of a compiled trace; returns retired count.

        Each pass retires ops exactly as :meth:`_exec_block` would, then
        checks the recorded continuation at every former branch: a
        mismatch is a guard side exit — the op has retired and ``pc``
        already points where execution really went, so the dispatcher
        just resumes there.  Looping traces replay without leaving this
        frame, revalidating segment versions at every loop edge so W|X
        stores keep bit-identical semantics with the block tier.

        The caller guarantees ``limit >= trace.n`` so at least one full
        pass fits; a shorter budget tail runs on the block tier instead.
        On a fault the pass function left the faulting op index in
        ``_trace_ex``; the recorded prefix cycle sums reconstruct the
        exact partial accounting.
        """
        fn = trace.fn
        n = trace.n
        pcs = trace.pcs
        loops = trace.loops
        versions = trace.versions
        executed = 0
        cycles = 0
        side = 0
        try:
            while True:
                e, c, diverged = fn(self)
                executed += e
                cycles += c
                if diverged:
                    side = 1
                    break
                if not loops or limit - executed < n:
                    break
                stale = False
                for s, v in versions:
                    if s.version != v:
                        stale = True
                        break
                if stale:
                    break
        except SimFault as fault:
            ex = self._trace_ex
            executed += ex
            cycles += trace.cyc[ex]
            self.pc = pcs[ex]
            self._commit_trace(executed, cycles, pcs, side)
            if fault.pc is None:
                fault.pc = pcs[ex]
            if self.fault_hook is not None:
                self.fault_hook(self, fault)
            raise
        except BaseException:
            ex = self._trace_ex
            executed += ex
            cycles += trace.cyc[ex]
            self.pc = pcs[ex]
            self._commit_trace(executed, cycles, pcs, side)
            raise
        self._commit_trace(executed, cycles, pcs, side)
        return executed

    def _commit_trace(self, executed: int, cycles: int,
                      pcs: tuple, side_exits: int) -> None:
        """Account a trace dispatch's retired ops (possibly many passes)."""
        if executed:
            self.instret += executed
            self.cycles += cycles
            self.last_pc = pcs[(executed - 1) % len(pcs)]
            self.counters["trace_instret"] += executed
        if side_exits:
            self.counters["trace_side_exits"] += side_exits


def _trace_load_slow(cpu: Cpu, cell: list, addr: int, size: int) -> int:
    """Inline-cache miss path for a trace load: full permission-checked
    read (faults propagate with the step protocol), then prime the op's
    segment cell so subsequent passes hit the fast path."""
    space = cpu.space
    raw = space.read(addr, size)
    seg = space.segment_at(addr)
    if seg is not None:
        cell[0] = seg.base
        cell[1] = seg.data
    return int.from_bytes(raw, "little")


def _trace_store_slow(cpu: Cpu, cell: list, addr: int, data: bytes) -> None:
    """Inline-cache miss path for a trace store: full permission-checked
    write — including the W|X ``seg.version`` bump — then prime the cell
    only for plain data segments, so stores into executable memory never
    bypass the self-modifying-code invalidation protocol."""
    space = cpu.space
    space.write(addr, data)
    seg = space.segment_at(addr)
    if seg is not None and Perm.X not in seg.perm:
        cell[0] = seg.base
        cell[1] = seg.data


#: Sign bit for the xor trick: (a ^ SB) < (b ^ SB) unsigned ⇔ a <s b.
_SB = 0x8000_0000_0000_0000


def _trace_vmem_prime(cpu: Cpu, cell: list, addr: int, write: bool) -> None:
    """Prime a vector memory op's segment cell after its element-by-element
    body completed.  The cell only takes a segment the bulk copy may use
    unchecked: readable for a load; writable and not executable for a
    store, so W|X version bumps are never bypassed.  The permissions are
    checked here because a body with vl = 0 accessed nothing."""
    seg = cpu.space.segment_at(addr)
    if seg is None:
        return
    if write:
        usable = Perm.W in seg.perm and Perm.X not in seg.perm
    else:
        usable = Perm.R in seg.perm
    if usable:
        cell[0] = seg.base
        cell[1] = seg.data


def _compile_trace(ops: list) -> tuple[Callable, tuple]:
    """Compile a trace's flat op list into one exec'd pass function.

    Instead of calling each op's bound closure, every op is inlined from
    its ``_SEMANTICS`` entry with literal operands, so constant folding
    leaves direct register-file expressions (``r[5] = (r[6] + 8) & M``);
    loads/stores get a per-op segment inline cache (bounds-checked slice
    access against the resolved segment's backing bytearray, miss/fault
    through the full permission-checked path), conditional branches
    compile to native ``if`` guards on their recorded direction, and
    direct jumps vanish entirely — the pc is only materialized at trace
    exits.  Vector bodies are inlined as they are; unit-stride vector
    loads/stores copy the whole vector as one slice through the same kind
    of inline cache when SEW equals their element width, and otherwise
    run the element-by-element body, whose permission-checked accesses
    define partial progress on a fault.  Cycle costs fold into
    compile-time prefix sums, sound because a trace's branch directions
    are statically recorded.

    A pass returns ``(retired, cycles, diverged)``.  Guard side exits
    set ``cpu.pc`` to wherever execution really went before returning.
    Faults escape with the faulting op's index in ``cpu._trace_ex``; the
    caller combines it with the returned prefix-cycle table to settle
    partial state exactly.
    """
    n = len(ops)
    head = ["def _make(LD, ST, VM):"]
    body = ["    def _pass(cpu, length=len, FB=int.from_bytes):",
            "        r = cpu.regs",
            "        ex = 0",
            "        try:"]
    H = head.append
    A = body.append
    E = "            "
    cyc = 0
    prefix = []
    for k, (pc, nxt, expected, instr, _handler, cost, cost_taken) in enumerate(ops):
        prefix.append(cyc)
        kind, expr, value, width = _INLINE[instr.mnemonic]
        rd = instr.rd or 0
        lit = {"rd": rd, "rs1": instr.rs1 or 0, "rs2": instr.rs2 or 0,
               "imm": instr.imm or 0, "addr": pc, "nxt": nxt,
               "vd": instr.vd or 0, "vs1": instr.vs1 or 0,
               "vs2": instr.vs2 or 0}
        if kind == "alu":
            if rd:
                A(f"{E}r[{rd}] = {_lit(expr, lit)}")
        elif kind in ("load", "store"):
            A(f"{E}a = {_lit(expr, lit)}")
            A(f"{E}o = a - C{k}[0]; d = C{k}[1]")
            A(f"{E}if d is not None and 0 <= o <= length(d) - {width}:")
            if kind == "load":
                A(f"{E}    v = FB(d[o:o + {width}], 'little')")
                A(f"{E}else:")
                A(f"{E}    ex = {k}")
                A(f"{E}    v = LD(cpu, C{k}, a, {width})")
                if rd:
                    A(f"{E}r[{rd}] = {value}")
            else:
                data = f"({_lit(value, lit)}).to_bytes({width}, 'little')"
                A(f"{E}    d[o:o + {width}] = {data}")
                A(f"{E}else:")
                A(f"{E}    ex = {k}")
                A(f"{E}    ST(cpu, C{k}, a, {data})")
            H(f"    C{k} = [0, None]")
        elif kind == "branch":
            cond = _lit(expr, lit)
            if expected != nxt:  # recorded taken: not-taken side-exits
                A(f"{E}if not ({cond}):")
                A(f"{E}    cpu.pc = {nxt}")
                A(f"{E}    return ({k + 1}, {cyc + cost}, True)")
                cyc += cost_taken
            else:  # recorded not-taken: taken side-exits
                A(f"{E}if {cond}:")
                A(f"{E}    cpu.pc = {_PCREL_INLINE.format_map(lit)}")
                A(f"{E}    return ({k + 1}, {cyc + cost_taken}, True)")
                cyc += cost
            continue
        elif kind == "jump":
            # A direct jump is followed statically: only the link
            # survives.  An indirect one guards its computed target.
            indirect = instr.mnemonic in _INDIRECT_JUMPS
            if indirect:
                A(f"{E}t = {_lit(expr, lit)}")
            if rd:
                A(f"{E}r[{rd}] = {nxt}")
            if indirect:
                cyc += cost
                A(f"{E}if t != {expected}:")
                A(f"{E}    cpu.pc = t")
                A(f"{E}    return ({k + 1}, {cyc}, True)")
                continue
        elif kind in ("vload", "vstore"):
            vreg = f"vu.regs[{lit['vd']}][0:nb]"
            A(f"{E}vu = cpu.vector")
            A(f"{E}a = {_lit('r[{rs1}]', lit)}")
            A(f"{E}nb = vu.vl * {width}")
            A(f"{E}o = a - C{k}[0]; d = C{k}[1]")
            A(f"{E}if vu.sew == {8 * width} and d is not None "
              f"and 0 <= o <= length(d) - nb:")
            if kind == "vload":
                A(f"{E}    {vreg} = d[o:o + nb]")
            else:
                A(f"{E}    d[o:o + nb] = {vreg}")
            A(f"{E}else:")
            A(f"{E}    ex = {k}")
            for line in _lit(expr, lit).splitlines():
                A(f"{E}    {line}")
            A(f"{E}    VM(cpu, C{k}, a, {kind == 'vstore'})")
            H(f"    C{k} = [0, None]")
        elif expr:  # a statement body: vector ops and traps
            A(f"{E}ex = {k}")
            for line in _lit(expr if rd else value, lit).splitlines():
                A(f"{E}{line}")
        cyc += cost
    if body[-1] == "        try:":
        # Every op was a pure-cost no-op (e.g. an all-nop trace): the
        # try block still needs a statement to be valid Python.
        A(f"{E}pass")
    A("        except BaseException:")
    A("            cpu._trace_ex = ex")
    A("            raise")
    A(f"        cpu.pc = {ops[-1][2]}")
    A(f"        return ({n}, {cyc}, False)")
    A("    return _pass")
    src = "\n".join(head + body)
    code = _TRACE_CODE_MEMO.get(src)
    if code is None:
        if len(_TRACE_CODE_MEMO) >= 512:
            _TRACE_CODE_MEMO.clear()
        code = compile(src, "<trace>", "exec")
        _TRACE_CODE_MEMO[src] = code
    ns = dict(_TEMPLATE_GLOBALS)
    exec(code, ns)  # noqa: S102 - trusted, self-generated
    return (ns["_make"](_trace_load_slow, _trace_store_slow,
                        _trace_vmem_prime),
            tuple(prefix))


#: Source → code-object memo for :func:`_compile_trace`.  Identical
#: guest code recorded in different kernels (benchmark rounds, pooled
#: workers, service re-runs) produces byte-identical generated source;
#: memoizing the *compile* step means each unique trace shape pays the
#: parse cost once per process.  Cell/handler state is still built fresh
#: per trace by calling ``_make``, so nothing architectural is shared.
_TRACE_CODE_MEMO: dict[str, object] = {}


# ---------------------------------------------------------------------------
# Instruction semantics.
#
# Every mnemonic, scalar and vector, has exactly one entry in
# ``_SEMANTICS``: a template over the symbolic operands ``rd``, ``rs1``,
# ``rs2``, ``imm``, ``addr`` (the instruction's own pc), ``nxt`` (its
# fall-through pc) and the vector registers ``vd``, ``vs1``, ``vs2``, with
# ``r`` standing for the register file and ``M``/``M32``/``MJ``/``SB``/
# ``S31`` for the constants in ``_TEMPLATE_CONSTS``.  Results are masked to
# 64 bits, so every register value stays in range and x0 (never written)
# reads as 0; the emitters, not the templates, drop writes to x0.
#
# Two emitters are generated from the table:
#
# * ``_BINDERS`` — one closure factory per entry, all compiled at import
#   with a single ``compile``.  The decode cache calls it once per decoded
#   pc to bind the operands; ``step()`` and the block tier both call the
#   bound closure ``op(cpu, instr)``, which returns True for a taken branch.
#   Groups written in braces, ``{...}``, read operands only (a branch
#   target, a ``lui`` constant, a ``vsetvli`` SEW) and are evaluated once,
#   at bind time.
# * ``_INLINE`` — format strings the trace compiler fills with literal
#   operands, so constant folding (braces become parentheses) leaves only
#   the register and memory work.
#
# Loads and stores take address, width and sign extension from the entry;
# each tier keeps its own access path: the permission-checked
# ``space.read``/``space.write`` for closures, a segment inline cache with
# that same path as its slow path for traces.  Vector entries are statement
# bodies over the vector unit ``vu``; a unit-stride vector load or store's
# body is its element-by-element access, which traces run whenever their
# bulk slice copy does not apply.
# ---------------------------------------------------------------------------

def _unsupported(cpu: Cpu, i: Instruction):
    raise IllegalInstructionFault(
        i.addr if i.addr is not None else cpu.pc,
        "unsupported-extension",
        f"{i.mnemonic} needs {i.extension.value}",
    )


def _nop(cpu: Cpu, _i: Instruction):
    return None


def _div(a: int, b: int) -> int:
    if b == 0:
        return _MASK64
    sa, sb = _s(a), _s(b)
    if sa == -(1 << 63) and sb == -1:
        return a
    q = abs(sa) // abs(sb)
    return to_unsigned64(-q if (sa < 0) != (sb < 0) else q)


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = _s(a), _s(b)
    if sa == -(1 << 63) and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return to_unsigned64(-r if sa < 0 else r)


def _divw(a: int, b: int) -> int:
    aw, bw = sign_extend(a & _MASK32, 32), sign_extend(b & _MASK32, 32)
    if bw == 0:
        return _MASK32
    if aw == -(1 << 31) and bw == -1:
        return a & _MASK32
    q = abs(aw) // abs(bw)
    return (-q if (aw < 0) != (bw < 0) else q) & _MASK32


def _remw(a: int, b: int) -> int:
    aw, bw = sign_extend(a & _MASK32, 32), sign_extend(b & _MASK32, 32)
    if bw == 0:
        return a & _MASK32
    if aw == -(1 << 31) and bw == -1:
        return 0
    r = abs(aw) % abs(bw)
    return (-r if aw < 0 else r) & _MASK32


class _Sem(NamedTuple):
    """One mnemonic's semantics.

    ``kind`` is ``alu`` (``expr`` is the value written to rd), ``load``/
    ``store`` (``expr`` is the effective address), ``branch`` (``expr`` is
    the taken condition; the target is ``_PCREL``), ``jump`` (``expr`` is
    the target; rd receives ``nxt``), ``trap`` (``expr`` is a raise
    statement), ``nop``, ``vector`` (``expr`` is a statement body; a line
    ``r[rd] = ...`` is its rd write) or ``vload``/``vstore`` (``expr`` is
    the element-by-element body of a unit-stride access of ``width``-byte
    elements).
    """

    kind: str
    expr: str = ""
    width: int = 0
    signed: bool = False


_TEMPLATE_CONSTS = {"M": _MASK64, "M32": _MASK32, "MJ": _MASK64 ^ 1,
                    "SB": _SB, "S31": 1 << 31}

#: Effective address of every load and store; target of every branch.
_ADDR = "(r[rs1] + imm) & M"
_PCREL = "{(addr + imm) & M}"


def _sx32(e: str) -> str:
    """Template: low 32 bits of *e*, sign-extended (a signed value)."""
    return f"(((({e}) & M32) ^ S31) - S31)"


def _w(e: str) -> str:
    """Template: a W-form result, *e* truncated to 32 bits and sign-extended."""
    return f"{_sx32(e)} & M"


def _k(e: str) -> str:
    """Template: *e* (over operands only) as a bind-time group."""
    return f"{{{e}}}"


def _alu(expr: str) -> _Sem:
    return _Sem("alu", expr)


def _branch(cond: str) -> _Sem:
    return _Sem("branch", cond)


def _load(width: int, signed: bool = True) -> _Sem:
    return _Sem("load", _ADDR, width, signed)


def _store(width: int) -> _Sem:
    return _Sem("store", _ADDR, width)


def _vector(*lines: str) -> _Sem:
    return _Sem("vector", "\n".join(lines))


#: Vector bodies open with the unit and the current SEW: ``w`` bytes per
#: element, ``mk`` its mask.  Element ``i`` of a register is the byte
#: slice ``[i:j]`` in loops over byte offsets.
_VU = "vu = cpu.vector"
_VSEW = "sew = vu.sew; w = sew >> 3; mk = (1 << sew) - 1"
_VELEM = {"a": "FB(s2[i:j], 'little')", "b": "FB(s1[i:j], 'little')",
          "d": "FB(dv[i:j], 'little')"}
_VELEM_RE = re.compile(r"\b([abd])\b")


def _velem(expr: str, b: str = "") -> _Sem:
    """Elementwise ``vd[i] = expr`` wrapped to SEW, over ``a`` (element
    of vs2), ``d`` (element of vd) and ``b``: element of vs1, or the
    scalar *b* (``r[rs1]`` for .vx, ``imm`` for .vi).  ``h`` is the
    SEW's sign bit, for signed compares and shifts."""
    body = [_VU, _VSEW]
    if re.search(r"\bh\b", expr):
        body.append("h = 1 << (sew - 1)")
    body.append("dv = vu.regs[vd]; s2 = vu.regs[vs2]"
                + ("" if b else "; s1 = vu.regs[vs1]"))
    if b:
        body.append(f"x = {b}")
    reads = dict(_VELEM, b="x") if b else _VELEM
    elem = _VELEM_RE.sub(lambda mt: reads[mt[1]], expr)
    return _vector(*body, "for i in range(0, vu.vl * w, w):",
                   "    j = i + w",
                   f"    dv[i:j] = (({elem}) & mk).to_bytes(w, 'little')")


def _vsplat(value: str) -> _Sem:
    """``vmv.v.*``: every active element of vd becomes *value*."""
    return _vector(_VU, _VSEW, "vu.regs[vd][0:vu.vl * w] = "
                   f"(({value}) & mk).to_bytes(w, 'little') * vu.vl")


def _vmem(kind: str, width: int) -> _Sem:
    """Unit-stride ``vle``/``vse`` of *width*-byte elements at ``r[rs1]``,
    one permission-checked access per element: elements before a faulting
    one have completed.  Register elements are SEW wide, so an element
    width other than SEW zero-extends (load) or truncates (store)."""
    if kind == "vload":
        step = (f"dv[i * w:i * w + w] = (FB(cpu.space.read(p + i * {width}, "
                f"{width}), 'little') & mk).to_bytes(w, 'little')")
    else:
        step = (f"cpu.space.write(p + i * {width}, (FB(dv[i * w:i * w + w], "
                f"'little') & {(1 << 8 * width) - 1}).to_bytes({width}, 'little'))")
    return _Sem(kind, "\n".join([_VU, _VSEW, "dv = vu.regs[vd]; p = r[rs1]",
                                  "for i in range(vu.vl):", "    " + step]), width)


def _illegal_vtype(addr: int, vtype: int):
    raise IllegalInstructionFault(addr, "unknown", f"unsupported vtype {vtype:#x}")


#: SEW of a ``vsetvli`` vtype, a bind-time group.  The vector unit has
#: e32 and e64, vsew (vtype bits 5:3) 0b010 and 0b011: vtype bits 5:4 are
#: 0b01.  Any other vsew is an illegal instruction when the pc is bound;
#: in a trace the group folds to its constant.
_VTYPE_SEW = "{ILLEGAL_VTYPE(addr, imm) if (imm & 0x30) ^ 0x10 else 8 << ((imm >> 3) & 7)}"


_SEMANTICS: dict[str, _Sem] = {
    "lui": _alu(_k(_w("imm << 12"))),
    "auipc": _alu(_k(f"(addr + {_sx32('imm << 12')}) & M")),
    "jal": _Sem("jump", _PCREL),
    "jalr": _Sem("jump", "(r[rs1] + imm) & MJ"),
    "beq": _branch("r[rs1] == r[rs2]"),
    "bne": _branch("r[rs1] != r[rs2]"),
    "blt": _branch("(r[rs1] ^ SB) < (r[rs2] ^ SB)"),
    "bge": _branch("(r[rs1] ^ SB) >= (r[rs2] ^ SB)"),
    "bltu": _branch("r[rs1] < r[rs2]"),
    "bgeu": _branch("r[rs1] >= r[rs2]"),
    "lb": _load(1), "lh": _load(2), "lw": _load(4), "ld": _load(8),
    "lbu": _load(1, False), "lhu": _load(2, False), "lwu": _load(4, False),
    "sb": _store(1), "sh": _store(2), "sw": _store(4), "sd": _store(8),
    "addi": _alu("(r[rs1] + imm) & M"),
    "addiw": _alu(_w("r[rs1] + imm")),
    "slti": _alu("1 if (r[rs1] ^ SB) < {(imm & M) ^ SB} else 0"),
    "sltiu": _alu("1 if r[rs1] < {imm & M} else 0"),
    "xori": _alu("r[rs1] ^ {imm & M}"),
    "ori": _alu("r[rs1] | {imm & M}"),
    "andi": _alu("r[rs1] & {imm & M}"),
    "slli": _alu("(r[rs1] << imm) & M"),
    "srli": _alu("r[rs1] >> imm"),
    "srai": _alu("(((r[rs1] ^ SB) - SB) >> imm) & M"),
    "slliw": _alu(_w("r[rs1] << imm")),
    "srliw": _alu(_w("(r[rs1] & M32) >> imm")),
    "sraiw": _alu(f"({_sx32('r[rs1]')} >> imm) & M"),
    "add": _alu("(r[rs1] + r[rs2]) & M"),
    "sub": _alu("(r[rs1] - r[rs2]) & M"),
    "sll": _alu("(r[rs1] << (r[rs2] & 63)) & M"),
    "slt": _alu("1 if (r[rs1] ^ SB) < (r[rs2] ^ SB) else 0"),
    "sltu": _alu("1 if r[rs1] < r[rs2] else 0"),
    "xor": _alu("r[rs1] ^ r[rs2]"),
    "srl": _alu("r[rs1] >> (r[rs2] & 63)"),
    "sra": _alu("(((r[rs1] ^ SB) - SB) >> (r[rs2] & 63)) & M"),
    "or": _alu("r[rs1] | r[rs2]"),
    "and": _alu("r[rs1] & r[rs2]"),
    "addw": _alu(_w("r[rs1] + r[rs2]")),
    "subw": _alu(_w("r[rs1] - r[rs2]")),
    "sllw": _alu(_w("r[rs1] << (r[rs2] & 31)")),
    "srlw": _alu(_w("(r[rs1] & M32) >> (r[rs2] & 31)")),
    "sraw": _alu(f"({_sx32('r[rs1]')} >> (r[rs2] & 31)) & M"),
    "mul": _alu("(r[rs1] * r[rs2]) & M"),
    "mulh": _alu("((((r[rs1] ^ SB) - SB) * ((r[rs2] ^ SB) - SB)) >> 64) & M"),
    "mulhsu": _alu("((((r[rs1] ^ SB) - SB) * r[rs2]) >> 64) & M"),
    "mulhu": _alu("(r[rs1] * r[rs2]) >> 64"),
    "div": _alu("_div(r[rs1], r[rs2])"),
    "divu": _alu("r[rs1] // r[rs2] if r[rs2] else M"),
    "rem": _alu("_rem(r[rs1], r[rs2])"),
    "remu": _alu("r[rs1] % r[rs2] if r[rs2] else r[rs1]"),
    "mulw": _alu(_w("r[rs1] * r[rs2]")),
    "divw": _alu(_w("_divw(r[rs1], r[rs2])")),
    "divuw": _alu(_w("(r[rs1] & M32) // (r[rs2] & M32) if r[rs2] & M32 else M32")),
    "remw": _alu(_w("_remw(r[rs1], r[rs2])")),
    "remuw": _alu(_w("(r[rs1] & M32) % (r[rs2] & M32) if r[rs2] & M32 else r[rs1]")),
    "sh1add": _alu("((r[rs1] << 1) + r[rs2]) & M"),
    "sh2add": _alu("((r[rs1] << 2) + r[rs2]) & M"),
    "sh3add": _alu("((r[rs1] << 3) + r[rs2]) & M"),
    "ecall": _Sem("trap", "raise EcallTrap(addr)"),
    "ebreak": _Sem("trap", "raise BreakpointTrap(addr, compressed={nxt - addr == 2})"),
    "fence": _Sem("nop"),
    "c.li": _alu("{imm & M}"),
    "c.lui": _alu("{((((imm & 63) << 12) ^ 131072) - 131072) & M}"),
    "c.mv": _alu("r[rs2]"),
    "c.beqz": _branch("r[rs1] == 0"),
    "c.bnez": _branch("r[rs1] != 0"),
    # AVL is ~0 (so vl = VLMAX) when rs1 is x0.
    "vsetvli": _vector(_VU, f"sew = {_VTYPE_SEW}", "vl = vu.vlen // sew",
                       "a = r[rs1] if rs1 else M",
                       "vu.sew = sew; vu.vl = a if a < vl else vl",
                       "r[rd] = vu.vl"),
    "vle32.v": _vmem("vload", 4), "vle64.v": _vmem("vload", 8),
    "vse32.v": _vmem("vstore", 4), "vse64.v": _vmem("vstore", 8),
    "vadd.vv": _velem("a + b"), "vadd.vx": _velem("a + b", "r[rs1]"),
    "vadd.vi": _velem("a + b", "imm"),
    "vsub.vv": _velem("a - b"), "vsub.vx": _velem("a - b", "r[rs1]"),
    "vmul.vv": _velem("a * b"), "vmul.vx": _velem("a * b", "r[rs1]"),
    "vand.vv": _velem("a & b"), "vor.vv": _velem("a | b"),
    "vxor.vv": _velem("a ^ b"),
    "vmin.vv": _velem("a if (a ^ h) <= (b ^ h) else b"),
    "vmax.vv": _velem("a if (a ^ h) >= (b ^ h) else b"),
    "vminu.vv": _velem("a if a <= b else b"),
    "vmaxu.vv": _velem("a if a >= b else b"),
    "vsll.vv": _velem("a << (b & (sew - 1))"),
    "vsll.vx": _velem("a << (b & (sew - 1))", "r[rs1]"),
    "vsrl.vv": _velem("a >> (b & (sew - 1))"),
    "vsrl.vx": _velem("a >> (b & (sew - 1))", "r[rs1]"),
    "vsra.vv": _velem("((a ^ h) - h) >> (b & (sew - 1))"),
    "vsra.vx": _velem("((a ^ h) - h) >> (b & (sew - 1))", "r[rs1]"),
    "vmacc.vv": _velem("d + b * a"),
    "vmv.v.x": _vsplat("r[rs1]"),
    "vmv.v.i": _vsplat("imm"),
    "vmv.x.s": _alu("FB(cpu.vector.regs[vs2][0:cpu.vector.sew >> 3], 'little', "
                    "signed=True) & M"),
    "vredsum.vs": _vector(
        _VU, _VSEW, "s2 = vu.regs[vs2]; t = FB(vu.regs[vs1][0:w], 'little')",
        "for i in range(0, vu.vl * w, w):", "    t += FB(s2[i:i + w], 'little')",
        "vu.regs[vd][0:w] = (t & mk).to_bytes(w, 'little')"),
}

#: Compressed forms that share a base entry: the decoder fills their
#: implicit operands (rs1 = rd, sp as base, ra as link, x0 when absent).
for _c, _base in {
    "c.nop": "fence", "c.ebreak": "ebreak",
    "c.addi": "addi", "c.addi4spn": "addi", "c.addi16sp": "addi",
    "c.addiw": "addiw", "c.slli": "slli", "c.srli": "srli", "c.srai": "srai",
    "c.andi": "andi", "c.add": "add", "c.sub": "sub", "c.xor": "xor",
    "c.or": "or", "c.and": "and", "c.subw": "subw", "c.addw": "addw",
    "c.j": "jal", "c.jr": "jalr", "c.jalr": "jalr",
    "c.lw": "lw", "c.ld": "ld", "c.lwsp": "lw", "c.ldsp": "ld",
    "c.sw": "sw", "c.sd": "sd", "c.swsp": "sw", "c.sdsp": "sd",
}.items():
    _SEMANTICS[_c] = _SEMANTICS[_base]

_OPERANDS = ("rd", "rs1", "rs2", "imm", "addr", "nxt", "vd", "vs1", "vs2")
_OPERAND_RE = re.compile(r"\b(" + "|".join(_OPERANDS) + r")\b")
_CONST_RE = re.compile(r"\b(" + "|".join(_TEMPLATE_CONSTS) + r")\b")
#: Names a closure binds as defaults: operands and bind-time groups.
_BOUND_RE = re.compile(r"\b(?:" + "|".join(_OPERANDS) + r"|k\d+)\b")
#: A bind-time group: ``{expr}`` over operands and constants only.
_LET_RE = re.compile(r"\{([^{}]*)\}")


def _consts(text: str) -> str:
    return _CONST_RE.sub(lambda mt: str(_TEMPLATE_CONSTS[mt[1]]), text)


def _load_value(width: int, signed: bool) -> str:
    """Template: the loaded little-endian bytes ``v`` as a register value."""
    bits = 8 * width
    if not signed or bits == 64:
        return "v"
    return f"v | {_MASK64 ^ ((1 << bits) - 1)} if v & {1 << (bits - 1)} else v"


def _store_value(width: int) -> str:
    return "r[rs2]" if width == 8 else f"r[rs2] & {(1 << 8 * width) - 1}"


def _closure_body(sem: _Sem, rd_live: bool) -> list[str]:
    """Statements of a bound closure; *rd_live* is False when rd is x0."""
    kind, expr, width, signed = sem
    if kind == "alu":
        return [f"r[rd] = {expr}"] if rd_live else []
    if kind == "load":
        read = f"cpu.space.read({expr}, {width})"
        if not rd_live:
            return [read]  # the access still happens, and may fault
        return [f"v = FB({read}, 'little')",
                f"r[rd] = {_load_value(width, signed)}"]
    if kind == "store":
        return [f"cpu.space.write({expr}, "
                f"({_store_value(width)}).to_bytes({width}, 'little'))"]
    if kind == "branch":
        return [f"if {expr}:", f"    cpu.pc = {_PCREL}", "    return True",
                "return False"]
    if kind == "jump":
        return [f"t = {expr}", *(["r[rd] = nxt"] if rd_live else []),
                "cpu.pc = t"]
    lines = expr.splitlines()
    return lines if rd_live else [ln for ln in lines if not ln.startswith("r[rd] =")]


def _op_def(body: list[str], pad: str) -> list[str]:
    text = "\n".join(body)
    params = "".join(f", {n}={n}" for n in sorted(set(_BOUND_RE.findall(text))))
    lines = [f"def op(cpu, _i{params}):"]
    if "r[" in text:
        lines.append("    r = cpu.regs")
    lines += ["    " + line for line in text.splitlines()]
    return [pad + line for line in lines]


def _factory_source(name: str, sem: _Sem) -> str:
    """Source of ``name(rd, rs1, rs2, imm, addr, nxt) -> op``."""
    lets: dict[str, str] = {}

    def hoist(mt):
        return lets.setdefault(mt[1], f"k{len(lets)}")

    live, dead = (_LET_RE.sub(hoist, _consts("\n".join(body))).splitlines()
                  for body in (_closure_body(sem, True), _closure_body(sem, False)))
    out = [f"def {name}({', '.join(_OPERANDS)}):"]
    out += [f"    {k} = {src}" for src, k in lets.items()]
    if not live:
        out.append("    return NOP")
    elif live == dead:
        out += _op_def(live, "    ") + ["    return op"]
    else:
        out += ["    if rd:"] + _op_def(live, "        ") + ["        return op"]
        out += _op_def(dead, "    ") + ["    return op"] if dead else ["    return NOP"]
    return "\n".join(out)


def _emit_binders() -> dict[str, Callable]:
    """Compile one closure factory per distinct entry, in one module."""
    names: dict[_Sem, str] = {}
    for sem in _SEMANTICS.values():
        names.setdefault(sem, f"_bind{len(names)}")
    src = "\n\n".join(_factory_source(n, sem) for sem, n in names.items())
    ns = dict(_TEMPLATE_GLOBALS)
    exec(compile(src, "<semantics>", "exec"), ns)  # noqa: S102 - self-generated
    return {m: ns[names[sem]] for m, sem in _SEMANTICS.items()}


def _inline_format(template: str) -> str:
    """*template* as a format string over the operands, its bind-time
    groups left to the compiler's constant folding."""
    text = _consts(template.replace("{", "(").replace("}", ")"))
    return _OPERAND_RE.sub(r"{\1}", text)


def _inline_template(sem: _Sem) -> tuple[str, str, str, int]:
    """``(kind, expr, value, width)`` with operands as format fields;
    ``value`` is the loaded value (over ``v``) or the stored one.  For a
    statement body, ``expr`` is the body and ``value`` the body without
    its rd write, used when rd is x0."""
    kind, expr, width, signed = sem
    if kind in ("load", "store"):
        value = (_load_value(width, signed) if kind == "load"
                 else _store_value(width))
        return kind, _inline_format(expr), _inline_format(value), width
    if kind in ("alu", "branch", "jump"):
        return kind, _inline_format(expr), "", width
    live, dead = ("\n".join(_closure_body(sem, rd_live)) for rd_live in (True, False))
    return kind, _inline_format(live), _inline_format(dead), width


#: A whole expression that adds a zero offset to a register, then masks.
_ZERO_OFFSET_RE = re.compile(r"\(r\[(\d+)\] \+ 0\) & (\d+)")


def _lit(template: str, operands: dict) -> str:
    """*template* filled with literal operands, simplified where constant
    folding cannot: x0 reads as 0, and a zero offset from a register
    (whose value is already masked) leaves just the register and mask."""
    src = template.format_map(operands)
    if "r[0]" in src:
        src = src.replace("r[0]", "0")
    zero = _ZERO_OFFSET_RE.fullmatch(src)
    if zero is not None:
        reg, mask = zero.groups()
        src = f"r[{reg}]" if int(mask) == _MASK64 else f"r[{reg}] & {mask}"
    return src


#: Names templates may call, bound in both emitters' generated code.
_TEMPLATE_GLOBALS = {"FB": int.from_bytes, "NOP": _nop, "EcallTrap": EcallTrap,
                     "BreakpointTrap": BreakpointTrap, "_div": _div,
                     "_rem": _rem, "_divw": _divw, "_remw": _remw,
                     "ILLEGAL_VTYPE": _illegal_vtype}

_BINDERS = _emit_binders()
_INLINE = {m: _inline_template(sem) for m, sem in _SEMANTICS.items()}
_PCREL_INLINE = _inline_format(_PCREL)

