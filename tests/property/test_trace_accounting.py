"""Property test: block- and trace-tier accounting versus pure ``step()``.

Hypothesis generates small branchy loop programs over every
register-register, register-immediate and W-form mnemonic the assembler
accepts (data-dependent branches force guard side exits; optional
vector episodes load, apply one elementwise, move or reduction op, and
store, at e32 or e64) and runs each
one three ways — pure interpreter, block tier, trace tier — both to
completion and under a budget that expires mid-trace.  Registers, pc,
instret, cycles, and the data segment must match exactly in every mode:
a guard side exit or budget cut mid-block never double- or under-counts
retired instructions.

Deterministic replay: seeded from ``REPRO_FUZZ_SEED`` like the
differential fuzzer (see ``conftest.py`` here).
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.assembler import _RRI, _RRR, _VVV, _VVX
from repro.isa.extensions import RV64GCV
from repro.sim.faults import SimFault, SimulationLimitExceeded
from repro.sim.machine import Core, Kernel

RR_OPS = tuple(sorted(_RRR))
IMM_OPS = tuple(sorted(_RRI))
SHIFT_BITS = {"slli": 6, "srli": 6, "srai": 6, "slliw": 5, "srliw": 5, "sraiw": 5}
REGS = ("a2", "a3", "a4", "a5", "t3", "t4")
#: Every elementwise, move and reduction vector mnemonic.
V_OPS = tuple(sorted(_VVV | _VVX | {"vadd.vi", "vmv.v.x", "vmv.v.i", "vmv.x.s"}))


@st.composite
def scalar_stmt(draw):
    dst, a, b = (draw(st.sampled_from(REGS)) for _ in range(3))
    if draw(st.booleans()):
        return f"    {draw(st.sampled_from(RR_OPS))} {dst}, {a}, {b}"
    op = draw(st.sampled_from(IMM_OPS))
    bits = SHIFT_BITS.get(op)
    imm = draw(st.integers(min_value=0, max_value=(1 << bits) - 1) if bits
               else st.integers(min_value=-2048, max_value=2047))
    return f"    {op} {dst}, {a}, {imm}"


@st.composite
def mem_stmt(draw):
    reg = draw(st.sampled_from(REGS))
    off = draw(st.integers(min_value=0, max_value=15)) * 8
    mnem = draw(st.sampled_from(("sd", "ld", "sw", "lw")))
    return f"    {mnem} {reg}, {off}(s0)"


@st.composite
def vector_stmt(draw):
    op = draw(st.sampled_from(V_OPS))
    if op in _VVV:  # elementwise .vv, vmacc.vv, vredsum.vs
        return f"{op} v2, v1, {draw(st.sampled_from(('v1', 'v2')))}"
    if op in _VVX:
        return f"{op} v2, v1, {draw(st.sampled_from(REGS))}"
    if op == "vmv.x.s":
        return f"vmv.x.s {draw(st.sampled_from(REGS))}, v1"
    if op == "vmv.v.x":
        return f"vmv.v.x v2, {draw(st.sampled_from(REGS))}"
    imm = draw(st.integers(min_value=-16, max_value=15))
    return f"vadd.vi v2, v1, {imm}" if op == "vadd.vi" else f"vmv.v.i v2, {imm}"


@st.composite
def vector_episode(draw):
    sew = draw(st.sampled_from((32, 64)))
    avl = draw(st.integers(min_value=1, max_value=8))
    voff = draw(st.integers(min_value=0, max_value=3)) * 64
    return "\n".join([
        f"    li t0, {avl}",
        f"    vsetvli t0, t0, e{sew}",
        f"    addi t1, s1, {voff}",
        f"    vle{sew}.v v1, (t1)",
        f"    {draw(vector_stmt())}",
        f"    vse{sew}.v v2, (t1)",
    ])


@st.composite
def program(draw):
    iterations = draw(st.integers(min_value=6, max_value=24))
    mask = draw(st.sampled_from((1, 3)))
    stmts = draw(st.lists(st.one_of(scalar_stmt(), mem_stmt()),
                          min_size=1, max_size=5))
    if draw(st.booleans()):
        stmts.append(draw(vector_episode()))
    body = "\n".join(stmts)
    return f"""
_start:
    li s0, {{buf}}
    li s1, {{vbuf}}
    li s2, {iterations}
    li a2, 3
    li a3, 5
    li a4, 7
    li a5, 11
top:
{body}
    andi t2, s2, {mask}
    beqz t2, even
    add a2, a2, a3
    j join
even:
    add a3, a3, a5
join:
    addi s2, s2, -1
    bnez s2, top
    li t0, {{out}}
    sd a2, 0(t0)
    sd a3, 8(t0)
    li a7, 93
    li a0, 0
    ecall
"""


def build(text: str):
    b = ProgramBuilder("trace-fuzz")
    b.add_words("buf", [(i * 2654435761) % (1 << 62) for i in range(16)])
    b.add_words("vbuf", [(i * 40503) % (1 << 60) for i in range(32)])
    b.add_words("out", [0] * 2)
    b.set_text(text)
    return b.build()


def _run_cpu(binary, *, budget, block_cache=True, trace_cache=True):
    kernel = Kernel(block_cache=block_cache, trace_cache=trace_cache,
                    trace_threshold=1)
    process = make_process(binary)
    cpu = kernel.make_cpu(process, Core(0, RV64GCV))
    try:
        cpu.run(max_instructions=budget)
    except (SimFault, SimulationLimitExceeded):
        pass
    data = bytes(process.space.segment_at(binary.data.addr).data)
    return cpu, data


def _state(cpu, data):
    return (cpu.instret, cpu.cycles, cpu.pc, tuple(cpu.regs),
            cpu.vector.snapshot()["regs"], data)


FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))

FUZZ_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestTraceAccounting:
    @seed(FUZZ_SEED)
    @given(text=program())
    @FUZZ_SETTINGS
    def test_full_run_matches_pure_step(self, text):
        binary = build(text)
        step, step_data = _run_cpu(binary, budget=1_000_000,
                                   block_cache=False)
        block, block_data = _run_cpu(build(text), budget=1_000_000,
                                     trace_cache=False)
        traced, traced_data = _run_cpu(build(text), budget=1_000_000)
        expected = _state(step, step_data)
        assert _state(block, block_data) == expected, \
            f"block tier diverged:\n{text}"
        assert _state(traced, traced_data) == expected, \
            f"trace tier diverged:\n{text}"
        assert traced.counters.get("trace_instret", 0) > 0

    @seed(FUZZ_SEED)
    @given(text=program(), budget=st.integers(min_value=5, max_value=300))
    @FUZZ_SETTINGS
    def test_budget_cut_matches_pure_step(self, text, budget):
        """A budget expiring mid-trace (or mid-block) must leave the
        exact architectural state pure stepping reaches at the same
        instruction count."""
        binary = build(text)
        step, step_data = _run_cpu(binary, budget=budget, block_cache=False)
        block, block_data = _run_cpu(build(text), budget=budget,
                                     trace_cache=False)
        traced, traced_data = _run_cpu(build(text), budget=budget)
        expected = _state(step, step_data)
        assert _state(block, block_data) == expected, \
            f"budget={budget} diverged on the block tier:\n{text}"
        assert _state(traced, traced_data) == expected, \
            f"budget={budget} diverged on the trace tier:\n{text}"
