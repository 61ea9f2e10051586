"""Interpreter semantics: each instruction class against a Python model."""

from typing import Callable, NamedTuple, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.elf.binary import Perm
from repro.isa.assembler import assemble
from repro.isa.extensions import RV64GC, RV64GCV
from repro.isa.fields import sign_extend
from repro.sim.cpu import Cpu
from repro.sim.faults import (
    BreakpointTrap,
    EcallTrap,
    IllegalInstructionFault,
    SegmentationFault,
    SimFault,
)
from repro.sim.memory import AddressSpace

U64 = st.integers(min_value=0, max_value=2**64 - 1)
MASK = 2**64 - 1


def make_cpu(asm: str, *, profile=RV64GCV, data_size=4096) -> Cpu:
    p = assemble(asm + "\nebreak\n", base=0x1000)
    space = AddressSpace()
    space.map(".text", 0x1000, bytearray(p.code), Perm.RX)
    space.map(".data", 0x8000, data_size, Perm.RW)
    cpu = Cpu(space, profile)
    cpu.pc = 0x1000
    return cpu


def run_to_break(cpu: Cpu, limit: int = 10_000) -> Cpu:
    try:
        for _ in range(limit):
            cpu.step()
        raise AssertionError("program did not reach ebreak")
    except BreakpointTrap:
        return cpu


def _s(v):
    return v - 2**64 if v >> 63 else v


class TestIntegerALU:
    @given(U64, U64)
    @settings(max_examples=30)
    def test_add_sub(self, a, b):
        cpu = make_cpu("add a2, a0, a1\nsub a3, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == (a + b) & MASK
        assert cpu.get_reg(13) == (a - b) & MASK

    @given(U64, U64)
    @settings(max_examples=30)
    def test_logic(self, a, b):
        cpu = make_cpu("and a2, a0, a1\nor a3, a0, a1\nxor a4, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == a & b
        assert cpu.get_reg(13) == a | b
        assert cpu.get_reg(14) == a ^ b

    @given(U64, st.integers(min_value=0, max_value=63))
    @settings(max_examples=30)
    def test_shifts(self, a, sh):
        cpu = make_cpu(f"slli a2, a0, {sh}\nsrli a3, a0, {sh}\nsrai a4, a0, {sh}")
        cpu.set_reg(10, a)
        run_to_break(cpu)
        assert cpu.get_reg(12) == (a << sh) & MASK
        assert cpu.get_reg(13) == a >> sh
        assert cpu.get_reg(14) == (_s(a) >> sh) & MASK

    @given(U64, U64)
    @settings(max_examples=30)
    def test_slt(self, a, b):
        cpu = make_cpu("slt a2, a0, a1\nsltu a3, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == (1 if _s(a) < _s(b) else 0)
        assert cpu.get_reg(13) == (1 if a < b else 0)

    @given(U64, U64)
    @settings(max_examples=30)
    def test_word_ops_sign_extend(self, a, b):
        cpu = make_cpu("addw a2, a0, a1\nsubw a3, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == sign_extend((a + b) & 0xFFFFFFFF, 32) & MASK
        assert cpu.get_reg(13) == sign_extend((a - b) & 0xFFFFFFFF, 32) & MASK

    def test_x0_is_hardwired(self):
        cpu = make_cpu("addi zero, zero, 5\nadd a0, zero, zero")
        run_to_break(cpu)
        assert cpu.get_reg(0) == 0
        assert cpu.get_reg(10) == 0


class TestMulDiv:
    @given(U64, U64)
    @settings(max_examples=30)
    def test_mul_and_high_parts(self, a, b):
        cpu = make_cpu("mul a2, a0, a1\nmulhu a3, a0, a1\nmulh a4, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == (a * b) & MASK
        assert cpu.get_reg(13) == (a * b) >> 64
        assert cpu.get_reg(14) == ((_s(a) * _s(b)) >> 64) & MASK

    @given(U64, U64)
    @settings(max_examples=30)
    def test_div_rem_signed(self, a, b):
        cpu = make_cpu("div a2, a0, a1\nrem a3, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        sa, sb = _s(a), _s(b)
        if sb == 0:
            assert cpu.get_reg(12) == MASK
            assert cpu.get_reg(13) == a
        elif sa == -(2**63) and sb == -1:
            assert cpu.get_reg(12) == a
            assert cpu.get_reg(13) == 0
        else:
            q = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                q = -q
            r = sa - sb * q
            assert cpu.get_reg(12) == q & MASK
            assert cpu.get_reg(13) == r & MASK

    def test_divu_by_zero(self):
        cpu = make_cpu("divu a2, a0, a1\nremu a3, a0, a1")
        cpu.set_reg(10, 77)
        run_to_break(cpu)
        assert cpu.get_reg(12) == MASK
        assert cpu.get_reg(13) == 77


class TestZba:
    @given(U64, U64)
    @settings(max_examples=20)
    def test_shadd(self, a, b):
        cpu = make_cpu("sh1add a2, a0, a1\nsh2add a3, a0, a1\nsh3add a4, a0, a1")
        cpu.set_reg(10, a)
        cpu.set_reg(11, b)
        run_to_break(cpu)
        assert cpu.get_reg(12) == ((a << 1) + b) & MASK
        assert cpu.get_reg(13) == ((a << 2) + b) & MASK
        assert cpu.get_reg(14) == ((a << 3) + b) & MASK


class TestMemory:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    @settings(max_examples=20)
    def test_store_load_widths(self, value):
        cpu = make_cpu(
            "li t0, 0x8000\n"
            "sw a0, 0(t0)\nlw a1, 0(t0)\nlwu a2, 0(t0)\n"
            "sd a0, 8(t0)\nld a3, 8(t0)\n"
        )
        cpu.set_reg(10, value & MASK)
        run_to_break(cpu)
        assert cpu.get_reg(11) == sign_extend(value & 0xFFFFFFFF, 32) & MASK
        assert cpu.get_reg(12) == value & 0xFFFFFFFF
        assert cpu.get_reg(13) == value & MASK

    def test_byte_halfword(self):
        cpu = make_cpu(
            "li t0, 0x8000\nli a0, 0x1FF\n"
            "sb a0, 0(t0)\nlb a1, 0(t0)\nlbu a2, 0(t0)\n"
            "sh a0, 2(t0)\nlh a3, 2(t0)\nlhu a4, 2(t0)\n"
        )
        run_to_break(cpu)
        assert cpu.get_reg(11) == MASK  # 0xFF sign-extends to -1
        assert cpu.get_reg(12) == 0xFF
        assert cpu.get_reg(13) == 0x1FF
        assert cpu.get_reg(14) == 0x1FF


class TestControlFlow:
    def test_branch_taken_and_not(self):
        cpu = make_cpu(
            "li a0, 1\nbeqz a0, bad\nli a1, 7\nj out\nbad:\nli a1, 9\nout:\n"
        )
        run_to_break(cpu)
        assert cpu.get_reg(11) == 7

    def test_jal_links(self):
        cpu = make_cpu("jal a0, next\nnext:\n")
        run_to_break(cpu)
        assert cpu.get_reg(10) == 0x1004

    def test_jalr_clears_low_bit(self):
        # li expands to 8 bytes, so the jalr sits at 0x1008 and the next
        # instruction at 0x100c; target 0x100d clears its low bit.
        cpu = make_cpu("li t0, 0x100d\njalr a0, 0(t0)\nnop\nnop\n")
        run_to_break(cpu)
        assert cpu.get_reg(10) == 0x100c  # link = jalr addr + 4

    def test_fault_leaves_pc_on_faulting_instruction(self):
        cpu = make_cpu("li t0, 0x8000\njr t0\n")
        with pytest.raises(SegmentationFault) as exc:
            run_to_break(cpu)
        assert exc.value.access == "exec"
        assert cpu.pc == 0x8000


class TestExtensionGating:
    def test_vector_on_base_core_faults(self):
        cpu = make_cpu("vsetvli t0, a0, e64", profile=RV64GC)
        with pytest.raises(IllegalInstructionFault) as exc:
            run_to_break(cpu)
        assert exc.value.kind == "unsupported-extension"

    def test_zba_on_base_core_faults(self):
        cpu = make_cpu("sh1add a0, a1, a2", profile=RV64GC)
        with pytest.raises(IllegalInstructionFault) as exc:
            run_to_break(cpu)
        assert exc.value.kind == "unsupported-extension"

    def test_ecall_raises_with_pc(self):
        cpu = make_cpu("nop\necall")
        with pytest.raises(EcallTrap) as exc:
            run_to_break(cpu)
        assert exc.value.pc == 0x1004


class TestVectorSemantics:
    def test_strip_mine_vl(self):
        cpu = make_cpu("li a0, 9\nvsetvli t0, a0, e64")
        run_to_break(cpu)
        assert cpu.get_reg(5) == 4  # VLEN=256, SEW=64 -> VLMAX=4

    def test_vsetvli_rs1_x0_gives_vlmax(self):
        cpu = make_cpu("vsetvli t0, zero, e32")
        run_to_break(cpu)
        assert cpu.get_reg(5) == 8

    def test_vector_load_compute_store(self):
        cpu = make_cpu(
            "li t0, 0x8000\nli a0, 4\n"
            "vsetvli a1, a0, e64\n"
            "li a2, 3\nsd a2, 0(t0)\nli a2, 5\nsd a2, 8(t0)\n"
            "li a2, 7\nsd a2, 16(t0)\nli a2, 11\nsd a2, 24(t0)\n"
            "vle64.v v1, (t0)\n"
            "vmul.vv v2, v1, v1\n"
            "li t1, 0x8100\nvse64.v v2, (t1)\n"
        )
        run_to_break(cpu)
        got = [cpu.space.read_u64(0x8100 + 8 * i) for i in range(4)]
        assert got == [9, 25, 49, 121]

    def test_vmacc_accumulates(self):
        cpu = make_cpu(
            "li a0, 2\nvsetvli t0, a0, e64\n"
            "li a1, 3\nvmv.v.x v1, a1\n"
            "li a1, 4\nvmv.v.x v2, a1\n"
            "vmv.v.i v3, 1\n"
            "vmacc.vv v3, v1, v2\n"
        )
        run_to_break(cpu)
        assert cpu.vector.read_elems(3, 2) == [13, 13]

    def test_vredsum(self):
        cpu = make_cpu(
            "li a0, 4\nvsetvli t0, a0, e64\n"
            "vmv.v.i v1, 5\nvmv.v.i v2, 2\n"
            "vredsum.vs v3, v1, v2\n"
        )
        run_to_break(cpu)
        assert cpu.vector.read_elem(3, 0) == 4 * 5 + 2

    def test_tail_lanes_preserved(self):
        cpu = make_cpu(
            "li a0, 4\nvsetvli t0, a0, e64\nvmv.v.i v1, 9\n"
            "li a0, 2\nvsetvli t0, a0, e64\nvmv.v.i v1, 1\n"
        )
        run_to_break(cpu)
        cpu.vector.set_vl(4, 64)
        assert cpu.vector.read_elems(1, 4) == [1, 1, 9, 9]


class TestDecodeCache:
    def test_cache_invalidated_by_patch(self):
        cpu = make_cpu("addi a0, a0, 1\nnop")
        cpu.step()
        assert cpu.get_reg(10) == 1
        # Patch the first instruction to addi a0, a0, 2 and re-run it.
        from repro.isa.encoding import encode
        from repro.isa.instructions import Instruction

        cpu.space.patch_code(0x1000, encode(Instruction("addi", rd=10, rs1=10, imm=2)))
        cpu.pc = 0x1000
        cpu.step()
        assert cpu.get_reg(10) == 3

    def test_counters_and_instret(self):
        cpu = make_cpu("nop\nnop\nnop")
        run_to_break(cpu)
        assert cpu.instret == 3
        assert cpu.cycles >= 3


# ---------------------------------------------------------------------------
# Every scalar mnemonic on every execution tier, against this file's model.
#
# A case runs one instruction inside a loop of PASSES passes.  Each pass
# first restores the instruction's source registers from shadow registers,
# so every pass computes the same result.  The same bytes then run three
# ways: ``step()`` only, the block tier (``trace_cache=False``, what
# ``Kernel(trace_cache=False)`` builds), and the trace tier with
# ``trace_threshold=1``, where the later passes run the instruction inside
# a compiled trace.  Each final state must equal the model below, which
# shares no code with the interpreter.
# ---------------------------------------------------------------------------

TEXT, DATA, DATA_SIZE = 0x1000, 0x8000, 0x2000
BASE = 0x9000                       # memory operands point here
PASSES = 5
SHADOWS = (18, 19)                  # s2, s3 hold the source values
COUNTER = 27                        # s11 counts passes down
MARK = 5                            # t0 records which path control took
RA, SP = 1, 2
A0, A1, A2 = 10, 11, 12
M32 = 0xFFFF_FFFF
INT64_MIN, INT64_MAX = 1 << 63, (1 << 63) - 1

DATA_BYTES = bytes(((i * 0x9D) ^ 0x5A) & 0xFF for i in range(DATA_SIZE))
INIT_REGS = [0] + [(0x0101_0101_0101_0101 * i) & MASK for i in range(1, 32)]

EDGE = (0, 1, MASK, INT64_MIN, INT64_MAX, 0x7FFF_FFFF, 0x8000_0000, M32,
        0xFFFF_FFFF_8000_0000, 0x1234_5678_9ABC_DEF0)
PAIRS = ((0, 0), (INT64_MIN, MASK), (7, 0), (MASK, MASK), (INT64_MIN, 1),
         (0xFFFF_FFFF_8000_0000, MASK), (0x8000_0000, M32),
         (0x1234_5678_9ABC_DEF0, 31), (INT64_MAX, 63), (0x7FFF_FFF0, 32 + 4),
         (5, 64 + 3))


def sx(value, bits):
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def s64(value):
    return sx(value, 64)


def w(value):
    return sx(value, 32)


def tdiv(a, b, bits):
    """Signed division rounding toward zero, with RISC-V's corner cases."""
    if b == 0:
        return -1
    if a == -(1 << (bits - 1)) and b == -1:
        return a
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def trem(a, b, bits):
    return a if b == 0 else a - b * tdiv(a, b, bits)


RR_MODEL = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 63),
    "slt": lambda a, b: int(s64(a) < s64(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: s64(a) >> (b & 63),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "addw": lambda a, b: w(a + b),
    "subw": lambda a, b: w(a - b),
    "sllw": lambda a, b: w(a << (b & 31)),
    "srlw": lambda a, b: w((a & M32) >> (b & 31)),
    "sraw": lambda a, b: w(a) >> (b & 31),
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (s64(a) * s64(b)) >> 64,
    "mulhsu": lambda a, b: (s64(a) * b) >> 64,
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": lambda a, b: tdiv(s64(a), s64(b), 64),
    "divu": lambda a, b: a // b if b else MASK,
    "rem": lambda a, b: trem(s64(a), s64(b), 64),
    "remu": lambda a, b: a % b if b else a,
    "mulw": lambda a, b: w(a * b),
    "divw": lambda a, b: w(tdiv(w(a), w(b), 32)),
    "divuw": lambda a, b: w((a & M32) // (b & M32) if b & M32 else M32),
    "remw": lambda a, b: w(trem(w(a), w(b), 32)),
    "remuw": lambda a, b: w((a & M32) % (b & M32) if b & M32 else a),
    "sh1add": lambda a, b: (a << 1) + b,
    "sh2add": lambda a, b: (a << 2) + b,
    "sh3add": lambda a, b: (a << 3) + b,
}

#: Compressed register-register forms: rd is also the first source.
C_RR_MODEL = {
    "c.sub": RR_MODEL["sub"], "c.xor": RR_MODEL["xor"],
    "c.or": RR_MODEL["or"], "c.and": RR_MODEL["and"],
    "c.subw": RR_MODEL["subw"], "c.addw": RR_MODEL["addw"],
    "c.add": RR_MODEL["add"], "c.mv": lambda a, b: b,
}

SHIFT64 = (0, 1, 31, 63)
SHIFT32 = (0, 1, 31)
IMM12 = (0, 1, -1, 2047, -2048)

#: Register-immediate forms: mnemonic -> (model, immediates).
RI_MODEL = {
    "addi": (lambda a, i: a + i, IMM12),
    "slti": (lambda a, i: int(s64(a) < i), IMM12),
    "sltiu": (lambda a, i: int(a < i & MASK), IMM12),
    "xori": (lambda a, i: a ^ i, IMM12),
    "ori": (lambda a, i: a | i, IMM12),
    "andi": (lambda a, i: a & i, IMM12),
    "slli": (lambda a, i: a << i, SHIFT64),
    "srli": (lambda a, i: a >> i, SHIFT64),
    "srai": (lambda a, i: s64(a) >> i, SHIFT64),
    "addiw": (lambda a, i: w(a + i), IMM12),
    "slliw": (lambda a, i: w(a << i), SHIFT32),
    "srliw": (lambda a, i: w((a & M32) >> i), SHIFT32),
    "sraiw": (lambda a, i: w(a) >> i, SHIFT32),
}

#: Compressed register-immediate forms (rd is also the source).
C_RI_MODEL = {
    "c.addi": (RI_MODEL["addi"][0], (0, 1, -1, 31, -32)),
    "c.addiw": (RI_MODEL["addiw"][0], (0, 1, -1, 31, -32)),
    "c.slli": (RI_MODEL["slli"][0], (1, 31, 63)),
    "c.srli": (RI_MODEL["srli"][0], (1, 31, 63)),
    "c.srai": (RI_MODEL["srai"][0], (1, 31, 63)),
    "c.andi": (RI_MODEL["andi"][0], (0, -1, 31, -32)),
}

#: Loads: mnemonic -> (bytes, sign-extends, offsets, base register).
LOAD_MODEL = {
    "lb": (1, True, None, None), "lh": (2, True, None, None),
    "lw": (4, True, None, None), "ld": (8, True, None, None),
    "lbu": (1, False, None, None), "lhu": (2, False, None, None),
    "lwu": (4, False, None, None),
    "c.lw": (4, True, (0, 4, 124), A1), "c.ld": (8, True, (0, 8, 248), A1),
    "c.lwsp": (4, True, (0, 4, 252), SP), "c.ldsp": (8, True, (0, 8, 504), SP),
}

#: Stores: mnemonic -> (bytes, offsets, base register).
STORE_MODEL = {
    "sb": (1, None, None), "sh": (2, None, None),
    "sw": (4, None, None), "sd": (8, None, None),
    "c.sw": (4, (0, 4, 124), A1), "c.sd": (8, (0, 8, 248), A1),
    "c.swsp": (4, (0, 4, 252), SP), "c.sdsp": (8, (0, 8, 504), SP),
}
MEM_OFFSETS = (0, 1, 3, 7, -2048, 2040)

BRANCH_MODEL = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: s64(a) < s64(b),
    "bge": lambda a, b: s64(a) >= s64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
    "c.beqz": lambda a, _b: a == 0,
    "c.bnez": lambda a, _b: a != 0,
}

#: Instructions that raise instead of retiring: mnemonic -> (fault, compressed).
TRAP_MODEL = {
    "ecall": (EcallTrap, None),
    "ebreak": (BreakpointTrap, False),
    "c.ebreak": (BreakpointTrap, True),
}


def _x(reg):
    return f"x{reg}"


def _set(regs, rd, value):
    if rd:
        regs[rd] = value & MASK


class Case(NamedTuple):
    """One instruction shape: loop-body text, the source registers each
    pass restores, their value sets, and the model's effect on
    ``(regs, mem, labels)`` once the sources are restored."""

    body: str
    sources: Sequence[int]
    values: Sequence[tuple]
    effect: Callable


def _rr_cases(m, f):
    if m in C_RR_MODEL:
        layouts = [(A0, A0, A1), (A0, A0, A0)]
        text = "    {m} {rd}, {rs2}"
    else:
        layouts = [(A0, A1, A2), (0, A1, A2), (A1, A1, A2), (A2, A1, A2),
                   (A0, A1, A1)]
        text = "    {m} {rd}, {rs1}, {rs2}"
    for rd, rs1, rs2 in layouts:
        def effect(x, _mem, _lab, rd=rd, rs1=rs1, rs2=rs2):
            _set(x, rd, f(x[rs1], x[rs2]))
        yield Case(text.format(m=m, rd=_x(rd), rs1=_x(rs1), rs2=_x(rs2)),
                   (rs1, rs2), PAIRS, effect)


def _ri_cases(m, f, imms):
    compressed = m in C_RI_MODEL
    layouts = [(A0, A0), (A1, A1)] if compressed else [(A0, A1), (0, A1), (A1, A1)]
    for imm in imms:
        for rd, rs1 in layouts:
            def effect(x, _mem, _lab, rd=rd, rs1=rs1, imm=imm):
                _set(x, rd, f(x[rs1], imm))
            body = (f"    {m} {_x(rd)}, {imm}" if compressed
                    else f"    {m} {_x(rd)}, {_x(rs1)}, {imm}")
            yield Case(body, (rs1,), [(v,) for v in EDGE], effect)


def _c_addi16sp(imm):
    """``c.addi16sp`` parcel (the assembler has no mnemonic for it)."""
    u = imm & 0x3FF
    return ((0b011 << 13) | (((u >> 9) & 1) << 12) | (SP << 7)
            | (((u >> 4) & 1) << 6) | (((u >> 6) & 1) << 5)
            | (((u >> 7) & 3) << 3) | (((u >> 5) & 1) << 2) | 0b01)


def _other_alu_cases(m):
    if m == "c.addi16sp":
        for imm in (16, -16, 496, -512):
            def effect(x, _mem, _lab, imm=imm):
                _set(x, SP, x[SP] + imm)
            yield Case(f"    .half {_c_addi16sp(imm):#x}", (SP,),
                       [(v,) for v in EDGE], effect)
    elif m == "c.addi4spn":
        for imm in (4, 1020):
            def effect(x, _mem, _lab, imm=imm):
                _set(x, A0, x[SP] + imm)
            yield Case(f"    c.addi4spn x{A0}, {imm}", (SP,),
                       [(v,) for v in EDGE], effect)
    else:
        # Constant materializers: the value depends on the immediate (and,
        # for auipc, on the instruction's own address) only.
        imms, rds = {
            "lui": ((0, 1, 0x7FFFF, 0x80000, 0xFFFFF), (A0, 0)),
            "auipc": ((0, 1, 0x7FFFF, 0x80000, 0xFFFFF), (A0, 0)),
            "c.lui": ((1, 31, -1, -32), (A0,)),
            "c.li": ((0, 1, -1, 31, -32), (A0,)),
        }[m]
        model = {
            "lui": lambda imm, pc: sx(imm << 12, 32),
            "auipc": lambda imm, pc: pc + sx(imm << 12, 32),
            "c.lui": lambda imm, pc: imm << 12,
            "c.li": lambda imm, pc: imm,
        }[m]
        for imm in imms:
            for rd in rds:
                def effect(x, _mem, lab, rd=rd, imm=imm):
                    _set(x, rd, model(imm, lab["op"]))
                yield Case(f"    {m} {_x(rd)}, {imm}", (), [()], effect)


def _load_cases(m):
    width, signed, offsets, base = LOAD_MODEL[m]
    if base is None:
        layouts, offsets = [(A0, A1), (0, A1), (A1, A1)], MEM_OFFSETS
    else:
        layouts = [(A0, base), (A1, base)] if base == A1 else [(A0, base)]
    for off in offsets:
        for rd, rs1 in layouts:
            def effect(x, mem, _lab, rd=rd, rs1=rs1, off=off):
                addr = (x[rs1] + off) & MASK
                value = int.from_bytes(mem[addr - DATA:addr - DATA + width], "little")
                _set(x, rd, sx(value, width * 8) if signed else value)
            yield Case(f"    {m} {_x(rd)}, {off}({_x(rs1)})", (rs1,),
                       [(BASE,)], effect)


def _store_cases(m):
    width, offsets, base = STORE_MODEL[m]
    if base is None:
        layouts, offsets = [(A2, A1), (0, A1), (A1, A1)], MEM_OFFSETS
    else:
        layouts = [(A2, base), (base, base)] if base == A1 else [(A2, base)]
    for off in offsets:
        for rs2, rs1 in layouts:
            def effect(x, mem, _lab, rs1=rs1, rs2=rs2, off=off):
                addr = ((x[rs1] + off) & MASK) - DATA
                mem[addr:addr + width] = (x[rs2] & ((1 << (8 * width)) - 1)) \
                    .to_bytes(width, "little")
            values = [(BASE, v) for v in EDGE] if rs1 != rs2 else [(BASE, BASE)]
            yield Case(f"    {m} {_x(rs2)}, {off}({_x(rs1)})", (rs1, rs2),
                       values, effect)


def _branch_cases(m):
    cond = BRANCH_MODEL[m]
    if m.startswith("c."):
        layouts, values = [(A1, 0)], [(v, 0) for v in EDGE]
        head = f"    {m} {_x(A1)}, taken"
    else:
        layouts, values = [(A1, A2), (A1, A1), (0, A2), (A1, 0)], PAIRS
        head = f"    {m} {{rs1}}, {{rs2}}, taken"
    for rs1, rs2 in layouts:
        def effect(x, _mem, _lab, rs1=rs1, rs2=rs2):
            x[MARK] = 2 if cond(x[rs1], x[rs2]) else 1
        body = "\n".join([
            head.format(rs1=_x(rs1), rs2=_x(rs2)),
            f"    addi {_x(MARK)}, x0, 1",
            "    jal x0, join",
            "taken:",
            f"    addi {_x(MARK)}, x0, 2",
            "join:",
        ])
        yield Case(body, (rs1, rs2), values, effect)


def _jump_cases(m):
    """Jumps land on ``tgt``; falling through would set the marker to 99."""
    tail = f"\n    addi {_x(MARK)}, x0, 99\ntgt:"

    def target(delta):
        return lambda lab: lab["tgt"] + delta

    def linking(rd, length):
        def effect(x, _mem, lab):
            _set(x, rd, lab["op"] + length)
        return effect

    if m in ("jal", "c.j"):
        for rd in ((A0, 0, RA) if m == "jal" else (0,)):
            text = f"    jal {_x(rd)}, tgt" if m == "jal" else "    c.j tgt"
            yield Case(text + tail, (), [()], linking(rd, 4))
    elif m == "jalr":
        for imm, delta in ((0, 0), (0, 1), (1, 0), (-2048, 2048), (2047, -2047)):
            for rd in (A0, 0, A1, RA):
                yield Case(f"    jalr {_x(rd)}, {imm}({_x(A1)})" + tail, (A1,),
                           [(target(delta),)], linking(rd, 4))
    else:  # c.jr / c.jalr: rd is ra for c.jalr, nothing for c.jr
        rd = RA if m == "c.jalr" else 0
        for rs1 in (A1, RA):
            yield Case(f"    {m} {_x(rs1)}" + tail, (rs1,),
                       [(target(0),), (target(1),)], linking(rd, 2))


def _nop_cases(m):
    yield Case(f"    {m}", (), [()], lambda x, mem, lab: None)


def _cases(m):
    if m in RR_MODEL or m in C_RR_MODEL:
        return list(_rr_cases(m, RR_MODEL.get(m) or C_RR_MODEL[m]))
    if m in RI_MODEL or m in C_RI_MODEL:
        f, imms = RI_MODEL.get(m) or C_RI_MODEL[m]
        return list(_ri_cases(m, f, imms))
    if m in LOAD_MODEL:
        return list(_load_cases(m))
    if m in STORE_MODEL:
        return list(_store_cases(m))
    if m in BRANCH_MODEL:
        return list(_branch_cases(m))
    if m in ("jal", "jalr", "c.j", "c.jr", "c.jalr"):
        return list(_jump_cases(m))
    if m in ("fence", "c.nop"):
        return list(_nop_cases(m))
    return list(_other_alu_cases(m))


RETIRING = sorted(
    set(RR_MODEL) | set(C_RR_MODEL) | set(RI_MODEL) | set(C_RI_MODEL)
    | set(LOAD_MODEL) | set(STORE_MODEL) | set(BRANCH_MODEL)
    | {"jal", "jalr", "c.j", "c.jr", "c.jalr", "fence", "c.nop",
       "c.addi16sp", "c.addi4spn", "lui", "auipc", "c.lui", "c.li"})

TIERS = ("step", "block", "trace")


def _tier_cpu(code: bytes, tier: str) -> Cpu:
    space = AddressSpace()
    space.map(".text", TEXT, bytearray(code), Perm.RX)
    space.map(".data", DATA, bytearray(DATA_BYTES), Perm.RW)
    return Cpu(space, RV64GCV, block_cache=tier != "step",
               trace_cache=tier == "trace", trace_threshold=1)


def _restart(cpu: Cpu, regs: list, data: bytes = DATA_BYTES) -> Cpu:
    """Fresh architectural state and counters; decode, block and trace
    caches survive, so later value sets also run already-bound code."""
    cpu.regs[:] = regs
    cpu.pc = TEXT
    cpu.instret = cpu.cycles = 0
    cpu.counters.clear()
    cpu.space.segment_at(DATA).data[:] = data
    for vreg in cpu.vector.regs:
        vreg[:] = bytes(len(vreg))
    cpu.vector.vl, cpu.vector.sew = 0, 64
    return cpu


def _run_tier(cpu: Cpu, tier: str, limit: int = 1000):
    """Run until a fault; returns it (the loop ends at an ebreak)."""
    try:
        if tier == "step":
            for _ in range(limit):
                cpu.step()
        else:
            cpu.run(limit)
    except SimFault as fault:
        return fault
    raise AssertionError("program did not stop")


def _table_scalar_mnemonics() -> set:
    """Scalar mnemonics the interpreter defines: the keys of its
    semantics table."""
    import repro.sim.cpu as cpu_mod

    return {m for m in cpu_mod._SEMANTICS if not m.startswith("v")}


class TestEveryScalarMnemonicOnEveryTier:
    def test_model_covers_the_semantics_table(self):
        assert set(RETIRING) | set(TRAP_MODEL) == _table_scalar_mnemonics()

    @pytest.mark.parametrize("mnemonic", RETIRING)
    def test_matches_model(self, mnemonic):
        for case in _cases(mnemonic):
            restores = "\n".join(
                f"    addi {_x(src)}, {_x(sh)}, 0"
                for src, sh in zip(case.sources, SHADOWS) if src)
            program = assemble("\n".join([
                "top:", restores, "op:", case.body,
                f"    addi {_x(COUNTER)}, {_x(COUNTER)}, -1",
                f"    bne {_x(COUNTER)}, x0, top",
                "end:", "    ebreak", ""]), base=TEXT)
            lab = program.labels
            cpus = {tier: _tier_cpu(program.code, tier) for tier in TIERS}
            for values in case.values:
                regs = list(INIT_REGS)
                regs[COUNTER] = PASSES
                for sh, value in zip(SHADOWS, values):
                    regs[sh] = value(lab) if callable(value) else value
                want = list(regs)
                for src, sh in zip(case.sources, SHADOWS):
                    _set(want, src, want[sh])
                mem = bytearray(DATA_BYTES)
                case.effect(want, mem, lab)
                want[COUNTER] = 0
                seen = {}
                for tier, cpu in cpus.items():
                    fault = _run_tier(_restart(cpu, regs), tier)
                    where = f"{case.body.strip()} {values} on the {tier} tier"
                    assert isinstance(fault, BreakpointTrap), f"{where}: {fault!r}"
                    assert cpu.pc == lab["end"], where
                    assert cpu.regs == want, where
                    assert bytes(cpu.space.segment_at(DATA).data) == mem, where
                    if tier == "trace":
                        assert cpu.counters["trace_instret"] > 0, where
                    seen[tier] = (cpu.instret, cpu.cycles)
                assert len(set(seen.values())) == 1, (case.body, values, seen)

    @pytest.mark.parametrize("mnemonic", sorted(TRAP_MODEL))
    def test_trap_matches_model(self, mnemonic):
        kind, compressed = TRAP_MODEL[mnemonic]
        program = assemble(f"top:\n    addi x{A0}, x0, 1\nop:\n    {mnemonic}\n",
                           base=TEXT)
        seen = set()
        for tier in TIERS:
            cpu = _restart(_tier_cpu(program.code, tier), INIT_REGS)
            fault = _run_tier(cpu, tier)
            assert type(fault) is kind, (tier, fault)
            assert fault.pc == cpu.pc == program.labels["op"], tier
            if compressed is not None:
                assert fault.compressed is compressed, tier
            seen.add((cpu.instret, cpu.cycles, tuple(cpu.regs)))
        assert len(seen) == 1, seen


# ---------------------------------------------------------------------------
# Every vector mnemonic on every execution tier, against this file's model.
#
# Each pass of a vector case first reloads the instruction's vector
# registers from per-register images in memory (``vle64.v`` at e64 with
# VLMAX elements, so whole registers), then sets the case's SEW and vl,
# then runs the instruction.  Every pass thus computes the same result,
# and all 32 vector registers, including the tail lanes past vl, must
# equal the model's after the last pass.
# ---------------------------------------------------------------------------

VLEN = 256
VREG_BYTES = VLEN // 8
VIMG = DATA + 0x1800                # register images, VREG_BYTES apart
VMEM = BASE                         # vle/vse operand
IMG_REGS = (18, 19, 20)             # s2, s3, s4 point at images
AVL = 21                            # s5 holds the AVL
X_SRC = A0                          # .vx / vmv.v.x scalar operand
V_BASE = A1                         # vle/vse base
V_RD = A2                           # vmv.x.s / vsetvli destination
SEWS = (32, 64)

#: Lane values per SEW: signed boundaries, all-ones, and shift counts of
#: at least SEW (0x43 = 64 + 3, 0x25 = 32 + 5).
VEDGE = {
    64: (INT64_MIN, INT64_MAX, MASK, 0, 1, 0x43, 0x8000_0000,
         0x1234_5678_9ABC_DEF0),
    32: (1 << 31, (1 << 31) - 1, M32, 0, 1, 0x25, 0x43, 0x9ABC_DEF0,
         0x8000, 31, 2, 0xFFFF_FFFE, 33, 64, 5, 0x7FFF_0000),
}
#: (vd, vs2, vs1) image rotations into VEDGE, and the scalar operand.
VSETS = (((0, 1, 2), 0x43), ((3, 5, 7), MASK), ((6, 0, 4), INT64_MIN + 0x21))
VIMMS = (-16, -1, 0, 7, 15)

V_ELEMENTWISE = {
    "vadd": lambda a, b, sew: a + b,
    "vsub": lambda a, b, sew: a - b,
    "vmul": lambda a, b, sew: a * b,
    "vand": lambda a, b, sew: a & b,
    "vor": lambda a, b, sew: a | b,
    "vxor": lambda a, b, sew: a ^ b,
    "vmin": lambda a, b, sew: a if sx(a, sew) <= sx(b, sew) else b,
    "vmax": lambda a, b, sew: a if sx(a, sew) >= sx(b, sew) else b,
    "vminu": lambda a, b, sew: min(a, b),
    "vmaxu": lambda a, b, sew: max(a, b),
    "vsll": lambda a, b, sew: a << (b % sew),
    "vsrl": lambda a, b, sew: a >> (b % sew),
    "vsra": lambda a, b, sew: sx(a, sew) >> (b % sew),
}
V_FORMS = {
    "vv": ("vadd", "vsub", "vmul", "vand", "vor", "vxor", "vmin", "vmax",
           "vminu", "vmaxu", "vsll", "vsrl", "vsra"),
    "vx": ("vadd", "vsub", "vmul", "vsll", "vsrl", "vsra"),
    "vi": ("vadd",),
}
V_MEMORY = {"vle32.v": 32, "vle64.v": 64, "vse32.v": 32, "vse64.v": 64}


def _lanes(image: bytes, sew: int) -> list:
    w = sew // 8
    return [int.from_bytes(image[i:i + w], "little") for i in range(0, len(image), w)]


def _image(lanes, sew: int) -> bytes:
    return b"".join((v & ((1 << sew) - 1)).to_bytes(sew // 8, "little") for v in lanes)


class VCase(NamedTuple):
    """One vector instruction shape: its text, the vector registers each
    pass reloads, the model's effect on ``(x, v, mem, sew, vl)``, and
    the offset of the vle/vse base from VMEM."""

    body: str
    vregs: Sequence[int]
    effect: Callable
    offset: int = 0


def _velem_cases(m):
    name, form = m.split(".")
    f = V_ELEMENTWISE.get(name)
    if form == "vi":
        variants = [(vd, vs2, None, imm) for imm in VIMMS
                    for vd, vs2 in ((3, 1), (1, 1))]
    elif form == "vx":
        variants = [(vd, vs2, None, None) for vd, vs2 in ((3, 1), (1, 1))]
    else:
        variants = [(vd, vs2, vs1, None)
                    for vd, vs2, vs1 in ((3, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 1))]
    for vd, vs2, vs1, imm in variants:
        src = _x(X_SRC) if form == "vx" else str(imm) if form == "vi" else f"v{vs1}"

        def effect(x, v, _mem, sew, vl, vd=vd, vs2=vs2, vs1=vs1, imm=imm):
            a, d = _lanes(v[vs2], sew), _lanes(v[vd], sew)
            b = (_lanes(v[vs1], sew) if vs1 is not None
                 else [x[X_SRC] if form == "vx" else imm] * len(a))
            if m == "vredsum.vs":
                d[0] = b[0] + sum(a[:vl])
            elif m == "vmacc.vv":
                d[:vl] = [d[i] + b[i] * a[i] for i in range(vl)]
            else:
                d[:vl] = [f(a[i], b[i], sew) for i in range(vl)]
            v[vd] = _image(d, sew)
        yield VCase(f"    {m} v{vd}, v{vs2}, {src}",
                    tuple(r for r in (vd, vs2, vs1) if r is not None), effect)


def _vmove_cases(m):
    if m == "vmv.x.s":
        for rd in (V_RD, 0):
            def effect(x, v, _mem, sew, _vl, rd=rd):
                _set(x, rd, sx(_lanes(v[1], sew)[0], sew))
            yield VCase(f"    vmv.x.s {_x(rd)}, v1", (1,), effect)
        return
    for src in ([_x(X_SRC)] if m == "vmv.v.x" else [str(i) for i in VIMMS]):
        def effect(x, v, _mem, sew, vl, src=src):
            value = x[X_SRC] if m == "vmv.v.x" else int(src)
            d = _lanes(v[3], sew)
            d[:vl] = [value] * vl
            v[3] = _image(d, sew)
        yield VCase(f"    {m} v3, {src}", (3,), effect)


def _vmem_cases(m):
    bits = V_MEMORY[m]
    w = bits // 8
    for off in (0, 4, 12):
        def effect(x, v, mem, sew, vl, off=off):
            base = x[V_BASE] - DATA
            d = _lanes(v[3], sew)
            for i in range(vl):
                at = base + i * w
                if m.startswith("vle"):
                    d[i] = int.from_bytes(mem[at:at + w], "little")
                else:
                    mem[at:at + w] = (d[i] & ((1 << bits) - 1)).to_bytes(w, "little")
            v[3] = _image(d, sew)
        yield VCase(f"    {m} v3, ({_x(V_BASE)})", (3,), effect, off)


def _vector_cases(m):
    if m in V_MEMORY:
        return list(_vmem_cases(m))
    if m.startswith("vmv."):
        return list(_vmove_cases(m))
    return list(_velem_cases(m))


VECTOR_RETIRING = sorted(
    {f"{op}.{form}" for form, ops in V_FORMS.items() for op in ops}
    | {"vmacc.vv", "vredsum.vs", "vmv.v.x", "vmv.v.i", "vmv.x.s"}
    | set(V_MEMORY))


def _table_vector_mnemonics() -> set:
    import repro.sim.cpu as cpu_mod

    return {m for m in cpu_mod._SEMANTICS if m.startswith("v")}


class TestEveryVectorMnemonicOnEveryTier:
    def test_model_covers_the_vector_table(self):
        assert set(VECTOR_RETIRING) | {"vsetvli"} == _table_vector_mnemonics()

    @pytest.mark.parametrize("mnemonic", VECTOR_RETIRING)
    def test_matches_model(self, mnemonic):
        for sew in SEWS:
            for case in _vector_cases(mnemonic):
                reload = sorted(set(case.vregs))
                program = assemble("\n".join([
                    "top:", "    vsetvli x0, x0, e64",
                    *(f"    vle64.v v{r}, ({_x(IMG_REGS[i])})"
                      for i, r in enumerate(reload)),
                    f"    vsetvli x0, {_x(AVL)}, e{sew}",
                    "op:", case.body,
                    f"    addi {_x(COUNTER)}, {_x(COUNTER)}, -1",
                    f"    bne {_x(COUNTER)}, x0, top",
                    "end:", "    ebreak", ""]), base=TEXT)
                lab = program.labels
                cpus = {tier: _tier_cpu(program.code, tier) for tier in TIERS}
                vlmax = VLEN // sew
                for avl in (vlmax, 3, 0):
                    for starts, xval in VSETS:
                        self._check(case, reload, sew, avl, starts, xval,
                                    cpus, lab)

    @staticmethod
    def _check(case, reload, sew, avl, starts, xval, cpus, lab):
        edge = VEDGE[sew]
        n = VLEN // sew
        regs = list(INIT_REGS)
        regs[COUNTER] = PASSES
        regs[AVL] = avl
        regs[X_SRC] = xval
        regs[V_BASE] = VMEM + case.offset
        data = bytearray(DATA_BYTES)
        v = [bytes(VREG_BYTES)] * 32
        for i, r in enumerate(reload):
            regs[IMG_REGS[i]] = VIMG + VREG_BYTES * i
            image = _image([edge[(starts[i] + k) % len(edge)] for k in range(n)], sew)
            at = VIMG + VREG_BYTES * i - DATA
            data[at:at + VREG_BYTES] = image
            v[r] = image
        want = list(regs)
        mem = bytearray(data)
        vl = min(avl, n)
        case.effect(want, v, mem, sew, vl)
        want[COUNTER] = 0
        seen = {}
        for tier, cpu in cpus.items():
            fault = _run_tier(_restart(cpu, regs, data), tier)
            where = f"{case.body.strip()} e{sew} avl={avl} {starts} on the {tier} tier"
            assert isinstance(fault, BreakpointTrap), f"{where}: {fault!r}"
            assert cpu.pc == lab["end"], where
            assert cpu.regs == want, where
            assert [bytes(r) for r in cpu.vector.regs] == v, where
            assert (cpu.vector.sew, cpu.vector.vl) == (sew, vl), where
            assert bytes(cpu.space.segment_at(DATA).data) == mem, where
            if tier == "trace":
                assert cpu.counters["trace_instret"] > 0, where
            seen[tier] = (cpu.instret, cpu.cycles)
        assert len(set(seen.values())) == 1, (case.body, sew, avl, seen)

    @pytest.mark.parametrize("sew", SEWS)
    def test_vsetvli_matches_model(self, sew):
        vlmax = VLEN // sew
        for rd, rs1 in ((V_RD, AVL), (0, AVL), (V_RD, 0), (AVL, AVL)):
            program = assemble("\n".join([
                "top:", "op:", f"    vsetvli {_x(rd)}, {_x(rs1)}, e{sew}",
                f"    addi {_x(COUNTER)}, {_x(COUNTER)}, -1",
                f"    bne {_x(COUNTER)}, x0, top",
                "end:", "    ebreak", ""]), base=TEXT)
            cpus = {tier: _tier_cpu(program.code, tier) for tier in TIERS}
            for avl in (0, 1, 3, vlmax, vlmax + 1, 1000, MASK):
                regs = list(INIT_REGS)
                regs[COUNTER] = PASSES
                regs[AVL] = avl
                vl = vlmax if rs1 == 0 else min(avl, vlmax)
                want = list(regs)
                _set(want, rd, vl)
                want[COUNTER] = 0
                seen = {}
                for tier, cpu in cpus.items():
                    fault = _run_tier(_restart(cpu, regs), tier)
                    where = f"vsetvli {rd}, {rs1}, e{sew} avl={avl} on {tier}"
                    assert isinstance(fault, BreakpointTrap), f"{where}: {fault!r}"
                    assert cpu.regs == want, where
                    assert (cpu.vector.sew, cpu.vector.vl) == (sew, vl), where
                    if tier == "trace":
                        assert cpu.counters["trace_instret"] > 0, where
                    seen[tier] = (cpu.instret, cpu.cycles)
                assert len(set(seen.values())) == 1, (rd, rs1, avl, seen)

    @pytest.mark.parametrize("mnemonic", ["vle64.v", "vse64.v"])
    def test_access_faulting_mid_vector(self, mnemonic):
        """The base advances two elements a pass towards the end of .data;
        the last pass faults at element 2, inside a compiled trace on the
        trace tier.  Every tier leaves the same partial vd or memory, the
        fault on the access, and the same instret and cycles."""
        end = DATA + DATA_SIZE
        passes = 5
        program = assemble("\n".join([
            "top:", "    vsetvli x0, x0, e64",
            "op:", f"    {mnemonic} v1, ({_x(V_BASE)})",
            f"    addi {_x(V_BASE)}, {_x(V_BASE)}, 16",
            f"    addi {_x(COUNTER)}, {_x(COUNTER)}, -1",
            f"    bne {_x(COUNTER)}, x0, top",
            "    ebreak", ""]), base=TEXT)
        image = _image(VEDGE[64][:4], 64)
        regs = list(INIT_REGS)
        regs[COUNTER] = passes
        regs[V_BASE] = end - 16 * passes
        # Model: passes before the last retire all five ops; the last
        # retires vsetvli, then its access faults at element 2.
        vd, mem = bytearray(VREG_BYTES), bytearray(DATA_BYTES)
        base = regs[V_BASE] - DATA
        for _ in range(passes):
            for i in range(4):
                at = base + 8 * i
                if at + 8 > DATA_SIZE:
                    break
                if mnemonic == "vle64.v":
                    vd[8 * i:8 * i + 8] = mem[at:at + 8]
                else:
                    mem[at:at + 8] = image[8 * i:8 * i + 8]
            base += 16
        if mnemonic == "vse64.v":
            vd = bytearray(image)
        want_regs = list(regs)
        want_regs[V_BASE] = end - 16
        want_regs[COUNTER] = 1
        seen = {}
        for tier in TIERS:
            cpu = _restart(_tier_cpu(program.code, tier), regs)
            cpu.vector.regs[1][:] = bytes(VREG_BYTES) if mnemonic == "vle64.v" else image
            fault = _run_tier(cpu, tier)
            assert isinstance(fault, SegmentationFault), (tier, fault)
            assert fault.pc == cpu.pc == program.labels["op"], tier
            assert cpu.regs == want_regs, tier
            assert cpu.vector.regs[1] == vd, tier
            assert bytes(cpu.space.segment_at(DATA).data) == mem, tier
            assert cpu.instret == 5 * (passes - 1) + 1, tier
            if tier == "trace":
                assert cpu.counters["trace_instret"] > 0, tier
            seen[tier] = cpu.cycles
        assert len(set(seen.values())) == 1, seen

    def test_empty_store_does_not_open_a_read_only_segment(self):
        """Passes with vl = 0 store nothing, so they check no permission;
        the trace tier must not let such a pass enable the bulk copy into
        a read-only segment that a later pass with vl > 0 would use."""
        rodata = DATA + DATA_SIZE
        program = assemble("\n".join([
            "top:", f"    sltiu x6, {_x(COUNTER)}, 2",   # 1 on the last pass
            "    slli x6, x6, 2",                          # AVL 4, else 0
            "    vsetvli x0, x6, e64",
            "op:", f"    vse64.v v1, ({_x(V_BASE)})",
            f"    addi {_x(COUNTER)}, {_x(COUNTER)}, -1",
            f"    bne {_x(COUNTER)}, x0, top",
            "    ebreak", ""]), base=TEXT)
        regs = list(INIT_REGS)
        regs[COUNTER] = PASSES
        regs[V_BASE] = rodata
        for tier in TIERS:
            cpu = _tier_cpu(program.code, tier)
            cpu.space.map(".rodata", rodata, bytearray(VREG_BYTES), Perm.R)
            _restart(cpu, regs).vector.regs[1][:] = b"\xff" * VREG_BYTES
            fault = _run_tier(cpu, tier)
            assert isinstance(fault, SegmentationFault), (tier, fault)
            assert fault.pc == cpu.pc == program.labels["op"], tier
            assert cpu.regs[COUNTER] == 1, tier
            assert bytes(cpu.space.segment_at(rodata).data) == bytes(VREG_BYTES), tier
