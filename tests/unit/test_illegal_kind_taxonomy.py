"""One test per IllegalInstructionFault.kind: decode + runtime dispatch.

The four kinds partition Chimera's SIGILL surface:

* ``long-prefix``          — SMILE's P2 parcel (reserved >=48-bit prefix);
* ``reserved-compressed``  — SMILE's P3 parcel (c.addiw rd=x0, etc.);
* ``unknown``              — encodings outside the modeled subset;
* ``unsupported-extension``— a real instruction the core lacks: the
  trigger for Chimera's lazy runtime rewriting.

Each test drives the real CPU over crafted bytes (asserting the decode
path tags the fault correctly, with the pc filled in) and then asserts
what the ChimeraRuntime does with that kind.
"""

import pytest

from repro.core.rewriter import ChimeraRewriter
from repro.core.runtime import ChimeraRuntime
from repro.core.smile import smile_offset_label
from repro.elf.builder import ProgramBuilder
from repro.elf.loader import make_process
from repro.isa.decoding import decode
from repro.isa.extensions import RV64GC, RV64GCV
from repro.sim.cpu import Cpu
from repro.sim.faults import IllegalInstructionFault, UnrecoverableFault
from repro.sim.machine import Core, Kernel


def scalar_binary():
    b = ProgramBuilder("taxonomy")
    b.set_text("""
_start:
    nop
    nop
    nop
    li a7, 93
    li a0, 0
    ecall
""")
    return b.build()


def fault_from_bytes(encoding: bytes) -> IllegalInstructionFault:
    """Patch *encoding* over the entry point and step the real CPU."""
    binary = scalar_binary()
    proc = make_process(binary)
    proc.space.patch_code(binary.entry, encoding)
    cpu = Cpu(proc.space, profile=RV64GC)
    cpu.pc = binary.entry
    with pytest.raises(IllegalInstructionFault) as exc:
        cpu.step()
    assert exc.value.pc == binary.entry  # satellite: pc always filled in
    return exc.value


def rewritten_vector_setup():
    b = ProgramBuilder("taxonomy-vec")
    b.add_words("buf", [3, 4] + [0] * 8)
    b.set_text("""
_start:
    li a0, {buf}
    li a1, 2
    vsetvli t0, a1, e64
    vle64.v v1, (a0)
    vse64.v v1, (a0)
    li a7, 93
    li a0, 0
    ecall
""")
    binary = b.build()
    rewriter = ChimeraRewriter()
    result = rewriter.rewrite(binary, RV64GC)
    runtime = ChimeraRuntime(result.binary, rewriter=rewriter, original=binary)
    kernel = Kernel()
    runtime.install(kernel)
    proc = make_process(result.binary)
    cpu = kernel.make_cpu(proc, Core(0, RV64GC))
    regions = [
        tuple(r) for r in result.binary.metadata["chimera"]["patched_regions"]
        if r[2] == "smile"
    ]
    assert regions, "vector workload produced no SMILE trampolines"
    return runtime, kernel, proc, cpu, regions[0][0]


def vsetvli_binary(vtype: str):
    """A loop hot enough to compile a trace, then ``vsetvli`` at ``bad``."""
    b = ProgramBuilder("taxonomy-vtype")
    b.set_text(f"""
_start:
    li s1, 8
top:
    addi s1, s1, -1
    bnez s1, top
    li a1, 2
bad:
    vsetvli t0, a1, {vtype}
    li a7, 93
    li a0, 0
    ecall
""")
    return b.build()


class TestLongPrefix:
    def test_decode_kind_and_pc(self):
        # Low 5 bits = 11111 announce a reserved >=48-bit encoding.
        fault = fault_from_bytes(b"\x1f\x00\x00\x00")
        assert fault.kind == "long-prefix"

    def test_p2_parcel_is_long_prefix_and_killed_structurally(self):
        """Entering the trampoline at P2 decodes the auipc's immediate
        parcel as a long-prefix fault; no fault-table entry exists at
        +2, and the region is the runtime's, so dispatch must end in a
        structured kill — never a silent decline."""
        runtime, kernel, proc, cpu, window = rewritten_vector_setup()
        p2 = window + 2
        assert smile_offset_label(p2 - window) == "P2"
        cpu.pc = p2
        with pytest.raises(IllegalInstructionFault) as exc:
            cpu.step()
        assert exc.value.kind == "long-prefix"
        with pytest.raises(UnrecoverableFault):
            runtime.handle_fault(kernel, proc, cpu, exc.value)


class TestReservedCompressed:
    def test_decode_kind_and_pc(self):
        # c.addiw rd=x0: Q1, funct3=001 — SMILE's pinned P3 parcel.
        fault = fault_from_bytes(bytes([0x01, 0x20]))
        assert fault.kind == "reserved-compressed"

    def test_all_zero_parcel(self):
        fault = fault_from_bytes(b"\x00\x00")
        assert fault.kind == "reserved-compressed"

    def test_p3_parcel_is_reserved_and_killed_structurally(self):
        runtime, kernel, proc, cpu, window = rewritten_vector_setup()
        p3 = window + 6
        assert smile_offset_label(p3 - window) == "P3"
        cpu.pc = p3
        with pytest.raises(IllegalInstructionFault) as exc:
            cpu.step()
        assert exc.value.kind == "reserved-compressed"
        with pytest.raises(UnrecoverableFault):
            runtime.handle_fault(kernel, proc, cpu, exc.value)

    def test_fault_table_key_redirects(self):
        """A reserved parcel at a pc the fault table knows (the runtime
        plants these during rewriting) redirects instead of killing."""
        runtime, kernel, proc, cpu, _ = rewritten_vector_setup()
        key, redirect = next(iter(runtime.fault_table))
        cpu.pc = key
        fault = IllegalInstructionFault(key, "reserved-compressed")
        assert runtime.handle_fault(kernel, proc, cpu, fault)
        assert cpu.pc == redirect
        assert runtime.stats.smile_sigill_recoveries == 1


class TestUnknown:
    def test_decode_kind_and_pc(self):
        # custom-3 major opcode: outside the modeled subset.
        fault = fault_from_bytes(bytes([0x7B, 0x00, 0x00, 0x00]))
        assert fault.kind == "unknown"

    def test_runtime_declines_unknown_outside_patched_regions(self):
        """An unknown encoding at an address Chimera never touched is
        not the runtime's: dispatch returns False and the kernel's
        default kill applies (no rewrite attempt, no structured claim)."""
        runtime, kernel, proc, cpu, _ = rewritten_vector_setup()
        pc = proc.space.fetch_segment(cpu.pc).base  # plain .text, unpatched
        fault = IllegalInstructionFault(pc + 0x7000, "unknown")
        cpu.pc = fault.pc
        assert not runtime.handle_fault(kernel, proc, cpu, fault)
        assert runtime.stats.runtime_rewrites == 0

    @pytest.mark.parametrize("vtype", ["e8", "e16", "0x38"])
    def test_vsetvli_with_a_sew_the_unit_lacks(self, vtype):
        """A vsetvli the decoder accepts but whose SEW the vector unit
        lacks (e8, e16, a reserved vsew) is an unknown instruction on
        every tier: the fault is at the vsetvli, and it retires nothing."""
        binary = vsetvli_binary(vtype)
        bad = binary.symbol_addr("bad")
        text = binary.section(".text")
        instr = decode(text.data, bad - text.addr, addr=bad)
        assert instr.mnemonic == "vsetvli"
        seen = set()
        for block_cache, trace_cache in ((False, False), (True, False), (True, True)):
            kernel = Kernel(block_cache=block_cache, trace_cache=trace_cache,
                            trace_threshold=1)
            cpu = kernel.make_cpu(make_process(binary), Core(0, RV64GCV))
            with pytest.raises(IllegalInstructionFault) as exc:
                cpu.run(10_000)
            assert exc.value.kind == "unknown"
            assert exc.value.pc == cpu.pc == bad
            assert cpu.get_reg(5) == 0  # t0: vsetvli's rd, never written
            assert (cpu.vector.vl, cpu.vector.sew) == (0, 64)
            if trace_cache:
                assert cpu.counters["trace_instret"] > 0
            seen.add((cpu.instret, cpu.cycles))
        assert len(seen) == 1, seen

    def test_kernel_run_of_an_unsupported_vsetvli_is_a_structured_fault(self):
        result = Kernel().run(make_process(vsetvli_binary("e8")), Core(0, RV64GCV))
        assert not result.ok
        assert isinstance(result.fault, IllegalInstructionFault)
        assert result.fault.kind == "unknown"


class TestUnsupportedExtension:
    def test_decode_kind_and_pc(self):
        """A well-formed vector instruction on a vectorless core: the
        encoding decodes fine; execution faults with the kind that
        drives FAM migration and lazy rewriting."""
        b = ProgramBuilder("vec-on-base")
        b.add_words("buf", [1, 2] + [0] * 4)
        b.set_text("""
_start:
    li a0, {buf}
    li a1, 2
    vsetvli t0, a1, e64
    li a7, 93
    li a0, 0
    ecall
""")
        binary = b.build()
        proc = make_process(binary)
        cpu = Cpu(proc.space, profile=RV64GC)
        cpu.pc = binary.entry
        fault = None
        for _ in range(8):
            try:
                cpu.step()
            except IllegalInstructionFault as exc:
                fault = exc
                break
        assert fault is not None
        assert fault.kind == "unsupported-extension"
        assert fault.pc is not None
        # The same bytes execute cleanly on a vector-capable core.
        cpu2 = Cpu(make_process(binary).space, profile=RV64GCV)
        cpu2.pc = binary.entry
        for _ in range(3):
            cpu2.step()

    def test_runtime_dispatch_triggers_lazy_rewrite(self):
        """unsupported-extension is the one SIGILL kind the runtime
        repairs by rewriting at runtime (scan-missed instruction)."""
        b = ProgramBuilder("lazy-kind")
        b.add_words("buf", [7, 8] + [0] * 8)
        b.add_words("slot", [0])
        b.set_text("""
_start:
    la t0, hidden
    li t1, {slot}
    sd t0, 0(t1)
    li a0, {buf}
    li a1, 2
    ld t0, 0(t1)
    jalr t0
    li a7, 93
    li a0, 0
    ecall
    .word 0xffffffff   # data island: stops the linear fall-through scan
hidden:
    vsetvli t0, a1, e64
    vle64.v v1, (a0)
    vadd.vv v2, v1, v1
    vse64.v v2, (a0)
    ret
""")
        binary = b.build()
        rewriter = ChimeraRewriter()
        result = rewriter.rewrite(binary, RV64GC)
        runtime = ChimeraRuntime(result.binary, rewriter=rewriter, original=binary)
        kernel = Kernel()
        runtime.install(kernel)
        proc = make_process(result.binary)
        res = kernel.run(proc, Core(0, RV64GC))
        assert res.ok
        assert runtime.stats.runtime_rewrites >= 1
