"""Target-instruction generation (paper §4.1).

Downgrade: translate extension instructions (RVV subset, Zba) into
semantically equivalent base-ISA sequences.  Two register problems are
handled exactly as the paper describes:

* **extra base registers** — scalar scratch registers are stack-saved
  before and restored after the computation, first-in last-out;
* **simulated extension registers** — vector state (v0..v31 images, vl,
  sew) lives in a dedicated RW data section (``.chimera.vregs``) of the
  rewritten binary; vector-register accesses become memory accesses to
  that region, so the computation context survives on cores without the
  extension and across migrations.

Upgrade: fuse ``slli+add`` pairs into Zba ``shNadd``, and vectorize the
two canonical element-wise / reduction loop idioms the workloads'
"compiler" emits (:mod:`repro.core.upgrade`).

Templates are emitted as assembly text.  The patcher assembles each
distinct template once and reuses its bytes at every site
(:func:`repro.isa.assembler.assemble_piece`); QEMU TCG and its
translation cache play this role in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.isa.encoding import decode_vtype
from repro.isa.instructions import Instruction
from repro.isa.registers import Reg, reg_name
from repro.telemetry import current as telemetry_current
from repro.telemetry.exec_trace import instruction_class

#: Byte offsets inside the .chimera.vregs region.
VREG_SIZE = 32          # one 256-bit register image
VL_OFF = 32 * VREG_SIZE
SEW_OFF = VL_OFF + 8
VREGS_REGION_SIZE = SEW_OFF + 8

#: Scratch-register priority order (all caller-saved).
_SCRATCH_POOL: tuple[int, ...] = tuple(
    int(r) for r in (Reg.T0, Reg.T1, Reg.T2, Reg.T3, Reg.T4, Reg.T5,
                     Reg.T6, Reg.A7, Reg.A6, Reg.A5, Reg.A4, Reg.A3)
)


class TranslationError(ValueError):
    """No downgrade template exists for an instruction."""


@dataclass
class TranslationContext:
    """Addresses and state the templates need."""

    vregs_base: int
    gp_value: int
    vlen: int = 256

    def vreg_off(self, v: int) -> int:
        """Offset of v*v*'s image inside the region."""
        return v * VREG_SIZE


def pick_scratch(exclude: set[int], count: int) -> list[int]:
    """Pick *count* scratch registers avoiding *exclude* (and x0/sp/gp/tp)."""
    out = [r for r in _SCRATCH_POOL if r not in exclude]
    if len(out) < count:
        raise TranslationError(f"cannot find {count} scratch registers")
    return out[:count]


class _LabelFactory:
    """Unique local labels across one target block."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def __call__(self, hint: str) -> str:
        self.n += 1
        return f".L{self.prefix}_{hint}{self.n}"


class Translator:
    """Emit downgrade templates as assembly text.

    ``mode="empty"`` reproduces the evaluation's *empty patching* (§6.2):
    the "translation" replays the source instruction verbatim, isolating
    pure rewriting overhead.
    """

    def __init__(self, ctx: TranslationContext, mode: str = "full"):
        if mode not in ("full", "empty"):
            raise ValueError(f"unknown translation mode {mode!r}")
        self.ctx = ctx
        self.mode = mode
        self._block_counter = 0
        self._probing = False

    # -- public ---------------------------------------------------------

    def translate(self, instr: Instruction) -> tuple[str, list[int]]:
        """Return (asm text, scratch registers used) for *instr*.

        The text includes the FILO stack save/restore of the scratch
        registers; the caller wraps it with gp-restore and trampolines.
        """
        telemetry = telemetry_current()
        if telemetry.enabled and not self._probing:
            telemetry.metrics.inc(
                "translate.instructions",
                mode=self.mode,
                **{"class": instruction_class(instr)},
            )
        self._block_counter += 1
        labels = _LabelFactory(f"t{self._block_counter}")
        if self.mode == "empty":
            return self._emit_verbatim(instr), []
        mnem = instr.mnemonic
        if mnem in ("sh1add", "sh2add", "sh3add"):
            return self._emit_zba(instr)
        if mnem == "vsetvli":
            return self._emit_vsetvli(instr, labels)
        if mnem in ("vle32.v", "vle64.v", "vse32.v", "vse64.v"):
            return self._emit_vmem(instr, labels)
        if mnem in ("vadd.vv", "vsub.vv", "vmul.vv", "vand.vv", "vor.vv",
                    "vxor.vv", "vsll.vv", "vsrl.vv", "vsra.vv"):
            return self._emit_varith_vv(instr, labels)
        if mnem in ("vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv"):
            return self._emit_vminmax(instr, labels)
        if mnem == "vmacc.vv":
            return self._emit_vmacc(instr, labels)
        if mnem in ("vadd.vx", "vsub.vx", "vmul.vx", "vsll.vx", "vsrl.vx", "vsra.vx"):
            return self._emit_vadd_vx(instr, labels)
        if mnem == "vadd.vi":
            return self._emit_vadd_vi(instr, labels)
        if mnem == "vmv.x.s":
            return self._emit_vmv_x_s(instr, labels)
        if mnem in ("vmv.v.x", "vmv.v.i"):
            return self._emit_vmv(instr, labels)
        if mnem == "vredsum.vs":
            return self._emit_vredsum(instr, labels)
        raise TranslationError(f"no downgrade template for {mnem}")

    def can_translate(self, instr: Instruction) -> bool:
        """True if a downgrade template exists for *instr*."""
        self._probing = True  # capability probe, not a real translation
        try:
            self.translate(instr)
            return True
        except TranslationError:
            return False
        finally:
            self._probing = False

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _frame_size(scratch: list[int]) -> int:
        return (len(scratch) * 8 + 15) & ~15  # keep sp 16-aligned

    @classmethod
    def _save_restore(cls, scratch: list[int]) -> tuple[str, str]:
        """FILO stack save/restore blocks for *scratch* registers."""
        if not scratch:
            return "", ""
        frame = cls._frame_size(scratch)
        save = [f"addi sp, sp, -{frame}"]
        restore = []
        for i, reg in enumerate(scratch):
            save.append(f"sd {reg_name(reg)}, {i * 8}(sp)")
            restore.append(f"ld {reg_name(reg)}, {i * 8}(sp)")
        restore.reverse()  # first-in, last-out (paper §4.1)
        restore.append(f"addi sp, sp, {frame}")
        return "\n".join(save), "\n".join(restore)

    @classmethod
    def _read_source_reg(cls, dst: int, src: int, scratch: list[int]) -> str:
        """Copy source operand *src* into scratch *dst*.

        The template body runs after the scratch save moved ``sp`` down
        by the frame size; a source operand that *is* ``sp`` must be
        compensated or the translated code would see the wrong pointer.
        """
        if src == int(Reg.SP):
            return f"addi {reg_name(dst)}, sp, {cls._frame_size(scratch)}"
        return f"mv {reg_name(dst)}, {reg_name(src)}"

    def _emit_verbatim(self, instr: Instruction) -> str:
        """Empty-patching body: the source instruction itself."""
        from repro.isa.disassembler import format_instruction

        clone = instr.copy()
        clone.addr = None
        return format_instruction(clone)

    # -- Zba -------------------------------------------------------------

    def _emit_zba(self, instr: Instruction) -> tuple[str, list[int]]:
        shift = {"sh1add": 1, "sh2add": 2, "sh3add": 3}[instr.mnemonic]
        exclude = {instr.rd, instr.rs1, instr.rs2}
        (tmp,) = pick_scratch(exclude, 1)
        save, restore = self._save_restore([tmp])
        tn = reg_name(tmp)
        frame = self._frame_size([tmp])
        if instr.rs1 == int(Reg.SP):
            shifted = f"addi {tn}, sp, {frame}\nslli {tn}, {tn}, {shift}"
        else:
            shifted = f"slli {tn}, {reg_name(instr.rs1)}, {shift}"
        added = f"add {reg_name(instr.rd)}, {tn}, {reg_name(instr.rs2)}"
        if instr.rs2 == int(Reg.SP):
            added += f"\naddi {reg_name(instr.rd)}, {reg_name(instr.rd)}, {frame}"
        body = f"{save}\n{shifted}\n{added}\n{restore}"
        return body, [tmp]

    # -- vector ----------------------------------------------------------

    def _emit_vsetvli(self, instr: Instruction, label) -> tuple[str, list[int]]:
        sew = decode_vtype(instr.imm)
        vlmax = self.ctx.vlen // sew
        exclude = {instr.rd, instr.rs1}
        a, b = pick_scratch(exclude, 2)
        an, bn = reg_name(a), reg_name(b)
        save, restore = self._save_restore([a, b])
        done = label("min")
        if instr.rs1 == 0:
            avl = f"li {bn}, {vlmax}"
        else:
            avl = self._read_source_reg(b, instr.rs1, [a, b])
        set_rd = f"mv {reg_name(instr.rd)}, {an}\n" if instr.rd != 0 else ""
        body = (
            f"{save}\n"
            f"li {an}, {vlmax}\n"
            f"{avl}\n"
            f"bgeu {bn}, {an}, {done}\n"
            f"mv {an}, {bn}\n"
            f"{done}:\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"sd {an}, {VL_OFF}({bn})\n"
            f"{set_rd}"
            f"li {an}, {sew}\n"
            f"sd {an}, {SEW_OFF}({bn})\n"
            f"{restore}"
        )
        return body, [a, b]

    def _emit_vmem(self, instr: Instruction, label) -> tuple[str, list[int]]:
        is_load = instr.mnemonic.startswith("vle")
        exclude = {instr.rs1}
        a, b, c, d = pick_scratch(exclude, 4)
        an, bn, cn, dn = (reg_name(r) for r in (a, b, c, d))
        save, restore = self._save_restore([a, b, c, d])
        l32, l64, done = label("w32"), label("w64"), label("done")
        if is_load:
            body32 = f"lw {an}, 0({cn})\nsw {an}, 0({bn})"
            body64 = f"ld {an}, 0({cn})\nsd {an}, 0({bn})"
        else:
            body32 = f"lw {an}, 0({bn})\nsw {an}, 0({cn})"
            body64 = f"ld {an}, 0({bn})\nsd {an}, 0({cn})"
        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"addi {bn}, {bn}, {self.ctx.vreg_off(instr.vd)}\n"
            + self._read_source_reg(c, instr.rs1, [a, b, c, d]) + "\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            f"{l32}:\n"
            f"{body32}\n"
            f"addi {cn}, {cn}, 4\n"
            f"addi {bn}, {bn}, 4\n"
            f"addi {dn}, {dn}, -1\n"
            f"bnez {dn}, {l32}\n"
            f"j {done}\n"
            f"{l64}:\n"
            f"{body64}\n"
            f"addi {cn}, {cn}, 8\n"
            f"addi {bn}, {bn}, 8\n"
            f"addi {dn}, {dn}, -1\n"
            f"bnez {dn}, {l64}\n"
            f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, c, d]

    def _emit_varith_vv(self, instr: Instruction, label) -> tuple[str, list[int]]:
        mnem = instr.mnemonic
        op64 = {"vadd.vv": "add", "vsub.vv": "sub", "vmul.vv": "mul",
                "vand.vv": "and", "vor.vv": "or", "vxor.vv": "xor",
                "vsll.vv": "sll", "vsrl.vv": "srl", "vsra.vv": "sra"}[mnem]
        op32 = {"add": "addw", "sub": "subw", "mul": "mulw",
                "sll": "sllw", "srl": "srlw", "sra": "sraw"}.get(op64, op64)
        is_shift = op64 in ("sll", "srl", "sra")
        a, b, d, e = pick_scratch(set(), 4)
        an, bn, dn, en = (reg_name(r) for r in (a, b, d, e))
        save, restore = self._save_restore([a, b, d, e])
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = label("w32"), label("w64"), label("done")

        def loop(tag, ld, st, op, step):
            # Hardware masks vector shift amounts to SEW-1 bits.
            mask = f"andi {en}, {en}, {step * 8 - 1}\n" if is_shift else ""
            return (
                f"{tag}:\n"
                f"{ld} {an}, {vs2o}({bn})\n"
                f"{ld} {en}, {vs1o}({bn})\n"
                f"{mask}"
                f"{op} {an}, {an}, {en}\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            + loop(l32, "lw", "sw", op32, 4)
            + f"j {done}\n"
            + loop(l64, "ld", "sd", op64, 8)
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d, e]

    def _emit_vmacc(self, instr: Instruction, label) -> tuple[str, list[int]]:
        a, b, d, e = pick_scratch(set(), 4)
        an, bn, dn, en = (reg_name(r) for r in (a, b, d, e))
        save, restore = self._save_restore([a, b, d, e])
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = label("w32"), label("w64"), label("done")

        def loop(tag, ld, st, mul, add, step):
            return (
                f"{tag}:\n"
                f"{ld} {an}, {vs1o}({bn})\n"
                f"{ld} {en}, {vs2o}({bn})\n"
                f"{mul} {an}, {an}, {en}\n"
                f"{ld} {en}, {vdo}({bn})\n"
                f"{add} {an}, {an}, {en}\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            + loop(l32, "lw", "sw", "mulw", "addw", 4)
            + f"j {done}\n"
            + loop(l64, "ld", "sd", "mul", "add", 8)
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d, e]

    def _emit_vadd_vx(self, instr: Instruction, label) -> tuple[str, list[int]]:
        """All implemented ``<op>.vx`` forms: elementwise vs2 op x."""
        op64 = {"vadd.vx": "add", "vsub.vx": "sub", "vmul.vx": "mul",
                "vsll.vx": "sll", "vsrl.vx": "srl", "vsra.vx": "sra"}[instr.mnemonic]
        op32 = {"add": "addw", "sub": "subw", "mul": "mulw",
                "sll": "sllw", "srl": "srlw", "sra": "sraw"}[op64]
        is_shift = op64 in ("sll", "srl", "sra")
        exclude = {instr.rs1}
        a, b, d, e = pick_scratch(exclude, 4)
        an, bn, dn = (reg_name(r) for r in (a, b, d))
        save, restore = self._save_restore([a, b, d, e])
        vs2o, vdo = self.ctx.vreg_off(instr.vs2), self.ctx.vreg_off(instr.vd)
        load_x = self._read_source_reg(e, instr.rs1, [a, b, d, e])
        xn = reg_name(e)
        l32, l64, done = label("w32"), label("w64"), label("done")

        def loop(tag, ld, st, op, step):
            mask = f"andi {xn}, {xn}, {step * 8 - 1}\n" if is_shift else ""
            return (
                f"{mask}"
                f"{tag}:\n"
                f"{ld} {an}, {vs2o}({bn})\n"
                f"{op} {an}, {an}, {xn}\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"{load_x}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            + loop(l32, "lw", "sw", op32, 4)
            + f"j {done}\n"
            + loop(l64, "ld", "sd", op64, 8)
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d, e]

    def _emit_vminmax(self, instr: Instruction, label) -> tuple[str, list[int]]:
        """vmin/vmax (signed and unsigned): compare-and-select loops."""
        mnem = instr.mnemonic
        signed = mnem in ("vmin.vv", "vmax.vv")
        is_min = mnem in ("vmin.vv", "vminu.vv")
        branch = ("blt" if signed else "bltu") if is_min else ("bge" if signed else "bgeu")
        a, b, d, e = pick_scratch(set(), 4)
        an, bn, dn, en = (reg_name(r) for r in (a, b, d, e))
        save, restore = self._save_restore([a, b, d, e])
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64, done = label("w32"), label("w64"), label("done")

        def loop(tag, ld, st, step, k):
            keep = label(f"keep{k}")
            # 32-bit unsigned compares need zero-extended operands.
            ldu = "lwu" if (step == 4 and not signed) else ld
            return (
                f"{tag}:\n"
                f"{ldu} {an}, {vs2o}({bn})\n"
                f"{ldu} {en}, {vs1o}({bn})\n"
                f"{branch} {an}, {en}, {keep}\n"
                f"mv {an}, {en}\n"
                f"{keep}:\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            + loop(l32, "lw", "sw", 4, "a")
            + f"j {done}\n"
            + loop(l64, "ld", "sd", 8, "b")
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d, e]

    def _emit_vmv_x_s(self, instr: Instruction, label) -> tuple[str, list[int]]:
        """rd <- sign-extended element 0 of vs2."""
        exclude = {instr.rd}
        (b,) = pick_scratch(exclude, 1)
        bn, rdn = reg_name(b), reg_name(instr.rd)
        save, restore = self._save_restore([b])
        vs2o = self.ctx.vreg_off(instr.vs2)
        l64, done = label("w64"), label("done")
        set_rd_32 = f"lw {rdn}, {vs2o}({bn})\n" if instr.rd != 0 else ""
        set_rd_64 = f"ld {rdn}, {vs2o}({bn})\n" if instr.rd != 0 else ""
        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {bn}, {SEW_OFF}({bn})\n"
            f"addi {bn}, {bn}, -64\n"
            f"beqz {bn}, {l64}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"{set_rd_32}"
            f"j {done}\n"
            f"{l64}:\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"{set_rd_64}"
            f"{done}:\n"
            f"{restore}"
        )
        return body, [b]

    def _emit_vadd_vi(self, instr: Instruction, label) -> tuple[str, list[int]]:
        a, b, d = pick_scratch(set(), 3)
        an, bn, dn = (reg_name(r) for r in (a, b, d))
        save, restore = self._save_restore([a, b, d])
        vs2o, vdo = self.ctx.vreg_off(instr.vs2), self.ctx.vreg_off(instr.vd)
        l32, l64, done = label("w32"), label("w64"), label("done")

        def loop(tag, ld, st, add, step):
            return (
                f"{tag}:\n"
                f"{ld} {an}, {vs2o}({bn})\n"
                f"{add} {an}, {an}, {instr.imm}\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            + loop(l32, "lw", "sw", "addiw", 4)
            + f"j {done}\n"
            + loop(l64, "ld", "sd", "addi", 8)
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d]

    def _emit_vmv(self, instr: Instruction, label) -> tuple[str, list[int]]:
        exclude = {instr.rs1} if instr.rs1 is not None else set()
        a, b, d = pick_scratch(exclude, 3)
        an, bn, dn = (reg_name(r) for r in (a, b, d))
        save, restore = self._save_restore([a, b, d])
        vdo = self.ctx.vreg_off(instr.vd)
        l32, l64, done = label("w32"), label("w64"), label("done")
        if instr.mnemonic == "vmv.v.x":
            src = self._read_source_reg(a, instr.rs1, [a, b, d])
        else:
            src = f"li {an}, {instr.imm}"

        def loop(tag, st, step):
            return (
                f"{tag}:\n"
                f"{st} {an}, {vdo}({bn})\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        # The sew check uses `a` before `src` overwrites it with the value.
        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {an}, {SEW_OFF}({bn})\n"
            f"beqz {dn}, {done}\n"
            f"addi {an}, {an}, -64\n"
            f"beqz {an}, {l64}\n"
            f"{src}\n"
            + loop(l32, "sw", 4)
            + f"j {done}\n"
            f"{l64}:\n"
            f"{src}\n"
            + loop(l64 + "_b", "sd", 8)
            + f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d]

    def _emit_vredsum(self, instr: Instruction, label) -> tuple[str, list[int]]:
        a, b, d, e = pick_scratch(set(), 4)
        an, bn, dn, en = (reg_name(r) for r in (a, b, d, e))
        save, restore = self._save_restore([a, b, d, e])
        vs1o, vs2o, vdo = (self.ctx.vreg_off(v) for v in (instr.vs1, instr.vs2, instr.vd))
        l32, l64 = label("w32"), label("w64")
        st32, st64, done = label("st32"), label("st64"), label("done")

        def loop(tag, ld, add, step):
            return (
                f"{tag}:\n"
                f"{ld} {en}, {vs2o}({bn})\n"
                f"{add} {an}, {an}, {en}\n"
                f"addi {bn}, {bn}, {step}\n"
                f"addi {dn}, {dn}, -1\n"
                f"bnez {dn}, {tag}\n"
            )

        body = (
            f"{save}\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"ld {dn}, {VL_OFF}({bn})\n"
            f"ld {en}, {SEW_OFF}({bn})\n"
            f"addi {en}, {en}, -64\n"
            f"beqz {en}, {l64}\n"
            f"lw {an}, {vs1o}({bn})\n"
            f"beqz {dn}, {st32}\n"
            + loop(l32, "lw", "addw", 4)
            + f"{st32}:\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"sw {an}, {vdo}({bn})\n"
            f"j {done}\n"
            f"{l64}:\n"
            f"ld {an}, {vs1o}({bn})\n"
            f"beqz {dn}, {st64}\n"
            + loop(l64 + "_b", "ld", "add", 8)
            + f"{st64}:\n"
            f"li {bn}, {self.ctx.vregs_base}\n"
            f"sd {an}, {vdo}({bn})\n"
            f"{done}:\n"
            f"{restore}"
        )
        return body, [a, b, d, e]
