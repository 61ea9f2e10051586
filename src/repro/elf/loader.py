"""Loader: map a :class:`~repro.elf.binary.Binary` into an address space.

The loader also builds :class:`~repro.sim.machine.Process` objects with
psABI-correct initial state (gp = ``__global_pointer$``, sp = stack top).
Data segments can be mapped *shared* (same backing bytearray) across
several address spaces — the primitive MMViews are built from.
"""

from __future__ import annotations

from typing import Optional

from repro.elf.binary import Binary, Perm
from repro.sim.machine import Process
from repro.sim.memory import AddressSpace, MemorySegment

#: Default stack placement when the binary does not specify one.
DEFAULT_STACK_TOP = 0x7F_F000
DEFAULT_STACK_SIZE = 0x2_0000


def load_binary(
    binary: Binary,
    *,
    space: Optional[AddressSpace] = None,
    share_data_from: Optional[AddressSpace] = None,
    copy_sections: bool = True,
    with_stack: bool = True,
) -> AddressSpace:
    """Map *binary* into *space* (a fresh one by default).

    ``share_data_from`` makes writable segments alias the ones already
    mapped in another address space instead of getting fresh copies —
    every MMView of a process must see the same data pages (§4.3).
    ``copy_sections=False`` maps the binary's own bytearrays directly
    (writes through the space then mutate the Binary; used by tests).
    """
    space = space or AddressSpace(binary.name)
    for section in binary.sections:
        if share_data_from is not None and Perm.W in section.perm:
            shared = share_data_from.segment_at(section.addr)
            if shared is None:
                raise ValueError(f"no shared segment at {section.addr:#x} for {section.name}")
            space.map_segment(MemorySegment(shared.name, shared.base, shared.data, shared.perm))
            continue
        data = bytearray(section.data) if copy_sections else section.data
        space.map(section.name, section.addr, data, section.perm)
    if with_stack:
        top = int(binary.metadata.get("stack_top", DEFAULT_STACK_TOP))
        size = int(binary.metadata.get("stack_size", DEFAULT_STACK_SIZE))
        if share_data_from is not None:
            shared = share_data_from.segment_at(top - size)
            if shared is not None:
                space.map_segment(MemorySegment(shared.name, shared.base, shared.data, shared.perm))
            else:
                space.map("[stack]", top - size, size, Perm.RW)
        else:
            space.map("[stack]", top - size, size, Perm.RW)
    return space


def make_process(binary: Binary, *, name: Optional[str] = None) -> Process:
    """Load *binary* into a fresh space and wrap it in a ready Process."""
    space = load_binary(binary)
    top = int(binary.metadata.get("stack_top", DEFAULT_STACK_TOP))
    return Process(
        name or binary.name,
        space,
        binary.entry,
        gp=binary.global_pointer,
        sp=top - 64,  # small red zone below the top
    )


def clone_process(template: Process, *, name: Optional[str] = None) -> Process:
    """A fresh Process with *template*'s initial memory image.

    Writable segments (data, ``.chimera.vregs``, stack) are copied.
    Non-writable segments are shared by reference: ``AddressSpace.write``
    refuses them, so only a kernel ``patch_code`` (which bumps the
    segment's ``version``) can change them under every clone.  Callers
    that may patch code must check those versions before cloning again.
    """
    space = AddressSpace(template.space.name)
    for seg in template.space.segments:
        if Perm.W in seg.perm:
            seg = MemorySegment(seg.name, seg.base, bytearray(seg.data), seg.perm)
        space.segments.append(seg)
    return Process(name or template.name, space, template.entry,
                   gp=template.gp, sp=template.sp)
