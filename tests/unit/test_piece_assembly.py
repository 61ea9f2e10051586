"""Target blocks laid out from separately assembled pieces.

The patcher assembles each piece of a target block (gp prologue, copy,
translated source, upgrade body, exit slot, epilogue copy, trap ebreak)
alone and memoizes it by canonical text.  The concatenation must equal
assembling the whole block text at its final address, for every piece
kind, both translation modes and every trampoline flavor.
"""

from __future__ import annotations

import pytest

import repro.core.patcher as patcher_mod
from repro.core.patcher import ChbpPatcher
from repro.isa.assembler import (
    PIECE_MEMO_SIZE,
    AssemblyError,
    Assembler,
    _assemble_piece_memo,
    assemble_piece,
)
from repro.isa.extensions import RV64GC, RV64GCV
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

#: cam4_s is vector-hot; rewritten for rv64gcv every profile has an
#: upgrade site (whose window also yields an epilogue).
PROFILE_NAMES = ("cam4_s", "gcc_r", "omnetpp_s")
SCALE = 256


@pytest.fixture(scope="module")
def binaries():
    return {n: SyntheticBinary(PROFILES[n], scale=SCALE).build() for n in PROFILE_NAMES}


def _whole_text(pieces) -> str:
    return "\n".join((f"{label}:\n" if label else "") + text for label, text in pieces)


class _Recorder:
    """Wraps ``_link_pieces`` and ``_emit_block`` to check every block."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.kinds: set[str] = set()
        link = patcher_mod._link_pieces
        emit = ChbpPatcher._emit_block

        def checked_link(pieces, place):
            addr, code, labels = link(pieces, place)
            whole = Assembler(base=addr).assemble(_whole_text(pieces))
            assert bytes(code) == whole.code
            for label, value in labels.items():
                assert whole.labels[label] == value
            self.blocks += 1
            if len(pieces) == 2 and pieces[1] == (None, "ebreak"):
                self.kinds.add("trap")
            if any(label == ".Lepi_exit" for label, _ in pieces):
                self.kinds.add("epilogue")
            if pieces[0][1].startswith("li gp,"):
                self.kinds.add("prologue")
            return addr, code, labels

        def recording_emit(patcher, main, *args, **kwargs):
            self.kinds.update(kind for kind, _ in main)
            return emit(patcher, main, *args, **kwargs)

        monkeypatch.setattr(patcher_mod, "_link_pieces", checked_link)
        monkeypatch.setattr(ChbpPatcher, "_emit_block", recording_emit)


@pytest.mark.parametrize("mode", ["full", "empty"])
def test_piece_blocks_match_whole_block_assembly(binaries, monkeypatch, mode):
    rec = _Recorder(monkeypatch)
    configs = [
        dict(target=RV64GC),
        dict(target=RV64GCV),
        dict(target=RV64GC, use_smile=False),
        dict(target=RV64GC, smile_register="data-pointer"),
    ]
    for binary in binaries.values():
        for cfg in configs:
            cfg = dict(cfg)
            target = cfg.pop("target")
            ChbpPatcher(binary, target, mode=mode, **cfg).patch()
    assert rec.blocks > 100
    expected = {"copy", "source", "trap", "prologue"}
    if mode == "full":
        expected |= {"upgrade", "epilogue"}
    assert expected <= rec.kinds


def test_memo_serves_repeated_templates():
    """Per-call label numbering does not defeat the memo."""
    _assemble_piece_memo.cache_clear()
    first = assemble_piece("beqz a0, .Lt1_done1\naddi a0, a0, 1\n.Lt1_done1:")
    second = assemble_piece("beqz a0, .Lt9_done1\naddi a0, a0, 1\n.Lt9_done1:")
    assert first == second
    info = _assemble_piece_memo.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert info.maxsize == PIECE_MEMO_SIZE


def test_distinct_label_structure_keeps_distinct_keys():
    a = assemble_piece(".La:\nbeqz a0, .La\nbeqz a0, .Lb\n.Lb:")
    b = assemble_piece(".La:\nbeqz a0, .Lb\nbeqz a0, .La\n.Lb:")
    assert a == Assembler().assemble(".La:\nbeqz a0, .La\nbeqz a0, .Lb\n.Lb:").code
    assert b == Assembler().assemble(".La:\nbeqz a0, .Lb\nbeqz a0, .La\n.Lb:").code
    assert a != b


@pytest.mark.parametrize("source", [
    ".align 3\nnop",
    "nop\n.align 2\nnop",
    "la a0, 0x1000",
])
def test_position_dependent_piece_is_refused_and_never_memoized(source):
    _assemble_piece_memo.cache_clear()
    for _ in range(2):
        with pytest.raises(AssemblyError):
            assemble_piece(source)
    assert _assemble_piece_memo.cache_info().currsize == 0


def test_la_of_a_local_label_is_position_independent():
    source = "la a0, .Lx\nnop\n.Lx:"
    assert assemble_piece(source) == Assembler(base=0x4000).assemble(source).code
