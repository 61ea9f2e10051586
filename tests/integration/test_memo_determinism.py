"""Process-wide memos never carry state from one rewrite job to another.

The piece memo (assembler) and the decode memo live for the whole
process and are shared by every job it runs.  A job's admission ledger
and its published release must not depend on which jobs ran before it.
"""

from __future__ import annotations

import pytest

import repro.isa.decoding as decoding
from repro.core.pipeline import rewrite_and_verify
from repro.isa.assembler import _assemble_piece_memo
from repro.isa.extensions import RV64GC
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import SyntheticBinary

SEED = 7
SCALE = 256
#: cam4_s is vector-hot; gcc_r and omnetpp_s are scalar-heavy.
CHECKED = ("cam4_s", "gcc_r", "omnetpp_s")
OTHERS = ("imagick_r", "perlbench_r")


def _empty_memos() -> None:
    _assemble_piece_memo.cache_clear()
    decoding._DECODE_MEMO.clear()


def _release(name: str, cache_dir) -> tuple[str, bytes]:
    binary = SyntheticBinary(PROFILES[name], scale=SCALE).build()
    pipe = rewrite_and_verify(binary, RV64GC, seed=SEED, cache_dir=cache_dir)
    published = sorted(cache_dir.rglob("*.self"))
    assert len(published) == 1
    return pipe.report.to_json(), published[0].read_bytes()


@pytest.mark.parametrize("name", CHECKED)
def test_release_independent_of_earlier_jobs(name, tmp_path):
    _empty_memos()
    cold = _release(name, tmp_path / "cold")

    _empty_memos()
    for i, other in enumerate(OTHERS + tuple(n for n in CHECKED if n != name)):
        _release(other, tmp_path / f"other-{i}")
    assert _assemble_piece_memo.cache_info().currsize > 0
    assert decoding._DECODE_MEMO
    warm = _release(name, tmp_path / "warm")

    assert warm[0] == cold[0]
    assert warm[1] == cold[1]
