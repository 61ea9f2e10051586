"""Oracle trial processes cloned from per-side templates.

Each trial must start from the pristine load image: writable segments
are private copies, read-only code is shared with the template, and a
template whose code a trial patched is rebuilt before the next trial.
"""

from __future__ import annotations

import pytest

from repro.chaos.harness import build_erroneous_workload
from repro.core.rewriter import ChimeraRewriter
from repro.elf.binary import Perm
from repro.elf.loader import clone_process, make_process
from repro.isa.extensions import RV64GC
from repro.verify.oracle import DifferentialOracle


@pytest.fixture(scope="module")
def pair():
    original = build_erroneous_workload()
    return original, ChimeraRewriter().rewrite(original, RV64GC).binary


def _image(process) -> dict[str, bytes]:
    return {s.name: bytes(s.data) for s in process.space.segments if Perm.W in s.perm}


def _records(rewritten):
    return rewritten.metadata["chimera"]["patch_records"]


def test_clone_copies_writable_and_shares_code(pair):
    _, rewritten = pair
    template = make_process(rewritten)
    clone = clone_process(template)
    assert [s.name for s in clone.space.segments] == \
        [s.name for s in template.space.segments]
    for mine, theirs in zip(clone.space.segments, template.space.segments):
        if Perm.W in theirs.perm:
            assert mine is not theirs and mine.data is not theirs.data
            assert mine.data == theirs.data
        else:
            assert mine is theirs
    assert (clone.entry, clone.gp, clone.sp) == (template.entry, template.gp, template.sp)


def test_trial_writes_never_reach_the_next_trial(pair, monkeypatch):
    original, rewritten = pair
    pristine = [_image(make_process(original)), _image(make_process(rewritten))]
    oracle = DifferentialOracle(original, rewritten, seed=3, trials=3)
    scribble = oracle._scribble
    seen = []

    def checked(rng, *processes):
        for process, image in zip(processes, pristine):
            assert _image(process) == image
            assert {"[stack]", ".data"} <= set(image)
        seen.append(processes)
        scribble(rng, *processes)
        # Stand-in for a trial's own stores: every writable byte,
        # stack and .chimera.vregs included.
        for process in processes:
            for seg in process.space.segments:
                if Perm.W in seg.perm:
                    seg.data[:] = b"\xa5" * seg.size

    monkeypatch.setattr(oracle, "_scribble", checked)
    for rec in _records(rewritten)[:2]:
        oracle.check_region(rec)
    assert len(seen) == 6
    # Code segments are one object across every trial of a side.
    for side in range(2):
        code = [[s for s in procs[side].space.segments if Perm.W not in s.perm]
                for procs in seen]
        assert code[0]
        for later in code[1:]:
            assert all(a is b for a, b in zip(code[0], later))


def test_patched_code_rebuilds_the_template(pair, monkeypatch):
    original, rewritten = pair
    rec = _records(rewritten)[0]
    golden = bytes(rewritten.section_at(rec.start).read(rec.start, 4))
    clean = DifferentialOracle(original, rewritten, seed=5, trials=3).check_region(rec)

    oracle = DifferentialOracle(original, rewritten, seed=5, trials=3)
    run_side = oracle._run_side
    rewritten_sides = []

    def patching(binary, process, profile, rec_, regs, *, runtime):
        if runtime:
            rewritten_sides.append(process)
            assert bytes(process.space.read(rec.start, 4)) == golden
        result = run_side(binary, process, profile, rec_, regs, runtime=runtime)
        if runtime:
            # A kernel-privilege code patch lands in the shared segment.
            process.space.patch_code(rec.start, b"\x00\x00\x00\x00")
        return result

    monkeypatch.setattr(oracle, "_run_side", patching)
    first = oracle._template("r")
    assert oracle.check_region(rec) == clean
    assert len(rewritten_sides) == 3
    assert oracle._template("r") is not first
    text = [p.space.segment_at(rec.start) for p in rewritten_sides]
    assert len({id(seg) for seg in text}) == 3  # rebuilt before every trial
