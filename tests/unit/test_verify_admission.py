"""Static admission gate: every patched region verified before release.

The gate checks four independent invariants per region — encoding
(golden bytes + SMILE bit pins), trampoline target, CFG of the
relocated window, and a randomized differential oracle — so a single
corrupted byte must trip several of them at once.
"""

import json

import pytest

from repro.chaos.harness import build_erroneous_workload
from repro.core.rewriter import ChimeraRewriter
from repro.isa.extensions import RV64GC
from repro.verify import AdmissionGate, PatchRecord, record_for, verify_binary


@pytest.fixture(scope="module")
def rewrite():
    original = build_erroneous_workload()
    rewritten = ChimeraRewriter().rewrite(original, RV64GC).binary
    return original, rewritten


def fresh_rewrite():
    """A private (original, rewritten) pair tests may corrupt."""
    original = build_erroneous_workload()
    return original, ChimeraRewriter().rewrite(original, RV64GC).binary


def smile_records(rewritten):
    records = rewritten.metadata["chimera"]["patch_records"]
    return [r for r in records if r.kind in ("smile", "smile-dp")]


def test_gate_default_executor_follows_jobs(rewrite):
    """No executor given: process when jobs > 1, otherwise serial."""
    original, rewritten = rewrite
    assert AdmissionGate(original, rewritten).executor == "serial"
    assert AdmissionGate(original, rewritten, jobs=2).executor == "process"
    with pytest.raises(ValueError):
        AdmissionGate(original, rewritten, jobs=2, executor="thread")


def test_gate_admits_clean_rewrite(rewrite):
    original, rewritten = rewrite
    report = verify_binary(original, rewritten)
    assert report.ok
    assert report.counts()["rejected"] == 0
    assert report.counts()["admitted"] == len(
        rewritten.metadata["chimera"]["patch_records"])
    assert "admission verdict: PASS" in report.summary()


def test_gate_rejects_corrupted_trampoline():
    original, rewritten = fresh_rewrite()
    rec = smile_records(rewritten)[0]
    rewritten.section_at(rec.start).write(rec.start, b"\x00\x00\x00\x00")
    report = verify_binary(original, rewritten, oracle_trials=1)
    assert not report.ok
    (verdict,) = [r for r in report.rejected if r.start == rec.start]
    failed = {c.name for c in verdict.failures}
    # Corruption must trip the encoding check at minimum; the target
    # check goes with it because the auipc head is gone.
    assert "encoding" in failed
    assert "target" in failed
    assert rec.start not in report.admitted_starts
    assert "admission verdict: FAIL" in report.summary()


def test_gate_rejects_flipped_target_bits():
    """Flipping the jalr offset leaves a well-formed trampoline that
    points somewhere wrong — the target/oracle lenses must catch what
    byte-comparison alone would also catch, independently."""
    original, rewritten = fresh_rewrite()
    rec = smile_records(rewritten)[0]
    sec = rewritten.section_at(rec.start)
    off = rec.start + 4 - sec.addr
    word = int.from_bytes(sec.data[off:off + 4], "little")
    sec.write(rec.start + 4, (word ^ (1 << 22)).to_bytes(4, "little"))
    report = verify_binary(original, rewritten, oracle_trials=1)
    assert not report.ok
    (verdict,) = [r for r in report.rejected if r.start == rec.start]
    assert any(c.name in ("target", "cfg", "oracle") for c in verdict.failures)


def test_gate_requires_chimera_metadata(rewrite):
    original, _ = rewrite
    with pytest.raises(ValueError):
        AdmissionGate(original, original)


def test_max_oracle_regions_reports_skips(rewrite):
    original, rewritten = rewrite
    n_records = len(rewritten.metadata["chimera"]["patch_records"])
    report = AdmissionGate(
        original, rewritten, oracle_trials=1, max_oracle_regions=1,
    ).verify()
    assert report.ok
    assert report.counts()["oracle_skipped"] == max(0, n_records - 1)


def test_report_json_roundtrip(rewrite, tmp_path):
    original, rewritten = rewrite
    report = verify_binary(original, rewritten, oracle_trials=1)
    path = tmp_path / "verify.json"
    report.write_json(path)
    doc = json.loads(path.read_text())
    assert doc["ok"] is True
    assert doc["counts"]["regions"] == len(doc["regions"])
    for region in doc["regions"]:
        assert {"admitted", "checks", "start", "end", "kind"} <= set(region)
        assert all({"name", "passed", "detail"} <= set(c) for c in region["checks"])


def test_patch_record_state_roundtrip(rewrite):
    _, rewritten = rewrite
    for rec in rewritten.metadata["chimera"]["patch_records"]:
        clone = PatchRecord.from_state(rec.as_state())
        assert clone == rec


def test_record_for_covers_interiors(rewrite):
    _, rewritten = rewrite
    records = rewritten.metadata["chimera"]["patch_records"]
    rec = records[0]
    assert record_for(records, rec.start) is rec
    assert record_for(records, rec.end - 1) is rec
    assert record_for(records, rec.end) is not rec
    assert record_for(records, None) is None


def test_oracle_seed_is_deterministic(rewrite):
    original, rewritten = rewrite
    a = verify_binary(original, rewritten, seed=7, oracle_trials=2)
    b = verify_binary(original, rewritten, seed=7, oracle_trials=2)
    assert a.as_dict() == b.as_dict()
