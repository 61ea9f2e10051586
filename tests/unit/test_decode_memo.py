"""The decoder's per-encoding memo.

A memo hit must be indistinguishable from a fresh decode: a new
``Instruction`` the caller owns, stamped with the caller's address.
Illegal encodings raise the same ``kind`` on every call and never
enter the memo, which stays within its bound.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.isa.decoding as decoding
from repro.isa.decoding import IllegalEncodingError, _decode32, _decode_c, decode
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction


@pytest.fixture
def memo(monkeypatch):
    fresh: dict[int, tuple] = {}
    monkeypatch.setattr(decoding, "_DECODE_MEMO", fresh)
    return fresh


def test_hit_returns_a_fresh_instruction(memo):
    data = encode(Instruction("addi", rd=10, rs1=11, imm=-7))
    first = decode(data, 0, addr=0x1000)
    first.rd = 3
    first.imm = 99
    first.mnemonic = "xori"
    second = decode(data, 0, addr=0x2000)
    assert second is not first
    assert (second.mnemonic, second.rd, second.rs1, second.imm, second.addr) == \
        ("addi", 10, 11, -7, 0x2000)
    assert decode(data).addr is None
    assert len(memo) == 1


def test_compressed_and_wide_keys_coexist(memo):
    wide = encode(Instruction("add", rd=1, rs1=2, rs2=3))
    narrow = encode(Instruction("c.add", rd=9, rs1=9, rs2=10, length=2))
    for _ in range(2):
        assert decode(wide).mnemonic == "add"
        assert decode(narrow).mnemonic == "c.add"
        assert decode(narrow + wide, 2).mnemonic == "add"
    assert len(memo) == 2


@pytest.mark.parametrize("data, kind", [
    (b"\x00\x00", "reserved-compressed"),
    (b"\x01\x20", "reserved-compressed"),  # c.addiw rd=x0
    (b"\x1f\x00\x00\x00", "long-prefix"),
    (b"\x13", "truncated"),
    (b"\x13\x05", "truncated"),
    (b"\x7b\x00\x00\x00", "unknown"),
])
def test_illegal_raises_every_time_and_is_never_memoized(memo, data, kind):
    for _ in range(3):
        with pytest.raises(IllegalEncodingError) as exc:
            decode(data)
        assert exc.value.kind == kind
    assert memo == {}


def test_memo_stays_within_its_bound(memo, monkeypatch):
    monkeypatch.setattr(decoding, "DECODE_MEMO_SIZE", 8)
    for round_ in range(2):
        for imm in range(40):
            instr = decode(encode(Instruction("addi", rd=5, rs1=6, imm=imm)))
            assert instr.imm == imm
            assert len(memo) <= 8


@settings(max_examples=300, deadline=None)
@given(word=st.integers(min_value=0, max_value=0xFFFFFFFF), addr=st.integers(0, 1 << 40))
def test_memoized_decode_matches_uncached(word, addr):
    data = word.to_bytes(4, "little")
    parcel = word & 0xFFFF
    try:
        if parcel & 0b11 != 0b11:
            expected = _decode_c(parcel)
        elif parcel & 0b11111 == 0b11111:
            raise IllegalEncodingError("long", kind="long-prefix")
        else:
            expected = _decode32(word)
    except IllegalEncodingError as exc:
        for _ in range(2):
            with pytest.raises(IllegalEncodingError) as got:
                decode(data, 0, addr=addr)
            assert got.value.kind == exc.kind
        return
    expected.addr = addr
    for _ in range(2):
        assert decode(data, 0, addr=addr) == expected
