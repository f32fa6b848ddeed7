import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpflow.wire import (
    MalformedOptionError,
    MpPrioOption,
    NotMpPrioError,
    OptionError,
    decode_mp_prio,
    encode_mp_prio,
)


def pack_mp_prio(backup: bool, addr_id=None) -> bytes:
    """Independent bit-packing oracle for the option layout."""
    third = (5 << 4) | int(backup)
    if addr_id is None:
        return struct.pack("!BBB", 30, 3, third)
    return struct.pack("!BBBB", 30, 4, third, addr_id)


def test_encode_backup_without_addr_id():
    assert encode_mp_prio(MpPrioOption(True)) == bytes([0x1E, 0x03, 0x51])


def test_encode_active_clears_backup_bit():
    assert encode_mp_prio(MpPrioOption(False)) == bytes([0x1E, 0x03, 0x50])


def test_encode_with_addr_id_uses_length_four():
    assert encode_mp_prio(MpPrioOption(True, 5)) == bytes([0x1E, 0x04, 0x51, 0x05])


@given(st.booleans(), st.one_of(st.none(), st.integers(0, 255)))
def test_encode_matches_bit_packing_oracle(backup, addr_id):
    assert encode_mp_prio(MpPrioOption(backup, addr_id)) == pack_mp_prio(backup, addr_id)


def test_decode_golden():
    assert decode_mp_prio(bytes([0x1E, 0x03, 0x51])) == MpPrioOption(True)
    assert decode_mp_prio(bytes([0x1E, 0x04, 0x50, 0x07])) == MpPrioOption(False, 7)


def test_decode_rejects_illegal_length():
    with pytest.raises(MalformedOptionError):
        decode_mp_prio(bytes([0x1E, 0x05, 0x51, 0x00, 0x00]))


def test_decode_rejects_truncated_buffer():
    with pytest.raises(MalformedOptionError):
        decode_mp_prio(bytes([0x1E, 0x04, 0x51]))


def test_decode_rejects_wrong_kind():
    with pytest.raises(NotMpPrioError):
        decode_mp_prio(bytes([0x1D, 0x03, 0x51]))


def test_decode_rejects_wrong_subtype():
    with pytest.raises(NotMpPrioError):
        decode_mp_prio(bytes([0x1E, 0x03, 0x41]))


def test_decode_ignores_reserved_bits():
    # 0x5F carries subtype 5, reserved bits 111, B=1
    assert decode_mp_prio(bytes([0x1E, 0x03, 0x5F])) == MpPrioOption(True)
    assert decode_mp_prio(bytes([0x1E, 0x03, 0x5E])) == MpPrioOption(False)


def test_addr_id_out_of_range_rejected():
    with pytest.raises(ValueError):
        MpPrioOption(True, 256)


@given(st.booleans(), st.one_of(st.none(), st.integers(0, 255)))
def test_roundtrip_is_identity(backup, addr_id):
    opt = MpPrioOption(backup, addr_id)
    assert decode_mp_prio(encode_mp_prio(opt)) == opt


@given(st.booleans(), st.one_of(st.none(), st.integers(0, 255)))
def test_encoded_length_equals_length_byte(backup, addr_id):
    encoded = encode_mp_prio(MpPrioOption(backup, addr_id))
    assert len(encoded) == encoded[1]


@given(st.binary(max_size=8))
def test_decode_total_on_arbitrary_bytes(data):
    try:
        opt = decode_mp_prio(data)
    except OptionError:
        return
    assert isinstance(opt, MpPrioOption)


@pytest.mark.parametrize(
    "data", [None, "ab", -1, 0, 3, 1.5, [30, 3, 81]], ids=repr
)
def test_decode_refuses_what_is_not_a_byte_buffer(data):
    # bytes() would read an int n as n zero bytes, and let a str, None or
    # a negative int out as a bare TypeError or ValueError.
    with pytest.raises(MalformedOptionError, match="not a byte buffer"):
        decode_mp_prio(data)


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_decode_reads_any_byte_buffer_as_its_bytes(wrap):
    assert decode_mp_prio(wrap(b"\x1e\x04\x51\x07")) == MpPrioOption(True, 7)
    released = memoryview(b"\x1e\x03\x51")
    released.release()
    with pytest.raises(MalformedOptionError):
        decode_mp_prio(released)


def test_option_takes_its_fields_by_keyword_with_addr_id_defaulting_to_none():
    opt = MpPrioOption(backup_flag=True)
    assert (opt.backup_flag, opt.addr_id) == (True, None)
    assert MpPrioOption(backup_flag=False, addr_id=255).addr_id == 255
    assert MpPrioOption(True, 0) == MpPrioOption(backup_flag=True, addr_id=0)


@pytest.mark.parametrize("addr_id", [-1, 256, 1 << 16])
def test_addr_id_is_checked_when_built(addr_id):
    with pytest.raises(OptionError, match="addr_id out of range"):
        MpPrioOption(backup_flag=True, addr_id=addr_id)


def test_options_compare_and_hash_by_value_and_are_frozen():
    opt = MpPrioOption(True, 3)
    assert {opt: 1}[MpPrioOption(True, 3)] == 1
    assert opt != MpPrioOption(False, 3) and opt != MpPrioOption(True)
    with pytest.raises(AttributeError):
        opt.backup_flag = False
    with pytest.raises(AttributeError):
        opt.extra = 1
