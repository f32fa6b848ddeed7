"""MP_PRIO TCP option encoding and decoding.

MP_PRIO is the MPTCP option that signals a sub-flow priority change to the
remote host. The byte layout follows RFC 6824 section 3.3.8:

    +--------+--------+--------+--------+
    | kind=30| length |subtype |addr_id |
    |        | (3|4)  |  |rsv|B|(if l=4)|
    +--------+--------+--------+--------+

The third byte carries the subtype (5) in the high nibble, three reserved
bits, and the backup flag B as the lowest bit. Reserved bits are written as
zero and ignored on decode.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

MP_PRIO_KIND = 30
MP_PRIO_SUBTYPE = 5


class OptionError(ValueError):
    """Base class for MP_PRIO codec errors, among them a field out of range."""


class NotMpPrioError(OptionError):
    """The buffer is not an MP_PRIO option (wrong kind or subtype)."""


class MalformedOptionError(OptionError):
    """The buffer claims to be MP_PRIO but violates the length rules."""


class _MpPrioOptionFields(NamedTuple):
    backup_flag: bool
    addr_id: Optional[int] = None


class MpPrioOption(_MpPrioOptionFields):
    """A single priority-change signal, as a named tuple checked when built.

    ``addr_id``, RFC 6824's optional address id, names an address, not a
    sub-flow: the option applies to the sub-flow it arrives on.
    """

    __slots__ = ()

    def __new__(cls, backup_flag: bool, addr_id: Optional[int] = None) -> MpPrioOption:
        if addr_id is not None and not 0 <= addr_id <= 0xFF:
            raise OptionError(f"MP_PRIO addr_id out of range: {addr_id} (0-255)")
        return super().__new__(cls, backup_flag, addr_id)


def encode_mp_prio(opt: MpPrioOption) -> bytes:
    """Encode ``opt`` into its 3- or 4-byte wire form."""
    flags = (MP_PRIO_SUBTYPE << 4) | (1 if opt.backup_flag else 0)
    if opt.addr_id is None:
        return bytes((MP_PRIO_KIND, 3, flags))
    return bytes((MP_PRIO_KIND, 4, flags, opt.addr_id))


def decode_mp_prio(data: bytes) -> MpPrioOption:
    """Decode one MP_PRIO option from ``data``.

    Raises :class:`NotMpPrioError` when the kind byte or subtype nibble does
    not identify MP_PRIO, and :class:`MalformedOptionError` when ``data`` is
    not a ``bytes``, ``bytearray`` or ``memoryview`` buffer or its length
    byte is not 3 or 4 or does not match it. Never raises anything else,
    regardless of input.
    """
    if not isinstance(data, bytes):
        if not isinstance(data, (bytearray, memoryview)):
            raise MalformedOptionError(f"not a byte buffer: {type(data).__name__}")
        try:
            data = bytes(data)
        except ValueError as exc:  # a released memoryview
            raise MalformedOptionError(str(exc)) from None
    if len(data) < 1:
        raise MalformedOptionError("empty buffer")
    if data[0] != MP_PRIO_KIND:
        raise NotMpPrioError(f"kind {data[0]} is not MP_PRIO (30)")
    if len(data) < 3:
        raise MalformedOptionError(f"truncated option: {len(data)} bytes")
    length = data[1]
    if length not in (3, 4):
        raise MalformedOptionError(f"illegal MP_PRIO length {length}")
    if len(data) != length:
        raise MalformedOptionError(
            f"length byte says {length}, buffer has {len(data)} bytes"
        )
    if data[2] >> 4 != MP_PRIO_SUBTYPE:
        raise NotMpPrioError(f"subtype {data[2] >> 4} is not MP_PRIO (5)")
    backup = bool(data[2] & 0x01)
    addr_id = data[3] if length == 4 else None
    return MpPrioOption(backup_flag=backup, addr_id=addr_id)
