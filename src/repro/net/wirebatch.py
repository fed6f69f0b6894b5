"""Batch wire codec: the two measured hot shapes through one flat cursor.

The reference codec in :mod:`repro.net.wire` interprets each message's
declared ``LAYOUT`` (:mod:`repro.core.messages`) — small, obviously
correct, and the only place a message's wire format is written down.
It is also slow: ~40 Python calls per decoded entry (``get_addr`` →
``read_svarint`` → ``read_uvarint`` → …) cap decode throughput around
10⁵ messages per second regardless of I/O.

This module inlines only what the traffic justifies.  On the four A21
workloads :class:`~repro.core.messages.EntryMessage` and
:class:`~repro.core.messages.UpdateDeltaMessage` are most of a
differential refresh's messages, and the
:class:`~repro.core.messages.DeleteRangeMessage` of each qualifier a
``Deletion`` flag forces out most of the rest (10–14 % of the timed
rounds' messages; EXPERIMENTS A21 has the mix).  No value schema
carries anything but int/string/float columns — so the two value
shapes over those three column kinds are hand-inlined here, with
their tags read from the classes, and *every other message* (control,
deletes, upserts, full rows, anti-entropy) and every other column type
is handed to the reference codec mid-frame with the delta state passed
across.  The two paths are therefore byte-identical by construction on
everything but the inlined branch, and the batch round-trip hypothesis
property plus ``TestEveryRegisteredMessage`` pin that branch.

**Encode** (:func:`encode_batch_into`) appends a whole frame to one
``bytearray`` with the varint, address-delta, and column-value codecs
inlined, dispatching on precompiled per-column kind codes
(:func:`compile_plan`) instead of isinstance chains.

**Decode** goes further: the per-schema column walk is *compiled away*.
:func:`decode_batch_payload` runs a decoder function whose source is
generated from the schema plan and ``exec``'d once (the technique
``collections.namedtuple`` uses), so a frame is decoded by straight-line
code with

- a speculative fast path for the dominant refresh shape — a chained
  entry whose two addresses are one-byte same-page deltas and whose
  NULL bitmap is empty — recognized by direct byte comparison at fixed
  offsets and decoded with constant-offset reads;
- varint decoding unrolled for the 1–3 byte cases, with zigzag lookup
  tables (:data:`_ZZ`, :data:`_ZZ2`) replacing the shift/xor dance for
  values up to 14 bits;
- ``prev_qual`` reuse: a refresh stream's ``prev_qual`` is almost
  always the previous entry's address, so the decoder keeps that one
  :class:`Rid` and hands it out again instead of allocating;
- messages built via ``__new__`` plus direct slot stores, skipping
  ``__init__`` frames entirely.

Generated code objects are cached per column-kind signature
(:data:`_CODE_CACHE`), so ``compile()`` runs once per schema *shape*;
binding a decoder to a new codec is a cheap ``exec`` of the cached code
object.  Generation is a pure function of the plan — no clocks, no
randomness — so the decoder for a given schema is deterministic.

replint's L305 rule guards the premise: inside this module (and the
storage-side batch extractor) any reappearance of the per-field helpers
or bare ``struct.pack``/``unpack`` calls is flagged, because one stray
call per field is exactly the overhead this path exists to delete.
"""

from __future__ import annotations

import struct
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Sequence,
    Tuple,
)

from repro.core import messages as msg
from repro.errors import WireError
from repro.relation.schema import Schema
from repro.relation.types import NULL, FloatType, IntType, StringType
from repro.storage.rid import Rid

if TYPE_CHECKING:  # runtime import would be circular: wire.py imports us
    from repro.net.wire import WireCodec, _WireState

_FLOAT = struct.Struct("<d")

#: The two tags whose decode is inlined, read from their declarations.
_ENTRY_TAG = msg.EntryMessage.TAG
_DELTA_TAG = msg.UpdateDeltaMessage.TAG

# Column kind codes: one small int per schema column, so the per-value
# loop dispatches on an integer compare instead of isinstance chains.
_K_INT = 0
_K_STRING = 1
_K_FLOAT = 2
#: Everything else (timestamp and rid columns included — no measured
#: workload's value schema has one): the reference per-value codec.
_K_OTHER = 3

#: A compiled schema plan: (kind codes, column types, NULL-bitmap bytes).
Plan = Tuple[Tuple[int, ...], Tuple[Any, ...], int]

#: Zigzag decode tables: ``_ZZ[b]`` maps a one-byte varint straight to
#: its signed value; ``_ZZ2[u]`` does the same for two-byte (14-bit)
#: varints — a tuple index replaces ``(u >> 1) ^ -(u & 1)`` on the two
#: hottest widths.
_ZZ = tuple((v >> 1) ^ -(v & 1) for v in range(256))
_ZZ2 = tuple((v >> 1) ^ -(v & 1) for v in range(1 << 14))

#: Signature of a generated decoder: (payload, count) -> (messages, end).
Decoder = Callable[[bytes, int], Tuple[List[Any], int]]

#: Compiled decoder code objects, keyed by column-kind signature.
_CODE_CACHE: "Dict[Tuple[int, ...], Any]" = {}


def compile_plan(schema: Schema) -> Plan:
    """Precompute the per-column dispatch for ``schema``."""
    kinds: "List[int]" = []
    ctypes: "List[Any]" = []
    for column in schema.columns:
        ctype = column.ctype
        if isinstance(ctype, IntType):
            kind = _K_INT
        elif isinstance(ctype, StringType):
            kind = _K_STRING
        elif isinstance(ctype, FloatType):
            kind = _K_FLOAT
        else:
            kind = _K_OTHER
        kinds.append(kind)
        ctypes.append(ctype)
    return tuple(kinds), tuple(ctypes), (len(kinds) + 7) // 8


def encode_batch_into(
    codec: "WireCodec",
    out: bytearray,
    messages: "Sequence[Any]",
    state: "_WireState",
) -> None:
    """Append the exact wire encoding of ``messages`` to ``out``.

    Byte-identical to running ``codec.encode_into`` per message with the
    same ``state``.  Only the two measured hot shapes — entries and
    update deltas over int/string/float columns — are inlined here;
    every other message goes to the reference codec.  The state's
    address registers are synchronized on entry/exit and around those
    hand-offs (the time register is only ever touched by the reference
    codec), so callers may freely interleave both paths within one frame.
    """
    kinds, ctypes, bitmap_size = codec._plan
    append = out.append
    prev_page = state.prev_page
    prev_slot = state.prev_slot
    null = NULL
    entry_cls = msg.EntryMessage
    delta_cls = msg.UpdateDeltaMessage

    for message in messages:
        cls = message.__class__
        if cls is entry_cls or cls is delta_cls:
            is_delta = cls is delta_cls
            append(cls.TAG)
            # -- two delta-encoded addresses (addr, prev_qual) ------------
            for rid in (message.addr, message.prev_qual):
                if rid is None:
                    append(0)
                    continue
                page = rid.page_no
                slot = rid.slot_no
                if page == -1 and slot == 0:  # Rid.BEGIN by value
                    append(1)
                elif page == prev_page:
                    append(2)
                    value = slot - prev_slot
                    value = (
                        value << 1 if value >= 0 else ((-value) << 1) - 1
                    )
                    while value >= 0x80:
                        append(value & 0x7F | 0x80)
                        value >>= 7
                    append(value)
                    prev_slot = slot
                else:
                    append(3)
                    value = page - prev_page
                    value = (
                        value << 1 if value >= 0 else ((-value) << 1) - 1
                    )
                    while value >= 0x80:
                        append(value & 0x7F | 0x80)
                        value >>= 7
                    append(value)
                    value = slot
                    if value < 0:
                        raise WireError(
                            f"uvarint cannot encode negative value {value}"
                        )
                    while value >= 0x80:
                        append(value & 0x7F | 0x80)
                        value >>= 7
                    append(value)
                    prev_page = page
                    prev_slot = slot
            # -- column values -------------------------------------------
            if is_delta:
                mask = message.mask
                if mask < 0:
                    raise WireError(
                        f"uvarint cannot encode negative value {mask}"
                    )
                value = mask
                while value >= 0x80:
                    append(value & 0x7F | 0x80)
                    value >>= 7
                append(value)
                positions: "Sequence[int]" = message.positions()
                sub_bitmap = (len(positions) + 7) // 8
            else:
                positions = ()
                sub_bitmap = bitmap_size
            mark = len(out)
            if sub_bitmap == 1:
                append(0)
            elif sub_bitmap:
                out += bytes(sub_bitmap)
            bitmap = 0
            index = 0
            values = message.values
            pairs = (
                zip((kinds[p] for p in positions), values)
                if is_delta
                else zip(kinds, values)
            )
            for kind, value in pairs:
                if kind == 0:  # int
                    if value is null:
                        bitmap |= 1 << index
                    else:
                        value = (
                            value << 1
                            if value >= 0
                            else ((-value) << 1) - 1
                        )
                        while value >= 0x80:
                            append(value & 0x7F | 0x80)
                            value >>= 7
                        append(value)
                elif kind == 1:  # string
                    if value is null:
                        bitmap |= 1 << index
                    else:
                        raw = value.encode("utf-8")
                        length = len(raw)
                        while length >= 0x80:
                            append(length & 0x7F | 0x80)
                            length >>= 7
                        append(length)
                        out += raw
                elif kind == 2:  # float
                    if value is null:
                        bitmap |= 1 << index
                    else:
                        out += _FLOAT.pack(float(value))
                else:  # any other column type: reference per-value encoding
                    position = positions[index] if is_delta else index
                    if value is null and not ctypes[position].inline_null:
                        bitmap |= 1 << index
                    else:
                        from repro.net.wire import _encode_value

                        _encode_value(out, ctypes[position], value)  # replint: ignore[L305] cold fallback for exotic column types
                index += 1
            if bitmap:
                if sub_bitmap == 1:
                    out[mark] = bitmap
                else:
                    out[mark : mark + sub_bitmap] = bitmap.to_bytes(
                        sub_bitmap, "little"
                    )
        else:
            # Every other message (control, upserts, deletes, full rows,
            # anti-entropy): the reference codec interprets its LAYOUT,
            # with the delta state handed across.
            state.prev_page = prev_page
            state.prev_slot = prev_slot
            codec.encode_into(out, message, state)
            prev_page = state.prev_page
            prev_slot = state.prev_slot
    state.prev_page = prev_page
    state.prev_slot = prev_slot


# -- batch decode: per-schema generated decoders -----------------------------
#
# The helpers below render Python source for a decoder specialized to
# one column-kind signature.  Naming inside generated code:
#
#   d / size     payload bytes and len(payload)
#   o            the single read cursor
#   pp / ps      address delta state (prev page / prev slot)
#   lap/las/lar  previous entry's addr (page, slot, Rid object), kept
#                for prev_qual reuse
#   b, u, s, h   varint scratch (byte, value, shift, head byte)
#   vN / lnN     column N's decoded value / a string column's byte length
#   vb / vbx     value_bytes accumulator / exotic-column extra bytes
#   fbs          reference-codec state for hand-offs; it alone holds the
#                frame's time delta


def _lines(pad: int, text: str) -> "List[str]":
    """Split a zero-indent snippet into lines re-indented by ``pad`` levels."""
    indent = "    " * pad
    out = []
    for line in text.strip("\n").split("\n"):
        out.append(indent + line if line else line)
    return out


def _indent_block(text: str, pad: int) -> str:
    return "\n".join(_lines(pad, text))


def _uvarint_src(target: str) -> str:
    """Generic LEB128 read into ``target`` (one-byte fast path inline)."""
    return f"""
b = d[o]
o += 1
if b < 0x80:
    {target} = b
else:
    u = b & 0x7F
    s = 7
    while True:
        b = d[o]
        o += 1
        u |= (b & 0x7F) << s
        if b < 0x80:
            break
        s += 7
    {target} = u
"""


def _svarint_int_src(var: str) -> str:
    """Signed column value into ``var``: unrolled 1–4 bytes plus loop tail.

    Four unrolled widths cover zigzagged magnitudes below 2**27 — in
    particular the ~1M-scale integers of the A16/A17 account rows,
    which a 3-byte unroll would push into the generic loop tail.
    """
    return f"""
b = d[o]
if b < 0x80:
    {var} = _ZZ[b]
    o += 1
else:
    b2 = d[o+1]
    if b2 < 0x80:
        {var} = _ZZ2[(b & 0x7F) | (b2 << 7)]
        o += 2
    else:
        b3 = d[o+2]
        if b3 < 0x80:
            u = (b & 0x7F) | ((b2 & 0x7F) << 7) | (b3 << 14)
            {var} = (u >> 1) ^ -(u & 1)
            o += 3
        else:
            b4 = d[o+3]
            if b4 < 0x80:
                u = (
                    (b & 0x7F) | ((b2 & 0x7F) << 7)
                    | ((b3 & 0x7F) << 14) | (b4 << 21)
                )
                {var} = (u >> 1) ^ -(u & 1)
                o += 4
            else:
                u = (
                    (b & 0x7F) | ((b2 & 0x7F) << 7)
                    | ((b3 & 0x7F) << 14) | ((b4 & 0x7F) << 21)
                )
                s = 28
                o += 4
                while True:
                    b = d[o]
                    o += 1
                    u |= (b & 0x7F) << s
                    if b < 0x80:
                        break
                    s += 7
                {var} = (u >> 1) ^ -(u & 1)
"""


def _addr_src(var: str, reuse: bool) -> str:
    """Stateful address decode into ``var`` (heads 0/1/2/3).

    With ``reuse`` the decoded coordinates are compared against the
    previous entry's address and that Rid object is handed out on a
    match — valid because equal-coordinate Rids compare equal and the
    decoded messages never mutate them.
    """
    if reuse:
        build = f"""
    if ps == las and pp == lap:
        {var} = lar
    else:
        {var} = _RN(_R)
        {var}.page_no = pp
        {var}.slot_no = ps
"""
    else:
        build = f"""
    {var} = _RN(_R)
    {var}.page_no = pp
    {var}.slot_no = ps
"""
    newline = chr(10)
    return f"""
h = d[o]
o += 1
if h == 0:
    {var} = None
elif h == 1:
    {var} = _BEGIN
else:
    if h == 2:
{_indent_block(_uvarint_src("u"), 2)}
        ps += (u >> 1) ^ -(u & 1)
    elif h == 3:
{_indent_block(_uvarint_src("u"), 2)}
        pp += (u >> 1) ^ -(u & 1)
{_indent_block(_uvarint_src("ps"), 2)}
    else:
        raise _WE(f"unknown address head {{h}}")
{build.strip(newline)}
"""


def _value_fast_src(index: int, kind: int) -> "Tuple[str, str]":
    """(snippet, value_bytes term) for column ``index``, no-NULLs path."""
    var = f"v{index}"
    newline = chr(10)
    if kind == _K_INT:
        return _svarint_int_src(var), ""
    if kind == _K_STRING:
        # No in-loop bounds check: a slice past the end reads short but
        # leaves the cursor beyond ``size``, which the next byte read
        # (IndexError) or the caller's end-of-payload comparison turns
        # into the same typed WireError.
        length = f"ln{index}"
        return (
            f"""
{_uvarint_src(length).strip(newline)}
e = o + {length}
{var} = d[o:e].decode()
o = e
""",
            f" + {length}",
        )
    if kind == _K_FLOAT:
        return (
            f"""
{var} = _FUP(d, o)[0]
o += 8
""",
            "",
        )
    return (
        f"""
{var}, o = _DV(_CTYPES[{index}], d, o)
vbx += _CTYPES[{index}].encoded_size({var})
""",
        "",
    )


def _value_bitmap_src(index: int, kind: int) -> str:
    """Column ``index`` decode honoring the NULL bitmap; accumulates vb."""
    var = f"v{index}"
    newline = chr(10)
    if kind == _K_INT:
        return f"""
if bitmap >> {index} & 1:
    {var} = _NULL
else:
{_indent_block(_svarint_int_src(var), 1)}
    vb += 8
"""
    if kind == _K_STRING:
        return f"""
if bitmap >> {index} & 1:
    {var} = _NULL
else:
{_indent_block(_uvarint_src("ln"), 1)}
    e = o + ln
    if e > size:
        raise _WE("truncated string value")
    {var} = d[o:e].decode()
    o = e
    vb += 2 + ln
"""
    if kind == _K_FLOAT:
        return f"""
if bitmap >> {index} & 1:
    {var} = _NULL
else:
    {var} = _FUP(d, o)[0]
    o += 8
    vb += 8
"""
    return f"""
if bitmap >> {index} & 1 and not _CTYPES[{index}].inline_null:
    {var} = _NULL
else:
    {var}, o = _DV(_CTYPES[{index}], d, o)
    vb += _CTYPES[{index}].encoded_size({var})
"""


def _render_decoder_source(kinds: "Tuple[int, ...]", bitmap_size: int) -> str:
    """Render the decoder function for one column-kind signature."""
    ncols = len(kinds)
    has_other = _K_OTHER in kinds
    fixed_bytes = (
        bitmap_size
        + sum(8 for k in kinds if k in (_K_INT, _K_FLOAT))
        + sum(2 for k in kinds if k == _K_STRING)
    )

    # -- the no-NULLs value section (shared by both entry header paths) --
    fast: "List[str]" = []
    vb_terms = ""
    if has_other:
        fast.append("vbx = 0")
    for index, kind in enumerate(kinds):
        code, term = _value_fast_src(index, kind)
        fast.extend(_lines(0, code))
        vb_terms += term
    if has_other:
        vb_terms += " + vbx"
    fast_block = "\n".join(fast)
    #: value_bytes for a no-NULLs row is a constant plus string lengths.
    vb_expr = f"{fixed_bytes}{vb_terms}"

    # -- the with-NULLs value section ------------------------------------
    slow: "List[str]" = [f"vb = {bitmap_size}"]
    for index, kind in enumerate(kinds):
        slow.extend(_lines(0, _value_bitmap_src(index, kind)))
    slow_block = "\n".join(slow)

    values_tuple = (
        "(" + ", ".join(f"v{i}" for i in range(ncols))
        + ("," if ncols == 1 else "")
        + ")"
    )

    def construct_entry(value_bytes: str) -> str:
        return f"""
m = _EN(_E)
m.addr = addr
m.prev_qual = prevq
m.values = {values_tuple}
m.value_bytes = {value_bytes}
append(m)
"""

    # Speculative fast path (single-byte bitmap schemas only): the tag
    # is an entry, both addresses are one-byte same-page deltas, and the
    # bitmap byte is zero.  Each condition inspects the actual byte, so
    # a match proves the layout — there are no false positives, and a
    # mismatch falls through before touching any byte a shorter valid
    # entry would not contain.
    if bitmap_size == 1:
        speculative = f"""
if tag == {_ENTRY_TAG} and d[o+1] == 2 and (s1 := d[o+2]) < 0x80 and d[o+3] == 2 and (s2 := d[o+4]) < 0x80 and d[o+5] == 0:
    ps += _ZZ[s1]
    addr = _RN(_R)
    addr.page_no = pp
    addr.slot_no = ps
    a_s = ps
    ps += _ZZ[s2]
    if ps == las and pp == lap:
        prevq = lar
    else:
        prevq = _RN(_R)
        prevq.page_no = pp
        prevq.slot_no = ps
    lap = pp
    las = a_s
    lar = addr
    o += 6
{_indent_block(fast_block, 1)}
{_indent_block(construct_entry(vb_expr), 1)}
    continue
"""
        read_bitmap = "bitmap = d[o]\no += 1"
    else:
        speculative = ""
        read_bitmap = f"""
if size - o < {bitmap_size}:
    raise _WE("truncated row bitmap")
bitmap = int.from_bytes(d[o:o+{bitmap_size}], "little")
o += {bitmap_size}
"""

    entry_block = f"""
{_indent_block(_addr_src("addr", reuse=False), 0)}
{_indent_block(_addr_src("prevq", reuse=True), 0)}
if addr is not None and addr is not _BEGIN:
    lap = addr.page_no
    las = addr.slot_no
    lar = addr
{_indent_block(read_bitmap, 0)}
if bitmap == 0:
{_indent_block(fast_block, 1)}
{_indent_block(construct_entry(vb_expr), 1)}
else:
{_indent_block(slow_block, 1)}
{_indent_block(construct_entry("vb"), 1)}
"""

    speculative_block = (
        _indent_block(speculative, 3) + "\n" if speculative else ""
    )
    return f"""
def _decode(d, count, _E=_E, _EN=_EN, _UD=_UD, _UDN=_UDN, _R=_R, _RN=_RN,
            _BEGIN=_BEGIN, _NULL=_NULL, _ZZ=_ZZ, _ZZ2=_ZZ2, _FUP=_FUP,
            _KINDS=_KINDS, _CTYPES=_CTYPES, _DV=_DV, _CODEC=_CODEC,
            _WE=_WE, _SE=_SE):
    out = []
    append = out.append
    o = 0
    pp = 0
    ps = 0
    lap = None
    las = -1
    lar = None
    fbs = _CODEC._new_state()
    size = len(d)
    try:
        for _ in range(count):
            tag = d[o]
{speculative_block}            o += 1
            if tag == {_ENTRY_TAG}:
{_indent_block(entry_block, 4)}
            elif tag == {_DELTA_TAG}:
{_indent_block(_addr_src("addr", reuse=False), 4)}
{_indent_block(_addr_src("prevq", reuse=True), 4)}
                if addr is not None and addr is not _BEGIN:
                    lap = addr.page_no
                    las = addr.slot_no
                    lar = addr
{_indent_block(_uvarint_src("mask"), 4)}
                if mask >> {ncols}:
                    raise _WE(
                        f"update-delta mask {{mask:#x}} exceeds the "
                        f"{ncols}-column value schema"
                    )
                positions = []
                mb = mask
                pos = 0
                while mb:
                    if mb & 1:
                        positions.append(pos)
                    mb >>= 1
                    pos += 1
                sb = (len(positions) + 7) >> 3
                if sb == 1:
                    bitmap = d[o]
                    o += 1
                elif sb:
                    if size - o < sb:
                        raise _WE("truncated row bitmap")
                    bitmap = int.from_bytes(d[o:o+sb], "little")
                    o += sb
                else:
                    bitmap = 0
                vals = []
                va = vals.append
                vb = sb
                i = 0
                for p in positions:
                    k = _KINDS[p]
                    if k == {_K_INT}:
                        if bitmap >> i & 1:
                            va(_NULL)
                        else:
{_indent_block(_uvarint_src("u"), 7)}
                            va((u >> 1) ^ -(u & 1))
                            vb += 8
                    elif k == {_K_STRING}:
                        if bitmap >> i & 1:
                            va(_NULL)
                        else:
{_indent_block(_uvarint_src("ln"), 7)}
                            e = o + ln
                            if e > size:
                                raise _WE("truncated string value")
                            va(d[o:e].decode())
                            o = e
                            vb += 2 + ln
                    elif k == {_K_FLOAT}:
                        if bitmap >> i & 1:
                            va(_NULL)
                        else:
                            va(_FUP(d, o)[0])
                            o += 8
                            vb += 8
                    else:
                        ct = _CTYPES[p]
                        if bitmap >> i & 1 and not ct.inline_null:
                            va(_NULL)
                        else:
                            v, o = _DV(ct, d, o)
                            va(v)
                            vb += ct.encoded_size(v)
                    i += 1
                m = _UDN(_UD)
                m.addr = addr
                m.prev_qual = prevq
                m.mask = mask
                m.values = tuple(vals)
                m.value_bytes = vb
                append(m)
            else:
                # Any other message: the reference codec interprets its
                # LAYOUT, with the address deltas handed across.
                fbs.prev_page = pp
                fbs.prev_slot = ps
                m, o = _CODEC._decode_one(d, o - 1, fbs)
                pp = fbs.prev_page
                ps = fbs.prev_slot
                append(m)
    except IndexError:
        raise _WE("truncated frame payload") from None
    except _SE as error:
        raise _WE(f"truncated value: {{error}}") from None
    except UnicodeDecodeError as error:
        raise _WE(f"malformed string value: {{error}}") from None
    return out, o
"""


def _build_decoder(codec: "WireCodec") -> Decoder:
    """Compile (or fetch) the generated decoder and bind it to ``codec``."""
    kinds, ctypes, bitmap_size = codec._plan
    code = _CODE_CACHE.get(kinds)
    if code is None:
        source = _render_decoder_source(kinds, bitmap_size)
        code = compile(source, f"<wirebatch decoder {kinds}>", "exec")
        _CODE_CACHE[kinds] = code
    from repro.net.wire import _decode_value

    namespace: "Dict[str, Any]" = {
        "_E": msg.EntryMessage,
        "_EN": msg.EntryMessage.__new__,
        "_UD": msg.UpdateDeltaMessage,
        "_UDN": msg.UpdateDeltaMessage.__new__,
        "_R": Rid,
        "_RN": Rid.__new__,
        "_BEGIN": Rid.BEGIN,
        "_NULL": NULL,
        "_ZZ": _ZZ,
        "_ZZ2": _ZZ2,
        "_FUP": _FLOAT.unpack_from,
        "_KINDS": kinds,
        "_CTYPES": ctypes,
        "_DV": _decode_value,
        "_CODEC": codec,
        "_WE": WireError,
        "_SE": struct.error,
    }
    exec(code, namespace)  # noqa: S102 — source rendered from the plan above
    decoder: Decoder = namespace["_decode"]
    return decoder


def decode_batch_payload(
    codec: "WireCodec", data: bytes, count: int
) -> "Tuple[List[Any], int]":
    """Decode ``count`` messages from a frame payload; returns the end offset.

    One offset cursor over ``data``, driven by the schema-specialized
    generated decoder.  Any read past the end of the payload (or a
    malformed value) surfaces as a typed
    :class:`~repro.errors.WireError`, never as a bare ``IndexError`` /
    ``struct.error`` / ``UnicodeDecodeError``.
    """
    decoder = codec._fast_decode
    if decoder is None:
        decoder = _build_decoder(codec)
        codec._fast_decode = decoder
    return decoder(data, count)
