"""Uniform pass/fail records for the machine checks, and the CSV/JSON emitter of every command.

The emitter, ``write_columns``, is the one output path of the command line:
each command hands it its records once, in the format asked for (only
partition's JSON, a single object rather than an array, is written by
json.dump).  It takes the records in blocks of at most CHUNK rows, one
sequence per field, and turns each column of a block into a byte slot: a
uint8 matrix with one row per record, the text of each cell right-aligned in
its row, and the per-row lengths.  A signed integer array becomes its decimal
digits, a finite float64 array the shortest round-trip digits of ``repr``
(Schubfach, below), a bytes array its bytes, each in a few numpy passes; a
Coded column gathers the slot of its Table; any other column is formatted
one value at a time.  The blocks' slots are formed on the workers of
``_threads.run_pieces``, which also writes them in block order: each block's
separators and slots are joined and compacted _PIECE rows at a time and
written to the one sink of the call, the stream's binary buffer where it has
a UTF-8 one, else the text stream.  The text is what ``csv.writer`` or
``json.dump(records, indent=2)`` writes for the same rows.
"""
from __future__ import annotations

import codecs
import csv
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _threads

# Rows per block: large enough that formatting runs as a few calls per column,
# small enough that a block's text stays near a megabyte.
CHUNK = 1 << 14
# rows of a block joined at once, and of a float slot's gather index: a
# piece's text and mask stay in cache and take a quarter of a block's memory
_PIECE = 1 << 12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: the worst observed margin and the index attaining it.

    ``margin`` is exact (a Fraction) when the check ran in exact mode and a
    float otherwise; ``witness`` is the tau or s index at which the margin is
    attained, or the first counterexample on failure.
    """

    name: str
    level: int | None
    passed: bool
    margin: float | Fraction | None = None
    witness: int | None = None

    def __post_init__(self):
        # Float checks compare numpy scalars; store plain Python types so every
        # report serializes the same way.  Fraction margins stay exact.
        object.__setattr__(self, "passed", bool(self.passed))
        if isinstance(self.margin, np.floating):
            object.__setattr__(self, "margin", float(self.margin))

    def to_dict(self) -> dict:
        if self.margin is None:
            margin = None
        else:
            try:
                margin = float(self.margin)
            except OverflowError:
                margin = math.inf if self.margin > 0 else -math.inf
        return {
            "name": self.name,
            "level": self.level,
            "pass": self.passed,
            "margin": margin,
            "witness": self.witness,
        }


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


_encode = json.JSONEncoder().encode
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _json_cell(v) -> str:
    # json writes an int or a finite float as its repr; skip the encoder for them
    if type(v) is int or type(v) is float and math.isfinite(v):
        return repr(v)
    return _encode(v)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if type(v) in (int, float, bool) or type(v) is str and not _CSV_SPECIAL.search(v):
        return str(v)
    # quoting, and any type without a plain str, exactly as csv.writer does it
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((v, None))
    return buf.getvalue()[:-2]


# --- Shortest round-trip decimals of float64 (Schubfach) ---------------------
#
# R. Giulietti, "The Schubfach way to render doubles" (2020).  A finite
# positive double v = c * 2^q has the rounding interval R_v of the reals that
# round to it, and k = floor(log10(2^q)) (floor(log10(3/4 * 2^q)) where the
# spacing below v is half the spacing above).  R_v holds at least one multiple
# of 10^k and at most one of 10^(k+1); the shortest decimal in R_v is the
# multiple of 10^(k+1) if there is one, else the multiple of 10^k closest to v
# (ties to even).  Four times v, v_l and v_r (the ends of R_v) over 10^k come
# from one 126-bit fixed-point approximation g of 10^-k, rounded to odd, in
# 64-bit integer arithmetic.  Java keeps two digits at least (its C_TINY and
# s >= 100 rules); ``repr`` wants the shortest, so both are left out.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)


def _flog10pow2(e: int) -> int:
    return (e * 661_971_961_083) >> 41  # floor(e * log10(2)), |e| <= 5456721


def _flog10_three_quarters_pow2(e: int) -> int:
    return (e * 661_971_961_083 - 274_743_187_321) >> 41  # floor(log10(3/4 * 2^e))


def _flog2pow10(e: int) -> int:
    return (e * 913_124_641_741) >> 38  # floor(e * log2(10)), |e| <= 233250


@functools.cache
def _schubfach_tables():
    """k, h, g1 and g0 for each biased exponent field, regular spacing first,
    then irregular: g = g1 * 2^63 + g0 in [2^125, 2^126) is the floor of
    10^-k * 2^(125 - flog2pow10(-k)), plus one, and h = q + flog2pow10(-k) + 2."""
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    k = np.concatenate([_flog10pow2(q[:2048]), _flog10_three_quarters_pow2(q[2048:])])
    exact = []
    for e in range(-k.max(), -k.min() + 1):  # the powers 10^e = 10^-k
        r = 125 - _flog2pow10(e)
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        exact.append((num << max(r, 0)) // (den << max(-r, 0)) + 1)
    g = np.array([[v >> 63, v & (1 << 63) - 1] for v in exact], _U64)[k.max() - k]
    return k, (q + _flog2pow10(-k) + 2).astype(_U64), g[:, 0].copy(), g[:, 1].copy()


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of two uint64 arrays.

    In place where it can: five arrays of the inputs' size are alive at once."""
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    cross = a_lo * b_lo
    cross >>= _U64(32)
    a_lo *= b_hi
    cross += a_lo
    hi_lo = np.multiply(a_hi, b_lo, out=b_lo)
    a_hi *= b_hi
    cross += np.bitwise_and(hi_lo, _LOW32, out=a_lo)
    a_hi += hi_lo >> _U64(32)
    a_hi += cross >> _U64(32)
    return a_hi


def _round_to_odd(g1, g0, cp):
    """cp * g / 2^127, truncated and with its lowest bit set if anything was cut off."""
    z = g1 * cp
    z >>= _U64(1)
    z += _mulhi(g0, cp)
    vbp = _mulhi(g1, cp)
    vbp += z >> _U64(63)
    z &= _LOW63
    z += _LOW63
    z >>= _U64(63)
    vbp |= z
    return vbp.view(np.int64)


def _shortest_decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f and exponents e, int64 arrays, with f * 10^e the shortest
    decimal that rounds to |x| (the digits of ``repr``); finite float64 x.

    Among shortest decimals the one closest to |x| is taken, ties to an even
    last digit; f may end in zeros.  Zeros give f = 0.  Temporaries are
    released as soon as they are used.
    """
    k_table, h_table, g1_table, g0_table = _schubfach_tables()
    bits = x.view(_U64)
    row = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)  # the exponent field
    c = bits & _U64((1 << 52) - 1)  # the fraction field, then the significand
    irregular = (c == 0) & (row > 1)
    np.bitwise_or(c, _U64(1 << 52), out=c, where=row > 0)
    np.add(row, 2048, out=row, where=irregular)
    h, g1, g0, e = h_table[row], g1_table[row], g0_table[row], k_table[row]
    del row
    cb = c << _U64(2)
    vb = _round_to_odd(g1, g0, cb << h)
    vbl = _round_to_odd(g1, g0, (cb - _U64(2) + irregular) << h)
    cb += _U64(2)
    cb <<= h
    vbr = _round_to_odd(g1, g0, cb)
    del h, g1, g0, cb
    odd = (c & _U64(1)).view(np.int64)
    vbl += odd  # an odd c leaves the ends of R_v out
    vbr -= odd
    del odd
    s = vb >> 2
    # one digit fewer: the multiples s10 and s10 + 10 of 10^k below and above v
    s10 = s // 10 * 10
    short_low, short_high = vbl <= s10 << 2, (s10 + 10) << 2 <= vbr
    # full length: s or s + 1 times 10^k, the one in R_v or the one closer to v
    low, high = vbl <= s << 2, (s + 1) << 2 <= vbr
    cmp = vb - (4 * s + 2)
    lower = np.where(low != high, low, (cmp < 0) | (cmp == 0) & (s & 1 == 0))
    f = np.where(short_low != short_high, np.where(short_low, s10, s10 + 10), np.where(lower, s, s + 1))
    return np.where(c == 0, 0, f), e


# --- Byte slots ---------------------------------------------------------------

# _QUADS[n] is the four ASCII digits of n < 10^4 as one uint32 (native order)
_QUADS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_QUADS = _QUADS.view(np.uint32)[:, 0]
_POW10 = np.array([10**i for i in range(20)], _U64)


def _digits(m: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The low decimal digits of the uint64 array m, four ASCII bytes to a
    uint32, written into the columns of ``words`` and returned."""
    for i in range(words.shape[1] - 1, -1, -1):
        high = m // _U64(10**4)
        words[:, i] = _QUADS[m - high * _U64(10**4)]
        m = high
    return words


def _int_slot(column: np.ndarray):
    """A signed integer array as its decimal digits, a '-' before negatives."""
    signed = column.astype(np.int64)
    negative = signed < 0
    magnitude = signed.view(_U64).copy()
    np.negative(magnitude, out=magnitude, where=negative)  # wraps, so int64 min is 2^63
    lengths = (np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1) + negative).astype(np.uint8)
    width = int(lengths.max())
    slot = _digits(magnitude, np.empty((len(column), -(-width // 4)), np.uint32)).view(np.uint8)[:, -width:]
    slot[negative, width - lengths[negative]] = ord("-")
    return slot, lengths


# Float layouts, indexed by category, are lists of positions in the 28-byte
# source of each value: three bytes of leading zeros and 17 significant digits,
# the sign and three digits of the decimal exponent, then "-.0e".
_DIGIT, _EXP_SIGN, _MINUS, _POINT, _ZERO, _E = 3, 20, 24, 25, 26, 27
_FLOAT_WIDTH = 24
_EXP_TEXT = np.frombuffer("".join(f"{x:+04d}" for x in range(-400, 401)).encode(), np.uint32)


@functools.cache
def _float_layouts():
    """Python's repr layout of each (form, exponent, digit count, sign) category.

    The decimal exponent x of the leading digit selects positional text for
    -4 <= x <= 15 (0.0001, 5.0, 1234.5) and d.ddde+XX otherwise; categories
    0..339 are positional by (x + 4) * 17 + n - 1 for n significant digits,
    340..373 exponential by 2 * (n - 1) + (|x| >= 100), and 374 is zero.  The
    same 375 follow with a '-' in front.
    """
    digit = [_DIGIT + i for i in range(17)]
    layouts = []
    for x in range(-4, 16):
        for n in range(1, 18):
            if x < 0:
                layouts.append([_ZERO, _POINT] + [_ZERO] * (-x - 1) + digit[:n])
            else:
                whole = digit[: min(n, x + 1)] + [_ZERO] * (x + 1 - n)
                layouts.append(whole + [_POINT] + (digit[x + 1 : n] or [_ZERO]))
    for n in range(1, 18):
        mantissa = digit[:1] + ([_POINT] + digit[1:n] if n > 1 else [])
        for three in (False, True):
            exponent = [_EXP_SIGN + 1] if three else []
            layouts.append(mantissa + [_E, _EXP_SIGN] + exponent + [_EXP_SIGN + 2, _EXP_SIGN + 3])
    layouts.append([_ZERO, _POINT, _ZERO])
    layouts += [[_MINUS] + layout for layout in layouts]
    table = np.zeros((len(layouts), _FLOAT_WIDTH), np.intp)
    for row, layout in zip(table, layouts):
        row[_FLOAT_WIDTH - len(layout) :] = layout
    return table, np.array(list(map(len, layouts)), np.uint8)


def _float_slot(column: np.ndarray):
    """A finite float64 array as the text of repr of each value."""
    f, point = _shortest_decimal(column)
    f = f.view(_U64)
    count = np.searchsorted(_POW10, f, side="right")  # digits of f; 0 for zeros
    point += count - 1  # decimal exponent of the leading digit
    source = np.empty((len(f), 7), np.uint32)
    _digits(f * _POW10[17 - count], source[:, :5])
    del count
    source[:, 5] = _EXP_TEXT[point + 400]
    source[:, 6] = np.frombuffer(b"-.0e", np.uint32)[0]
    source = source.view(np.uint8)
    significant = 17 - np.argmax(source[:, 19:2:-1] != ord("0"), axis=1)
    category = np.where(
        (point >= -4) & (point <= 15),
        (point + 4) * 17 + significant - 1,
        340 + 2 * (significant - 1) + (np.abs(point) >= 100),
    )
    del point, significant
    category[f == 0] = 374
    del f
    category += 375 * np.signbit(column)
    layouts, layout_lengths = _float_layouts()
    lengths = layout_lengths[category]
    layouts = layouts[:, _FLOAT_WIDTH - int(lengths.max()) :]
    slot = np.empty((len(column), layouts.shape[1]), np.uint8)
    # the gather index takes 8 bytes a slot byte: it is built _PIECE rows at a time
    for lo in range(0, len(column), _PIECE):
        index = layouts.take(category[lo : lo + _PIECE], axis=0)
        index += np.arange(lo, lo + len(index))[:, None] * source.shape[1]
        source.reshape(-1).take(index, out=slot[lo : lo + _PIECE], mode="clip")  # "raise" would copy
        del index
    return slot, lengths


# bytes a bytes column may hold to be written as is, in CSV and in a JSON
# string: printable ASCII but the special bytes
_SPECIAL = b'",\\'
_PLAIN = np.zeros(256, bool)
_PLAIN[0x20:0x7F] = True
_PLAIN[list(_SPECIAL)] = False


def _plain(slot: np.ndarray) -> bool:
    """Whether every byte of a uint8 array is _PLAIN.  Its range settles most
    columns in two passes: bytes from 0x20..0x7E whose range holds none of
    the special ones are all plain.  Any other array is looked up byte by byte."""
    if slot.size:
        low, high = int(slot.min()), int(slot.max())
        if 0x20 <= low and high <= 0x7E and not any(low <= b <= high for b in _SPECIAL):
            return True
    return bool(_PLAIN[slot].all())


def _bytes_slot(column: np.ndarray, fmt):
    """A bytes array that needs no quoting or escaping as its bytes, None otherwise."""
    slot = np.ascontiguousarray(column).view(np.uint8).reshape(len(column), column.dtype.itemsize)
    if not _plain(slot):
        return None
    if fmt == "json":
        slot = np.pad(slot, ((0, 0), (1, 1)), constant_values=ord('"'))
    return slot, np.broadcast_to(slot.shape[1], len(column))


def _text_slot(texts: list[str]):
    """Formatted cells as their UTF-8 bytes; a lone surrogate raises UnicodeEncodeError."""
    data = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    width = int(lengths.max(initial=0))
    slot = np.zeros((len(data), width), np.uint8)
    slot[np.arange(width) >= width - lengths[:, None]] = np.frombuffer(b"".join(data), np.uint8)
    return slot, lengths


class Table:
    """A column's few distinct cells, shared by its blocks, which read them as
    Coded columns.  The cells are formatted once per format, by the first
    block that reads them; each block gathers its rows from that slot."""

    def __init__(self, values):
        self.values = values
        self._slots = {}

    def slot(self, fmt, lone: bool):
        key = fmt, lone
        if key not in self._slots:  # two workers may both form it; either result is kept
            self._slots[key] = _slot(self.values, fmt, lone)
        return self._slots[key]


@dataclass(frozen=True)
class Coded:
    """A column of a block as indices into a Table: the cells values[codes]."""

    table: Table
    codes: np.ndarray

    def __getitem__(self, rows: slice) -> "Coded":
        return Coded(self.table, self.codes[rows])


def _slot(column, fmt, lone: bool):
    """The byte slot of one column of a block; ``lone`` for the only field of a CSV row."""
    if isinstance(column, Coded):
        slot, lengths = column.table.slot(fmt, lone)
        return slot.take(column.codes, axis=0), lengths.take(column.codes)
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "i":
            return _int_slot(column)
        if column.dtype == np.float64 and np.isfinite(column).all():
            return _float_slot(column)
        if column.dtype.kind == "S":
            slot = _bytes_slot(column, fmt)
            if slot is not None:
                return slot
            column = column.astype(str)
        column = column.tolist()
    texts = list(map(_csv_cell if fmt == "csv" else _json_cell, column))
    if lone:
        # csv.writer quotes the empty field of a one-field row
        texts = ['""' if text == "" else text for text in texts]
    return _text_slot(texts)


@functools.cache
def _right_aligned(width: int) -> np.ndarray:
    """Row n is the mask of the last n of ``width`` bytes."""
    return np.arange(width) >= width - np.arange(width + 1)[:, None]


def _join(separators: list[bytes], slots) -> np.ndarray:
    """The bytes of a piece of a block as a uint8 array: per row,
    separators[0], slot 0, separators[1], ..., the last slot and
    separators[-1], laid out in one buffer and compacted."""
    rows = len(slots[0][1])
    widths = [len(s) for s in separators] + [slot.shape[1] for slot, _ in slots]
    text = np.empty((rows, sum(widths)), np.uint8)
    keep = np.ones(text.shape, bool)
    at = 0
    for separator, slot in zip(separators, [*slots, None]):
        text[:, at : at + len(separator)] = np.frombuffer(separator, np.uint8)
        at += len(separator)
        if slot is not None:
            slot, lengths = slot
            width = slot.shape[1]
            text[:, at : at + width] = slot
            keep[:, at : at + width] = _right_aligned(width).take(lengths, axis=0)
            at += width
    return text[keep]


def _binary(stream):
    """The binary buffer under a UTF-8 text stream, else None.  On POSIX, where
    text streams write newlines as they are, the UTF-8 bytes of a text written
    there are what the stream would write for it."""
    buffer = getattr(stream, "buffer", None)
    encoding = getattr(stream, "encoding", None)
    if buffer is None or not isinstance(encoding, str) or codecs.lookup(encoding).name != "utf-8":
        return None
    return buffer


def write_columns(fields, blocks, stream, fmt) -> None:
    """Write blocks of records as CSV under a header, or as a JSON array.

    A block is one sequence per field, all of one length (at most CHUNK
    rows keeps the text of a block small), or a Coded column.  Signed
    integer, finite float64 and bytes arrays (ASCII text) take the byte
    kernels; other columns are formatted per value, a str strictly encoded
    as UTF-8.  The workers of ``run_pieces`` form the blocks' slots and, in
    block order, join and write each block _PIECE rows at a time, so a
    worker holds at most one block's slots.  Every block goes to one sink,
    chosen once: the binary ``buffer`` of a UTF-8 text stream (a file,
    stdout), else the text stream itself.  The text equals csv.writer's for
    the same rows, or json.dump([dict(zip(fields, row)) ...], indent=2) plus
    a newline.
    """
    if fmt == "csv":
        csv.writer(stream, lineterminator="\n").writerow(fields)
        separators = [b""] + [b","] * (len(fields) - 1) + [b"\n"]
    else:
        # each record is led by ",\n", the first of the array by "[\n"
        keys = [f"{_encode(name)}: ".encode() for name in fields]
        separators = [b",\n  {\n    " + keys[0]] + [b",\n    " + key for key in keys[1:]] + [b"\n  }"]
    binary = _binary(stream)
    if binary is not None:
        stream.flush()  # the header, before any bytes

    def work(block):
        lone = fmt == "csv" and len(block) == 1
        return [_slot(column, fmt, lone) for column in block]

    def write(n, slots):
        for lo in range(0, len(slots[0][1]), _PIECE):
            piece = [(slot[lo : lo + _PIECE], lengths[lo : lo + _PIECE]) for slot, lengths in slots]
            text = _join(separators, piece)
            if fmt == "json" and n == lo == 0:
                text[:2] = np.frombuffer(b"[\n", np.uint8)
            if binary is None:
                stream.write(str(text.data, "utf-8"))
            else:
                text = memoryview(text)
                while text:  # a raw buffer, as of unbuffered stdout, may take a part
                    text = text[binary.write(text) :]
            del text  # before the next piece is joined

    count = _threads.run_pieces((block for block in blocks if block and len(block[0])), work, write)
    if fmt == "json":
        stream.write("[]\n" if count == 0 else "\n]\n")
