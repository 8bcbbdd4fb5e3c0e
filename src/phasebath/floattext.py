"""Shortest round-trip text of doubles, in bulk: ``repr(float(v))`` for every
value of a float64 array, computed with numpy instead of one ``repr`` call per
value.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): of the decimals in a value's rounding interval, the shortest,
and of those the nearest, ties to even, which is what CPython's ``repr``
picks.  Its 128-bit products are formed from 32-bit limbs in uint64 arrays,
in the order and truncation of Giulietti's ``rop``.  The layout is CPython's
``'r'`` format: exponent form when the decimal point position is at most -4
or above 16, at least two exponent digits, ``.0`` after an integer, and
``-0.0``.  Each text is gathered from a per-value row of characters through a
template chosen by the point position, the digit count and the sign.

Values go through in chunks of ``_CHUNK``, so each numpy call's fixed cost is
shared by that many.  A chunk's memory stays small because its temporaries
are one-dimensional and reused: the three rounding candidates are formed one
at a time in place, and the gather index is built ``_BLOCK`` rows at a time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: values formatted together: each numpy call's fixed cost is shared by this
#: many, and a chunk's temporaries take about 150 bytes a value
_CHUNK = 2048
#: rows of the intp gather index, 200 bytes a row, built at a time
_BLOCK = 512

_M32 = 0xFFFFFFFF
_P10 = 10 ** np.arange(18, dtype=np.int64)


def _g_table() -> np.ndarray:
    """For k = 292 down to -324, where every double's k lies: g1's and g0's
    low 32-bit limbs, their high limbs, and g1, where g = g1 2^63 + g0 is
    10^-k scaled into [2^125, 2^126), rounded down, plus one."""
    limbs = []
    for e in range(-292, 325):  # e = -k
        if e >= 0:
            r = (10**e).bit_length() - 126
            g = (10**e >> r if r >= 0 else 10**e << -r) + 1
        else:
            g = (1 << 125 + (10**-e).bit_length()) // 10**-e + 1
        g1, g0 = g >> 63, g & (1 << 63) - 1
        limbs.append((g1 & _M32, g0 & _M32, g1 >> 32, g0 >> 32, g1))
    return np.array(limbs, dtype=np.uint64).T.copy()


_G = _g_table()


def _layout_tables():
    """The texts' templates, and per decimal point position: the index of
    its first template, and the row characters after the digits (see
    ``_texts``).  A template lists the row positions that spell a text and
    its newline, padded with a NUL's; there is one per layout, digit count
    and sign."""
    exp_sign, sign, point, e_char, zero, newline, nul = range(24, 31)
    digits = list(range(3, 20))
    templates = []  # lists of positions
    for decpt in range(-3, 17):
        for nd in range(1, 18):
            if decpt <= 0:
                body = [zero, point] + [zero] * -decpt + digits[:nd]
            elif decpt < nd:
                body = digits[:decpt] + [point] + digits[decpt:nd]
            else:
                body = digits[:nd] + [zero] * (decpt - nd) + [point, zero]
            templates += [body, [sign] + body]
    for exp_digits in (2, 3):
        for nd in range(1, 18):
            body = digits[:1] + ([point] + digits[1:nd] if nd > 1 else [])
            body += [e_char, exp_sign] + list(range(24 - exp_digits, 24))
            templates += [body, [sign] + body]
    table = np.frombuffer(b"".join(bytes(t + [newline] + [nul] * (24 - len(t))) for t in templates), dtype=np.uint8)
    # decimal point positions -323..310 at 1..634
    decpt = np.arange(-324, 311)
    exponent = np.abs(decpt - 1)
    first = np.where(exponent >= 100, 714, 680)
    first = np.where((decpt > -4) & (decpt <= 16), 34 * (decpt + 3), first) - 2
    suffix = np.array([b"0000+-.e0\n", b"0000--.e0\n"], dtype="S12").view(np.uint8).reshape(2, 12)
    suffix = suffix[(decpt < 1).astype(np.intp)]
    suffix[:, 1:4] = exponent[:, None] // [100, 10, 1] % 10 + 48
    return table.view(np.dtype((np.void, 25))).ravel(), first, suffix.view(np.dtype((np.void, 12))).ravel()


_TEMPLATE, _FIRST_KEY, _SUFFIX = _layout_tables()
#: the four ASCII digits of 0..9999, as one 32-bit word each
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).view(np.uint32).ravel()


def _interval(bits: np.ndarray):
    """For the finite doubles whose int64 bits are ``bits``, value c 2^q:
    c, k, and the value and its rounding interval's ends in quarters of
    10^k, rounded to odd, as vb, vbl and vbr."""
    q = bits >> 52 & 0x7FF  # the exponent field, then q
    c = bits & (1 << 52) - 1
    binade = (c == 0) & (q > 1)  # 2^q starts a binade: the gap below is half
    np.add(c, 1 << 52, out=c, where=q > 0)
    np.maximum(q, 1, out=q)
    q -= 1075
    # k = floor(log10 2^q), or floor(log10(3/4 2^q)) where 2^q starts a
    # binade, and h = q + floor(-k log2 10) + 2, in exact integer forms
    k = q * 661_971_961_083
    k -= binade * 274_743_187_321
    k >>= 41
    h = q  # in q's place
    h += k * -913_124_641_741 >> 38
    h += 2
    # rop(g1, g0, cp) = y1 + (z >> 63), or'ed with whether z's low 63 bits
    # are nonzero, where y1 y0 = g1 cp, x1 = the high 64 bits of g0 cp and
    # z = (y0 >> 1) + x1, for cp = (4c - 2, 4c, 4c + 2) << h, with 4c - 1
    # for 4c - 2 where 2^q starts a binade: one cp at a time, in place
    g = np.take(_G, 292 - k, axis=1)
    low, high, g1 = g[0:2], g[2:4], g[4]
    cp = np.empty_like(c)
    u = cp.view(np.uint64)
    cp_hi, cp_lo = np.empty((2, c.size), dtype=np.uint64)
    y1x1, product = np.empty((2, 2, c.size), dtype=np.uint64)
    vbl, vb, vbr = candidates = np.empty((3, c.size), dtype=np.int64)
    for offset, v in zip((-2, 0, 2), candidates.view(np.uint64)):
        np.left_shift(c, 2, out=cp)
        cp += offset
        if offset < 0:
            cp += binade
        cp <<= h
        np.right_shift(u, 32, out=cp_hi)
        np.bitwise_and(u, _M32, out=cp_lo)
        # the high 64 bits of g1 cp and of g0 cp, summed in place; the
        # middle products' sum fits 64 bits, as the high limbs are below
        # 2^31 and cp_hi below 2^29
        np.multiply(low, cp_lo, out=y1x1)
        y1x1 >>= 32
        y1x1 += np.multiply(high, cp_lo, out=product)
        y1x1 += np.multiply(low, cp_hi, out=product)
        y1x1 >>= 32
        y1x1 += np.multiply(high, cp_hi, out=product)
        z = np.multiply(g1, u, out=cp_lo)
        z >>= 1
        z += y1x1[1]
        np.add(y1x1[0], np.right_shift(z, 63, out=cp_hi), out=v)
        z <<= 1
        v |= z != 0
    return c, k, vbl, vb, vbr


def _digits(bits: np.ndarray):
    """Schubfach's digits ``d`` and exponent ``k``, value = d * 10^k, for the
    finite doubles whose int64 bits are ``bits``; a zero gives d = 0."""
    c, k, vbl, vb, vbr = _interval(bits)
    # The decimals s and t = s + 1 around v, and the multiples of ten sp10
    # and tp10 = sp10 + 10 around it, each inside or not of the interval,
    # whose ends an odd c leaves out.  s and sp10 lie at or below v, t and
    # tp10 above it, and each end lies at least a quarter beyond v, so only
    # the lower end can leave out s or sp10, and only the upper end t or tp10.
    # A lone multiple of ten inside is the shortest; else a lone one of s and
    # t; else the nearer of them, ties to even.
    out = c & 1
    vbl += out  # the interval's ends, in quarters, that a decimal may reach
    vbr -= out
    s = vb >> 2
    s4 = s << 2
    t_in = s4 + 4 <= vbr
    up = (vb & 3) + (s & 1) > 2
    d = s + np.where((vbl <= s4) != t_in, t_in, up)
    sp10 = s // 10 * 10
    sp4 = np.left_shift(sp10, 2, out=s4)
    tp10_in = sp4 + 40 <= vbr
    d = np.where((vbl <= sp4) != tp10_in, sp10 + 10 * tp10_in, d)
    d[c == 0] = 0
    return d, k


def _digit_chars(d: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Write d's digits, as 17 scaled to [1e16, 1e17), into characters 3 to
    19 of each row of ``src``; return d's digit counts."""
    width = np.searchsorted(_P10, d, side="right")
    # groups of 1, 4, 4, 4 and 4 digits, by division alone: numpy divides an
    # integer array by a constant fast, but finds remainders slowly
    groups = np.empty((5, d.size), dtype=np.int64)
    rest = d * _P10[17 - width]
    for i, unit in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(rest, unit, out=groups[i])
        rest -= groups[i] * unit
    groups[4] = rest
    src.view(np.uint32)[:, :5] = _DIGITS4[groups.T]
    return width


def _texts(bits: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out``, one row of 25 bytes per double whose int64 bits are
    ``bits``: its ``repr`` and a newline, padded with NULs."""
    d, k = _digits(bits)
    n = bits.size
    # Each value's row of 32 characters: d's digits from 3 to 19, then
    # _SUFFIX: the exponent's digits and sign, "-.e0", a newline and NULs.
    src = np.empty((n, 32), dtype=np.uint8)
    decpt = k  # in k's place: the decimal point position, plus 324
    decpt += _digit_chars(d, src) + 324
    key = 17 - np.argmax(src[:, 19:2:-1] != 48, axis=1)  # the digit count
    zero = d == 0
    decpt[zero] = 325
    key[zero] = 1
    src[:, 20:].view(_SUFFIX.dtype)[:, 0] = _SUFFIX[decpt]
    key <<= 1
    key += bits < 0
    key += _FIRST_KEY[decpt]
    # Each text gathered through its template, _BLOCK rows at a time
    index = np.empty((min(n, _BLOCK), 25), dtype=np.intp)
    offsets = np.arange(0, 32 * len(index), 32)[:, None]
    for first in range(0, n, _BLOCK):
        span = slice(first, first + _BLOCK)
        block = index[: key[span].size]
        block[...] = _TEMPLATE[key[span]].view(np.uint8).reshape(block.shape)
        block += offsets[: len(block)]
        # every index is in range; clip skips a buffer
        np.take(src[span].ravel(), block, out=out[span], mode="clip")


def reprs(arrays: Sequence[np.ndarray]) -> list[bytes]:
    """For each array of finite doubles, the ASCII ``repr(float(v))`` of its
    values in row-major order, each followed by a newline, as one bytes
    object.  All arrays are formatted in one pass, so a call's fixed cost is
    paid once."""
    bits = np.concatenate([np.ravel(a).astype(np.float64, copy=False).view(np.int64) for a in arrays])
    if not np.isfinite(bits.view(np.float64)).all():
        raise ValueError("only finite doubles have a shortest round-trip text")
    ends = np.cumsum([np.size(a) for a in arrays]).tolist()
    texts, parts = [], []
    rows = np.empty((_CHUNK, 25), dtype=np.uint8)
    first = last = done = 0  # rows holds values first to last; done are joined
    for end in ends:
        while done < end:
            if done == last:
                first, last = last, min(last + _CHUNK, bits.size)
                _texts(bits[first:last], rows[: last - first])
            stop = min(end, last)
            parts.append(rows[done - first : stop - first].tobytes().translate(None, b"\0"))
            done = stop
        texts.append(b"".join(parts))
        parts = []
    return texts
