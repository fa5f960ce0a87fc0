"""b"%.17g" % v for float64 vectors, byte for byte, computed in numpy.

`jhl kernel` writes its matrices with 17 significant digits so that the files
round-trip exactly, and formatting each value with `%` was most of what its
writer did. Here the digits of most values come from double-double arithmetic
and the bytes from one array layout; a value whose digits cannot be certified
is formatted by `%` on its own, so the result never differs from `%`.

The values are formatted 4,096 (`CHUNK`) at a time, so the dozen temporaries
a slice needs take under 1 MB together, whatever the length of the vector.
The constant tables those slices share (powers of ten, the `%02d` pairs, the
trailing-digit counts, the keep-mask and the lead and exponent bytes of every
decimal exponent the fast path meets) are built once, when the module is
imported; `cli._write_matrix_csv` imports it only when it writes a matrix.
"""

from __future__ import annotations

import numpy as np

CHUNK = 4096
# The decimal exponents k = floor(log10 x) of 1e-290 <= x < 1e16, with the
# one-off that rounding in log10 can give at either end.
_K_MIN, _K_MAX = -291, 16


def percent_17g(values: list) -> list:
    """b"%.17g" % v for each float v: the formatter of the values that
    `format_17g` cannot certify."""
    return [b"%.17g" % v for v in values]


def _split(x: np.ndarray) -> tuple:
    """x = x1 + x2 exactly, each half with at most 26 significant bits
    (Veltkamp's split, applied to the frexp mantissa so that no step
    overflows)."""
    mantissa, exponent = np.frexp(x)
    scaled = mantissa * 134217729.0  # 2^27 + 1
    high = scaled - (scaled - mantissa)
    return np.ldexp(high, exponent), np.ldexp(mantissa - high, exponent)


def _powers_of_ten() -> tuple:
    """10^s = hi + lo for s = 16 - k over every k in [_K_MIN, _K_MAX], each
    half rounded from the exact integers."""
    exact = [10 ** s for s in range(16 - _K_MAX, 17 - _K_MIN)]
    hi = [float(power) for power in exact]
    return np.array(hi), np.array([float(power - int(h)) for power, h in zip(exact, hi)])


_TEN_HI, _TEN_LO = _powers_of_ten()


def _round17(x: np.ndarray, k: np.ndarray) -> tuple:
    """D = round(x 10^(16 - k)) as int64, and whether D is certain and has
    17 digits, for 1e-290 <= x < 1e16 and k = floor(log10 x), or one off it.

    10^(16 - k) = hi + lo is rounded from exact integers, and x hi is formed
    exactly by Dekker's product (Numer. Math. 18, 1971), one numpy operation
    per rounding so that nothing is fused. The sum's error is below 1e-14, so
    D is certain unless its fraction is within 2^-20 of a half. A k one too
    high or low, near a power of ten, gives 16 or 18 digits; so does a D that
    rounds up to 10^17, or down to 10^16 from below."""
    at = _K_MAX - k
    hi, lo = _TEN_HI[at], _TEN_LO[at]
    x1, x2 = _split(x)
    h1, h2 = _split(hi)
    product = x * hi
    error = ((x1 * h1 - product) + x1 * h2 + x2 * h1) + x2 * h2
    error = error + x * lo
    nearest = np.rint(error)
    fraction = error - nearest
    # product >= 2^53 is an integer whenever D can have 17 digits.
    rounded = product.astype(np.int64) + nearest.astype(np.int64)
    sure = ((np.abs(np.abs(fraction) - 0.5) > 2.0 ** -20) & (rounded < 10 ** 17)
            & ((rounded > 10 ** 16) | ((rounded == 10 ** 16) & (fraction >= 0.0))))
    return rounded, sure


def _affix(k: int) -> bytes:
    """The 5-byte lead ("0." and zeros) and 5-byte exponent of %.17g for a
    value of decimal exponent k, NUL-padded."""
    if k < -4:
        return bytes(5) + (b"e-%02d" % -k).ljust(5, b"\0")
    return (b"0." + b"0" * (-k - 1) if k < 0 else b"").ljust(10, b"\0")


def _keep_mask() -> np.ndarray:
    """Row whole * 18 + kept: 255 over the 35 digit and point bytes that a
    value with `whole` digits before the point and `kept` significant digits
    writes, 0 over the rest. The digits are laid out twice, before and after
    the point: the first copy keeps digits [0, whole), the second digits
    [whole, kept), and the point stands only between two kept digits."""
    j = np.arange(17)
    w, c = np.arange(17)[:, None, None], np.arange(18)[None, :, None]
    mask = np.concatenate([np.broadcast_to(j < w, (17, 18, 17)),
                           np.broadcast_to((w > 0) & (c > w), (17, 18, 1)),
                           (j >= w) & (j < c)], axis=2)
    return np.where(mask, 255, 0).astype(np.uint8).reshape(-1, 35)


_ASCII_PAIRS = np.frombuffer(b"".join(b"%02d" % q for q in range(100)), np.uint16)
# Where the last nonzero digit of pair q stands: 2 if q % 10, 1 for a
# nonzero multiple of 10, 0 for 00.
_TAIL = np.array([2 if q % 10 else int(q > 0) for q in range(100)], np.uint8)
_PAIR_END = np.arange(1, 17, 2, dtype=np.uint8)[:, None]
_KEEP = _keep_mask()
_AFFIXES = np.frombuffer(b"".join(_affix(k) for k in range(_K_MIN, _K_MAX + 1)),
                         np.uint8).reshape(-1, 10)


def _format_chunk(values: np.ndarray, cells: np.ndarray) -> None:
    """Fill cells[i] with b"%.17g" % values[i]; see `format_17g`."""
    magnitude = np.abs(values)
    fast = np.flatnonzero((magnitude >= 1e-290) & (magnitude < 1e16))
    x = magnitude[fast]
    k = np.floor(np.log10(x)).astype(np.int64)
    digits17, sure = _round17(x, k)
    fast, k, digits17 = fast[sure], k[sure], digits17[sure]

    # The leading digit, then eight pairs of digits, one row of n each so
    # that every numpy loop runs over n, divided by scalars in int32.
    upper = digits17 // 10 ** 8
    halves = upper.astype(np.int32), (digits17 - upper * 10 ** 8).astype(np.int32)
    pairs = np.empty((9, fast.size), np.int32)
    for row, power in enumerate((8, 6, 4, 2, 0, 6, 4, 2, 0)):
        pairs[row] = halves[row > 4] // 10 ** power % 100
    digits = np.ascontiguousarray(_ASCII_PAIRS[pairs.T]).view(np.uint8)[:, 1:]
    # Significant digits: pair j > 0 ends at digit 2j, so the last nonzero
    # digit of a nonzero pair q is digit 2j if q % 10 else 2j - 1.
    tail = _TAIL[pairs[1:]]
    tail += np.where(tail > 0, _PAIR_END, 0)
    kept = np.maximum(tail.max(axis=0), 1)
    whole = np.where(k < -4, 1, np.maximum(k + 1, 0))  # digits before the point

    # Columns: sign, lead, the digits before the point, the point, the digits
    # after it, the exponent, "\n". The digits are written twice and masked
    # by (whole, kept); a NUL byte is dropped.
    ends = _AFFIXES[k - _K_MIN]
    out = np.empty((fast.size, 47), np.uint8)
    out[:, 0] = np.where(values[fast] < 0, ord("-"), 0)
    out[:, 1:6] = ends[:, :5]
    out[:, 6:23] = digits
    out[:, 23] = ord(".")
    out[:, 24:41] = digits
    out[:, 6:41] &= _KEEP[whole * 18 + kept]
    out[:, 41:46] = ends[:, 5:]
    out[:, 46] = ord("\n")

    cells[fast] = out[out != 0].tobytes().split(b"\n")[:-1]
    rest = np.ones(values.size, dtype=bool)
    rest[fast] = False
    rest = np.flatnonzero(rest)
    cells[rest] = percent_17g(values[rest].tolist())


def format_17g(values: np.ndarray) -> np.ndarray:
    """b"%.17g" % v for each v of a float64 vector, as an object array of bytes.

    For 1e-290 <= |v| < 1e16 the 17 digits come from `_round17`, and the
    bytes are laid out as %.17g does: sign, fixed form for -4 <= k < 17,
    trailing zeros and a bare point dropped, at least two exponent digits.
    Zeros, subnormals, non-finite values, the rest of the range and the
    values `_round17` cannot certify are formatted by `percent_17g`.

    `_format_chunk` formats CHUNK values at a time into slices of the one
    array returned, from the tables built at import, so the temporaries do
    not grow with the vector."""
    cells = np.empty(values.size, dtype=object)
    for start in range(0, values.size, CHUNK):
        _format_chunk(values[start:start + CHUNK], cells[start:start + CHUNK])
    return cells
