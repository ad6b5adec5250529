"""Deterministic string forms for numbers in reports.

Report payloads are digested, so every float must serialize identically on
every platform. Rule: shortest repr via ``%.12g`` with negative zero folded
to plain ``0``; a complex number is ``a+bi`` with both parts present.
"""

from __future__ import annotations

import numpy as np


def fmt_real(x: float) -> str:
    """Format a real number with 12 significant digits, -0 folded to 0."""
    s = f"{float(x):.12g}"
    return "0" if s == "-0" else s


def _signed_join(re: str, im: str) -> str:
    if im.startswith("-"):
        return f"{re}-{im[1:]}i"
    return f"{re}+{im}i"


def fmt_complex_rows(values: np.ndarray) -> tuple[tuple[str, ...], ...]:
    """Each entry of a 2-D complex array as ``a+bi``, both parts fmt_real and
    always present (``1+0i``, ``0-1i``, ``-0.5+0.866025403784i``), one tuple
    per row.

    The distinct real and imaginary parts are sorted and cut into runs that
    share a decimal exponent and a 12-digit scaled mantissa; zeros,
    subnormals and non-finite values are runs of their own. Only the two ends
    of a run are formatted. %.12g rounds correctly, so it is monotone: when
    both ends print the same string, so does every value between them. A run
    whose ends differ is formatted value by value. Each distinct pair of part
    strings is joined once, and equal entries share one string object.
    """
    parts = np.concatenate([values.real.ravel(), values.imag.ravel()])
    distinct, where = np.unique(parts, return_inverse=True)  # -0.0 merges with 0.0
    magnitude = np.abs(distinct)
    normal = np.isfinite(distinct) & (magnitude >= np.finfo(np.float64).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):  # at zeros and non-finite values
        exponent = np.floor(np.log10(magnitude))
        mantissa = np.copysign(np.rint(magnitude / 10.0**exponent * 1e11), distinct)
    new_run = np.ones(len(distinct), dtype=bool)
    new_run[1:] = ~(normal[1:] & normal[:-1])
    new_run[1:] |= (exponent[1:] != exponent[:-1]) | (mantissa[1:] != mantissa[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, len(distinct)))

    strings = [fmt_real(x) for x in distinct[starts].tolist()]  # string k: run k's head
    multi = np.flatnonzero(lengths > 1)
    tails = [fmt_real(x) for x in distinct[starts[multi] + lengths[multi] - 1].tolist()]
    string_id = np.repeat(np.arange(len(starts)), lengths)
    for k, tail in zip(multi.tolist(), tails):
        if tail != strings[k]:
            members = range(starts[k] + 1, starts[k] + lengths[k])
            string_id[members] = range(len(strings), len(strings) + len(members))
            strings += [fmt_real(x) for x in distinct[members].tolist()]

    half = values.size
    pairs, entry = np.unique(
        string_id[where[:half]] * len(strings) + string_id[where[half:]], return_inverse=True
    )
    re_id, im_id = np.divmod(pairs, len(strings))
    part = np.array(strings, dtype=object)
    joined = np.empty(len(pairs), dtype=object)
    joined[:] = list(map(_signed_join, part[re_id], part[im_id]))
    return tuple(map(tuple, joined[entry].reshape(values.shape).tolist()))
