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
    if s == "-0":
        s = "0"
    return s


def _signed_join(re: str, im: str) -> str:
    if im.startswith("-"):
        return f"{re}-{im[1:]}i"
    return f"{re}+{im}i"


def fmt_complex(z: complex) -> str:
    """Format ``a+bi`` with both parts always present.

    Examples: ``1+0i``, ``0-1i``, ``-0.5+0.866025403784i``.
    """
    z = complex(z)
    return _signed_join(fmt_real(z.real), fmt_real(z.imag))


def fmt_complex_rows(values: np.ndarray) -> tuple[tuple[str, ...], ...]:
    """fmt_complex of every entry of a 2-D complex array, one tuple per row."""
    return tuple(
        tuple(map(_signed_join, map(fmt_real, re.tolist()), map(fmt_real, im.tolist())))
        for re, im in zip(values.real, values.imag)
    )
