"""Deterministic string forms for numbers in reports.

Report payloads are digested, so every float must serialize identically on
every platform. Rule: shortest repr via ``%.12g`` with negative zero folded
to plain ``0``.
"""

from __future__ import annotations


def fmt_real(x: float) -> str:
    """Format a real number with 12 significant digits, -0 folded to 0."""
    s = f"{float(x):.12g}"
    if s == "-0":
        s = "0"
    return s


def fmt_complex(z: complex) -> str:
    """Format ``a+bi`` with both parts always present.

    Examples: ``1+0i``, ``0-1i``, ``-0.5+0.866025403784i``.
    """
    z = complex(z)
    re = fmt_real(z.real)
    im = fmt_real(z.imag)
    if im.startswith("-"):
        return f"{re}-{im[1:]}i"
    return f"{re}+{im}i"
