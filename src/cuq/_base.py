"""The numpy-free base of the package: exact scalar forms, the one CSV
writer and the exceptions that `cli.main` maps to exit codes.

`core`, `fit` and `fourier` re-export these names, so they keep their
identity wherever they are imported from; `meson` and `cli` import them
from here, so `cuq convert` and `cuq catalogue` run on the standard
library alone.
"""

from __future__ import annotations

import math

# rows per block wherever a table of times is evaluated or written
_BLOCK_ROWS = 4096


class DatasetFormatError(ValueError):
    """Malformed dataset file (carries the offending line number)."""


class RankDeficientDesign(RuntimeError):
    """Design matrix is numerically rank-deficient (aliased sampling)."""


class QuadratureNotConverged(RuntimeError):
    """The trapezoid coefficients did not settle within 2^16 nodes."""


def _sincosd(deg: float) -> tuple[float, float]:
    """(cos, sin) of deg degrees, reduced exactly to [-45, 45] first (Karney,
    J. Geodesy 87, 2013): exact at multiples of 90, with no -0.0."""
    t = math.remainder(deg, 360.0)
    q = round(t / 90.0)
    x = math.radians(t - 90.0 * q)
    c, s = math.cos(x), math.sin(x)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[q % 4]
    return c + 0.0, s + 0.0


def _scaled_split(r: float) -> tuple[float, float, float]:
    """s = min(r, 1), q = s/r and s - q = (r - 1)/max(r, 1), for r > 0:
    the split that forms the generator's root mu = sqrt(1 - 1/r^2 + 2 i c/r)
    as (s mu)^2 = (s - q)(s + q) + 2 i c s q.  One of s and q is 1 and the
    other at most 1, so no r^2 or 1/r^2 is formed, and s - q is rounded
    once, so it does not cancel next to r = 1.  For r <= 1: r, 1, r - 1."""
    s = min(r, 1.0)
    return s, s / r, (r - 1.0) / max(r, 1.0)


def _one_minus_r2(r: float) -> float:
    """1 - r^2 as (1 - r)(1 + r), which does not cancel next to r = 1
    (Goldberg, ACM Comput. Surv. 23, 1991, sec. 1.4).  For r <= 1 it is bit
    for bit -(s - q)(s + q) of `_scaled_split`, the (s mu)^2 that
    `integrate._generator` takes the root of at e.gamma = 0: every r <= 1
    closed form reads the generator's own Im mu = sqrt(1 - r^2)/r."""
    return (1.0 - r) * (1.0 + r)


def _csv_blocks(columns: dict):
    """CSV text of named, equal-length columns (numpy arrays, lists or
    tuples): the header line, then blocks of at most _BLOCK_ROWS rows, so
    no caller holds the whole text.  An array goes through `.tolist()`, and
    every value through `str`: a float is its shortest round-trip repr and
    an integer column stays an integer."""
    yield ",".join(columns) + "\n"
    cols = list(columns.values())
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        blocks = (c[start:start + _BLOCK_ROWS] for c in cols)
        rows = zip(*(b.tolist() if hasattr(b, "tolist") else b
                     for b in blocks), strict=True)
        yield "".join([",".join(map(str, row)) + "\n" for row in rows])
