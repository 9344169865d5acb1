"""Fixed-base scalar multiplication via width-w non-adjacent form (wNAF).

A scalar recoded into width-``w`` NAF has digits that are zero or odd with
``|d| < 2^(w-1)``, and at most one non-zero digit in any ``w`` consecutive
positions — on average ``bits/(w+1)`` non-zero digits versus ``bits/2``
set bits in binary.  For a *fixed* base the per-bit-position odd multiples
can be precomputed once, after which every multiplication is just the
sparse sum of table entries (group negation is free in EC groups, which is
what lets wNAF halve the table against unsigned windows of the same
width).

The long-lived bases this serves are the IBBE public-key elements ``w``,
``v``, ``h`` (exponentiated by every membership operation, Algorithms 1-3)
and curve generators (every signature / key generation).  Table usage is
observable through the module-level :data:`registry` (``ec.precomp.*``
metrics), which :meth:`repro.System.metric_sources` folds into the
unified telemetry snapshot.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.obs.collect import register_worker_source
from repro.obs.metrics import MetricRegistry
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ec.curve import Curve, Jacobian

#: Process-wide precomputation metrics: ``ec.precomp.tables`` (tables
#: built), ``ec.precomp.hits`` (exponentiations served by a table),
#: ``ec.precomp.misses`` (exponentiations of a base without a table).
#: Registered as a worker source so counters bumped inside pool workers
#: are merged back into the parent process after each traced dispatch.
registry = register_worker_source(MetricRegistry())
TABLES = registry.counter("ec.precomp.tables")
HITS = registry.counter("ec.precomp.hits")
MISSES = registry.counter("ec.precomp.misses")

#: Default window width of the fixed-base tables: 2^(w-2) = 4 affine
#: entries per digit position keeps a 160-bit table near 650 points.
DEFAULT_WIDTH = 4


def wnaf_digits(k: int, width: int = DEFAULT_WIDTH) -> List[int]:
    """Width-``width`` NAF of ``k >= 0``, least-significant digit first.

    Every digit is either zero or an odd integer with absolute value below
    ``2^(width-1)``; for a ``b``-bit scalar the digit string has at most
    ``b + 1`` entries.
    """
    if k < 0:
        raise ValidationError("wNAF recoding expects a non-negative scalar")
    if width < 2:
        raise ValidationError("wNAF width must be >= 2")
    radix = 1 << width
    half = radix >> 1
    digits: List[int] = []
    while k:
        if k & 1:
            digit = k & (radix - 1)
            if digit >= half:
                digit -= radix
            k -= digit
            digits.append(digit)
        else:
            digits.append(0)
        k >>= 1
    return digits


class FixedBaseWnaf:
    """Per-digit-position odd-multiple tables for one fixed curve point.

    ``entries[(i << (width-2)) + t]`` holds ``(2t+1) · 2^i · B`` as an
    affine pair (``None`` at infinity), normalised in one batch when the
    table is built.  A recoded scalar is then evaluated with one mixed
    addition per non-zero digit and *no* doublings; negative digits
    negate the looked-up point, which costs one field subtraction.
    """

    __slots__ = ("curve", "width", "entries")

    def __init__(self, curve: "Curve", base: "Jacobian",
                 bits: int, width: int = DEFAULT_WIDTH) -> None:
        self.curve = curve
        self.width = width
        rows: List["Jacobian"] = []
        for _ in range(bits + 2):
            twice = curve._jac_double(base)
            rows.append(base)
            for _ in range((1 << (width - 2)) - 1):
                rows.append(curve._jac_add(rows[-1], twice))
            base = twice
        self.entries = curve._batch_affine(rows)
        TABLES.add()

    def mul(self, k: int) -> "Jacobian":
        """``k · B`` for ``|k| < 2^bits`` (Jacobian result)."""
        HITS.add()
        curve = self.curve
        p = curve.p
        shift = self.width - 2
        negate = k < 0
        acc: "Jacobian" = (1, 1, 0)
        for i, digit in enumerate(wnaf_digits(abs(k), self.width)):
            if digit:
                entry = self.entries[(i << shift) + (abs(digit) >> 1)]
                if entry is not None:
                    x, y = entry
                    if (digit < 0) != negate:
                        y = (-y) % p
                    acc = curve._jac_add_affine(acc, x, y)
        return acc
