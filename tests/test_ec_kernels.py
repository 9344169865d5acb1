"""Exponentiation kernels against a plain double-and-add reference.

``Point * k`` (width-5 wNAF with mixed addition), ``FixedBaseWnaf.mul``
(affine fixed-base tables) and the GT table power must agree with the
textbook binary ladder below on every curve the library uses, including
the points where batch normalisation meets infinity: the point at
infinity itself, and small-order points of ``y² = x³ + x`` whose
multiples reach infinity.
"""

from __future__ import annotations

import pytest

from repro.ec import P256, FixedBaseWnaf, Point
from repro.errors import MathError
from repro.fields.fp2 import fp2_mul
from repro.pairing import PairingGroup, preset

GROUPS = {name: PairingGroup(preset(name)) for name in ("toy64", "std160")}
CURVES = {"toy64": GROUPS["toy64"].curve, "std160": GROUPS["std160"].curve,
          "p256": P256}


def reference_mul(point: Point, k: int) -> Point:
    """Right-to-left binary double-and-add over affine ``Point`` addition."""
    if k < 0:
        point, k = -point, -k
    result = point.curve.infinity()
    while k:
        if k & 1:
            result = result + point
        point = point + point
        k >>= 1
    return result


def reference_gt_pow(raw, k: int, p: int):
    """Square-and-multiply in F_p²."""
    result = (1, 0)
    while k:
        if k & 1:
            result = fp2_mul(result, raw, p)
        raw = fp2_mul(raw, raw, p)
        k >>= 1
    return result


def scalars(order: int):
    bits = order.bit_length()
    return [0, 1, 2, 3, 7, order - 1, order, order + 1, -1, -2,
            -(order - 1), 2 ** bits - 1, -(2 ** bits - 1),
            0x5DEECE66D % order]


def small_odd_order_point(curve):
    """A point of odd prime order ``l <= 15`` on ``y² = x³ + x``
    (``#E = p + 1``; toy64 has ``l = 5``, std160 ``l = 11``), so that
    ``l·P`` — one of the width-5 odd multiples — is infinity.  Found with
    the reference ladder, not the kernels under test."""
    order = next(l for l in (3, 5, 7, 11, 13) if (curve.p + 1) % l == 0)
    for x in range(2, 1000):
        try:
            candidate = reference_mul(curve.lift_x(x), (curve.p + 1) // order)
        except MathError:
            continue
        if not candidate.is_infinity():
            return order, candidate
    raise AssertionError("no small odd-order point found")


_POINTS = {}


def points(name: str):
    """Bases per curve: the generator, infinity and, on the type-A curve,
    the order-2 point (0, 0) and a small odd-order point — bases whose
    table entries include infinity, the batch-normalisation edge case."""
    if name not in _POINTS:
        curve = CURVES[name]
        found = [("generator", curve.generator),
                 ("infinity", curve.infinity())]
        if curve.a == 1 and curve.b == 0:
            found.append(("order-2", curve.point(0, 0)))
            found.append(("small-odd-order", small_odd_order_point(curve)[1]))
        _POINTS[name] = found
    return _POINTS[name]


CASES = [(name, label) for name in CURVES for label, _ in points(name)]


def _point(name: str, label: str) -> Point:
    return dict(points(name))[label]


@pytest.mark.parametrize("name,label", CASES)
def test_point_mul_matches_reference(name, label):
    point = _point(name, label)
    for k in scalars(CURVES[name].order):
        assert point * k == reference_mul(point, k), (name, label, k)


@pytest.mark.parametrize("name,label", CASES)
def test_fixed_base_table_matches_reference(name, label):
    curve = CURVES[name]
    point = _point(name, label)
    bits = curve.order.bit_length()
    table = FixedBaseWnaf(curve, point._jac(), bits=bits)
    for k in scalars(curve.order):
        got = curve._to_affine(table.mul(k))
        assert got == reference_mul(point, k), (name, label, k)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_small_order_points(name):
    curve = CURVES[name]
    point = curve.point(0, 0)
    assert (point * 2).is_infinity()
    assert point * 15 == point
    order, odd = small_odd_order_point(curve)
    assert reference_mul(odd, order).is_infinity()
    assert (odd * order).is_infinity()
    assert odd * (order + 2) == odd * 2


@pytest.mark.parametrize("name", sorted(CURVES))
def test_multi_mul_repeated_and_opposite_bases(name):
    # Mixed addition meets its own addend (doubling) and its negation.
    curve = CURVES[name]
    point = curve.generator * 3
    assert curve.multi_mul([(5, point), (5, point)]) == reference_mul(
        point, 10)
    assert curve.multi_mul([(1, point), (-1, point)]).is_infinity()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_gt_table_power_matches_reference(name):
    group = GROUPS[name]
    base = group.pair(group.g1, group.g1 ** 5)
    table = group.pair(group.g1, group.g1 ** 5).enable_precomputation()
    assert table._wnaf_table is not None
    for k in scalars(group.q):
        expected = reference_gt_pow(base.raw, k % group.q, group.p)
        assert (table ** k).raw == expected, (name, k)
        assert (base ** k).raw == expected, (name, k)


@pytest.mark.parametrize("name", ["std160", "p256"])
def test_decode_rejects_x_without_square_root(name):
    curve = CURVES[name]
    p = curve.p
    x = next(x for x in range(1, 1000)
             if pow((x ** 3 + curve.a * x + curve.b) % p, (p - 1) // 2, p)
             == p - 1)
    size = (p.bit_length() + 7) // 8
    for prefix in (b"\x02", b"\x03"):
        with pytest.raises(MathError):
            Point.decode(curve, prefix + x.to_bytes(size, "big"))
    # A neighbouring x that does lift still round-trips.
    good = next(x for x in range(1, 1000)
                if pow((x ** 3 + curve.a * x + curve.b) % p, (p - 1) // 2, p)
                == 1)
    point = curve.lift_x(good)
    assert curve.contains(point.x, point.y)
    assert Point.decode(curve, point.encode()) == point
