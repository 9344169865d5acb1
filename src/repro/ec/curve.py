"""Short-Weierstrass elliptic curves ``y² = x³ + a·x + b`` over F_p.

The public interface is affine (:class:`Point`), while scalar multiplication
runs on Jacobian coordinates internally to avoid a modular inversion per
group operation.  This module serves both the NIST P-256 curve (baselines,
signatures) and the supersingular pairing curve ``y² = x³ + x``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ec.wnaf import wnaf_digits
from repro.errors import CurveError, ParameterError
from repro.mathutils.modular import modinv, modsqrt

Jacobian = Tuple[int, int, int]  # (X, Y, Z); point at infinity has Z == 0
Affine = Optional[Tuple[int, int]]  # (x, y); None is the point at infinity

#: wNAF width of variable-base multiplication: 2^(w-2) = 8 odd multiples
#: are built per call, against ≈ bits/(w+1) additions saved.
MUL_WIDTH = 5


class Curve:
    """The curve ``y² = x³ + a·x + b`` over ``F_p``.

    ``order`` is the order of the subgroup generated by ``generator`` (for
    prime-order curves such as P-256 this is the curve order); ``cofactor``
    times ``order`` gives the number of rational points.
    """

    __slots__ = ("p", "a", "b", "order", "cofactor", "_generator", "name",
                 "_gen_table")

    def __init__(self, p: int, a: int, b: int, order: Optional[int] = None,
                 generator: Optional[Tuple[int, int]] = None,
                 cofactor: int = 1, name: str = "curve") -> None:
        if p < 5:
            raise ParameterError("curve requires an odd prime field, p >= 5")
        a %= p
        b %= p
        if (4 * a * a * a + 27 * b * b) % p == 0:
            raise ParameterError("singular curve: 4a³ + 27b² ≡ 0 (mod p)")
        self.p = p
        self.a = a
        self.b = b
        self.order = order
        self.cofactor = cofactor
        self.name = name
        self._generator: Optional[Point] = None
        self._gen_table = None
        if generator is not None:
            self._generator = self.point(*generator)

    # -- point construction -------------------------------------------------

    @property
    def generator(self) -> "Point":
        if self._generator is None:
            raise CurveError(f"curve {self.name} has no generator configured")
        return self._generator

    def point(self, x: int, y: int) -> "Point":
        point = Point(self, x % self.p, y % self.p)
        if not point.is_on_curve():
            raise CurveError(f"({x}, {y}) is not on {self.name}")
        return point

    def infinity(self) -> "Point":
        return Point(self, None, None)

    def lift_x(self, x: int, y_parity: int = 0) -> "Point":
        """Return a point with the given x-coordinate (decompression)."""
        x %= self.p
        rhs = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
        y = modsqrt(rhs, self.p)
        if y % 2 != y_parity % 2:
            y = self.p - y
        return Point(self, x, y)

    def contains(self, x: int, y: int) -> bool:
        x %= self.p
        y %= self.p
        return (
            (y * y - (pow(x, 3, self.p) + self.a * x + self.b)) % self.p == 0
        )

    # -- Jacobian internals --------------------------------------------------

    def _jac_double(self, pt: Jacobian) -> Jacobian:
        X1, Y1, Z1 = pt
        p = self.p
        if Z1 == 0 or Y1 == 0:
            return (1, 1, 0)
        XX = X1 * X1 % p
        YY = Y1 * Y1 % p
        YYYY = YY * YY % p
        ZZ = Z1 * Z1 % p
        S = 2 * ((X1 + YY) ** 2 - XX - YYYY) % p
        M = (3 * XX + self.a * ZZ % p * ZZ) % p
        T = (M * M - 2 * S) % p
        Y3 = (M * (S - T) - 8 * YYYY) % p
        Z3 = ((Y1 + Z1) ** 2 - YY - ZZ) % p
        return (T, Y3, Z3)

    def _jac_add(self, pt1: Jacobian, pt2: Jacobian) -> Jacobian:
        X1, Y1, Z1 = pt1
        X2, Y2, Z2 = pt2
        p = self.p
        if Z1 == 0:
            return pt2
        if Z2 == 0:
            return pt1
        Z1Z1 = Z1 * Z1 % p
        Z2Z2 = Z2 * Z2 % p
        U1 = X1 * Z2Z2 % p
        U2 = X2 * Z1Z1 % p
        S1 = Y1 * Z2 % p * Z2Z2 % p
        S2 = Y2 * Z1 % p * Z1Z1 % p
        if U1 == U2:
            if S1 != S2:
                return (1, 1, 0)
            return self._jac_double(pt1)
        H = (U2 - U1) % p
        I = 4 * H * H % p
        J = H * I % p
        r = 2 * (S2 - S1) % p
        V = U1 * I % p
        X3 = (r * r - J - 2 * V) % p
        Y3 = (r * (V - X3) - 2 * S1 * J) % p
        Z3 = ((Z1 + Z2) ** 2 - Z1Z1 - Z2Z2) % p * H % p
        return (X3, Y3, Z3)

    def _jac_add_affine(self, pt: Jacobian, x2: int, y2: int) -> Jacobian:
        """Mixed addition ``pt + (x2, y2)`` with an affine (Z = 1) addend.

        Saves the addend's Z powers against :meth:`_jac_add`; every table
        entry and public-key base is affine, so this is the hot addition.
        """
        X1, Y1, Z1 = pt
        if Z1 == 0:
            return (x2, y2, 1)
        p = self.p
        Z1Z1 = Z1 * Z1 % p
        H = (x2 * Z1Z1 - X1) % p
        r = 2 * (y2 * Z1 % p * Z1Z1 - Y1) % p
        if H == 0:
            if r != 0:
                return (1, 1, 0)
            return self._jac_double(pt)
        HH = H * H % p
        I = 4 * HH % p
        J = H * I % p
        V = X1 * I % p
        X3 = (r * r - J - 2 * V) % p
        Y3 = (r * (V - X3) - 2 * Y1 * J) % p
        Z3 = ((Z1 + H) ** 2 - Z1Z1 - HH) % p
        return (X3, Y3, Z3)

    def _batch_affine(self, pts: List[Jacobian]) -> List[Affine]:
        """Normalise many Jacobian points with one inversion (Montgomery's
        trick); points at infinity map to ``None``."""
        p = self.p
        prefix = []
        acc = 1
        for _, _, Z in pts:
            prefix.append(acc)
            if Z:
                acc = acc * Z % p
        inv = modinv(acc, p)
        out: List[Affine] = [None] * len(pts)
        for i in range(len(pts) - 1, -1, -1):
            X, Y, Z = pts[i]
            if not Z:
                continue
            zinv = inv * prefix[i] % p
            inv = inv * Z % p
            zinv2 = zinv * zinv % p
            out[i] = (X * zinv2 % p, Y * zinv2 % p * zinv % p)
        return out

    def _jac_mul(self, pt: Jacobian, k: int) -> Jacobian:
        """``k·pt`` by width-5 wNAF over batch-normalised odd multiples."""
        if k == 0 or pt[2] == 0:
            return (1, 1, 0)
        p = self.p
        if k < 0:
            pt = (pt[0], (-pt[1]) % p, pt[2])
            k = -k
        twice = self._jac_double(pt)
        odd = [pt]   # P, 3P, 5P, …
        for _ in range((1 << (MUL_WIDTH - 2)) - 1):
            odd.append(self._jac_add(odd[-1], twice))
        table = self._batch_affine(odd)
        acc: Jacobian = (1, 1, 0)
        for digit in reversed(wnaf_digits(k, MUL_WIDTH)):
            acc = self._jac_double(acc)
            if digit:
                entry = table[abs(digit) >> 1]
                if entry is not None:
                    x, y = entry
                    acc = self._jac_add_affine(
                        acc, x, y if digit > 0 else (-y) % p
                    )
        return acc

    def _to_affine(self, pt: Jacobian) -> "Point":
        X, Y, Z = pt
        if Z == 0:
            return self.infinity()
        p = self.p
        zinv = modinv(Z, p)
        zinv2 = zinv * zinv % p
        return Point(self, X * zinv2 % p, Y * zinv2 % p * zinv % p)

    def mul_generator(self, k: int) -> "Point":
        """``k·G`` with a lazily built fixed-base wNAF table.

        The generator is multiplied on every signature, key generation and
        ECIES encryption, so the one-time table pays for itself quickly.
        """
        if self._generator is None:
            raise CurveError(f"curve {self.name} has no generator configured")
        if self.order is not None:
            k %= self.order
        if k == 0:
            return self.infinity()
        if self._gen_table is None:
            from repro.ec.wnaf import FixedBaseWnaf
            self._gen_table = FixedBaseWnaf(
                self, self._generator._jac(),
                bits=(self.order or self.p).bit_length(),
            )
        return self._to_affine(self._gen_table.mul(k))

    def multi_mul(self, pairs) -> "Point":
        """Compute ``Σ k_i · P_i`` (interleaved double-and-add).

        ``pairs`` is an iterable of ``(scalar, Point)``.  Used by the IBBE
        decrypt multi-exponentiation.
        """
        pairs = [(k, pt) for k, pt in pairs if k != 0 and not pt.is_infinity()]
        if not pairs:
            return self.infinity()
        bases = [
            (pt.x, pt.y if k > 0 else (-pt.y) % self.p, abs(k))
            for k, pt in pairs
        ]
        max_bits = max(k.bit_length() for _, _, k in bases)
        acc: Jacobian = (1, 1, 0)
        for bit in range(max_bits - 1, -1, -1):
            acc = self._jac_double(acc)
            for x, y, k in bases:
                if (k >> bit) & 1:
                    acc = self._jac_add_affine(acc, x, y)
        return self._to_affine(acc)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Curve)
            and other.p == self.p
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def __repr__(self) -> str:
        return f"Curve({self.name}: y² = x³ + {self.a}x + {self.b} over F_{self.p})"


class Point:
    """An affine point on a :class:`Curve` (or the point at infinity)."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x: Optional[int], y: Optional[int]) -> None:
        self.curve = curve
        self.x = x
        self.y = y

    def is_infinity(self) -> bool:
        return self.x is None

    def is_on_curve(self) -> bool:
        if self.is_infinity():
            return True
        return self.curve.contains(self.x, self.y)  # type: ignore[arg-type]

    def _jac(self) -> Jacobian:
        if self.is_infinity():
            return (1, 1, 0)
        return (self.x, self.y, 1)  # type: ignore[return-value]

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if other.curve != self.curve:
            raise CurveError("points on different curves")
        return self.curve._to_affine(
            self.curve._jac_add(self._jac(), other._jac())
        )

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __neg__(self) -> "Point":
        if self.is_infinity():
            return self
        return Point(self.curve, self.x, (-self.y) % self.curve.p)  # type: ignore[operator]

    def __mul__(self, k: int) -> "Point":
        if not isinstance(k, int):
            return NotImplemented
        return self.curve._to_affine(self.curve._jac_mul(self._jac(), k))

    __rmul__ = __mul__

    def double(self) -> "Point":
        return self.curve._to_affine(self.curve._jac_double(self._jac()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Point)
            and other.curve == self.curve
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self) -> int:
        return hash((self.curve.p, self.curve.a, self.curve.b, self.x, self.y))

    def encode(self) -> bytes:
        """Compressed SEC1-style encoding (02/03 prefix + x), 00 for infinity."""
        if self.is_infinity():
            return b"\x00"
        size = (self.curve.p.bit_length() + 7) // 8
        prefix = b"\x03" if self.y % 2 else b"\x02"  # type: ignore[operator]
        return prefix + self.x.to_bytes(size, "big")  # type: ignore[union-attr]

    @classmethod
    def decode(cls, curve: Curve, data: bytes) -> "Point":
        if data == b"\x00":
            return curve.infinity()
        if not data or data[0] not in (2, 3):
            raise CurveError("malformed compressed point")
        x = int.from_bytes(data[1:], "big")
        return curve.lift_x(x, y_parity=data[0] - 2)

    def __repr__(self) -> str:
        if self.is_infinity():
            return f"Point(infinity on {self.curve.name})"
        return f"Point({self.x}, {self.y} on {self.curve.name})"
