"""Arithmetic in the finite field GF(p**n).

Elements are polynomials over GF(p) reduced modulo a fixed monic irreducible
polynomial of degree n. Coefficients are stored little-endian (constant term
first), and each element carries an integer label sum(c_i * p**i) in
[0, q); the label order doubles as the symbol order used by the Latin-square
constructions. The modulus is the first irreducible found when monic
polynomials are enumerated in increasing label order of their non-leading
coefficients, i.e. the lexicographically smallest one. Orders must be ints:
numpy integers pass, and anything else is a DimensionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError, NotAPrimePowerError, _integer

__all__ = ["Field", "FieldElement", "prime_power_decompose"]


def prime_power_decompose(q: int):
    """(p, n) with q == p**n and p prime, or None if q is not a prime power."""
    q = _integer("q", q, DimensionError)
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            return (p, n) if m == 1 else None
        p += 1
    return (q, 1)  # q itself is prime


def _poly_mul_mod(a, b, modulus, p):
    # schoolbook product, then long division by the monic modulus
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_remainder(out, modulus, p)


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for div_deg in range(1, deg // 2 + 1):
        for label in range(p**div_deg):
            div = _label_coeffs(label, p, div_deg) + (1,)
            if _poly_remainder(poly, div, p) == (0,) * (len(div) - 1):
                return False
    return True


def _poly_remainder(a, div, p):
    a = list(a)
    deg_d = len(div) - 1
    for top in range(len(a) - 1, deg_d - 1, -1):
        lead = a[top]
        if lead:
            shift = top - deg_d
            for i, ci in enumerate(div):
                a[shift + i] = (a[shift + i] - lead * ci) % p
    return tuple(a[:deg_d])


def _label_coeffs(label, p, n):
    coeffs = []
    for _ in range(n):
        coeffs.append(label % p)
        label //= p
    return tuple(coeffs)


def _smallest_irreducible(p, n):
    for label in range(p**n):
        cand = _label_coeffs(label, p, n) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible degree-{n} polynomial over GF({p})")


@dataclass(frozen=True)
class FieldElement:
    """One element of a Field, as a little-endian coefficient tuple."""

    field: "Field"
    coeffs: tuple

    @property
    def label(self) -> int:
        """Integer label sum(c_i * p**i) in [0, q)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(
            f, _poly_mul_mod(self.coeffs, other.coeffs, f.modulus, f.p)
        )

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, by exhaustive search (q is tiny here)."""
        if not any(self.coeffs):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        one = self.field.one
        for cand in self.field.elements():
            if self * cand == one:
                return cand
        raise AssertionError("element without inverse; the modulus is not irreducible")

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise TypeError("operands must belong to the same field")

    def __repr__(self):
        return f"FieldElement(GF({self.field.q}), label={self.label})"


class Field:
    """GF(q) for a prime power q, with the smallest monic irreducible modulus."""

    def __init__(self, q: int):
        decomp = prime_power_decompose(q)
        if decomp is None:
            raise NotAPrimePowerError(f"{q} is not a prime power; GF({q}) does not exist")
        self.q = q
        self.p, self.n = decomp
        self.modulus = _smallest_irreducible(self.p, self.n)

    def element(self, label: int) -> FieldElement:
        """Element with the given integer label in [0, q); numpy integers pass."""
        label = _integer("label", label)
        if not 0 <= label < self.q:
            raise ValueError(f"label {label} out of range for GF({self.q})")
        return FieldElement(self, _label_coeffs(label, self.p, self.n))

    def elements(self):
        """All q elements in label order."""
        return [self.element(i) for i in range(self.q)]

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"Field(q={self.q}, p={self.p}, n={self.n}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def _field_cached(q: int) -> Field:
    return Field(q)
