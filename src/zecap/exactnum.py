"""Exact matrices over the field Q(sqrt(2), i).

An `ExactMatrix` is (N0 + sqrt(2) N1 + i N2 + i sqrt(2) N3) / den for integer
matrices N0..N3, stacked in `num`, and one positive integer `den` shared by
every entry. Products are integer matmuls of the components, so no
arithmetic happens entry by entry. The symmetry identities are zero tests of
products of a span with itself and divide nothing; the one division is the
Gauss-Jordan inverse in `exact_projector`, for spans without S1 = D S0.

Used where only field operations are needed. Eigendecompositions are out of
scope for this backend: eigenvalues generally leave the field.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

_SQRT2 = 2.0 ** 0.5
_ZERO = Fraction(0)


class Coeff(NamedTuple):
    """The scalar (a + b*sqrt(2)) + i*(c + d*sqrt(2)) with rational a, b, c, d."""

    a: Fraction = _ZERO
    b: Fraction = _ZERO
    c: Fraction = _ZERO
    d: Fraction = _ZERO

    def __complex__(self) -> complex:
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)


def _product(x, y, op, shape: tuple[int, ...]) -> np.ndarray:
    """Components of x * y, where op multiplies one component of x by one of y.

    Component k carries sqrt(2) when bit 0 of k is set and i when bit 1 is,
    so e_j e_k = e_(j^k), doubled when both carry sqrt(2) and negated when
    both carry i. All-zero components are skipped.
    """
    out = np.zeros((4,) + shape, dtype=object)
    for j in range(4):
        if not np.any(x[j]):
            continue
        for k in range(4):
            if not np.any(y[k]):
                continue
            term = op(x[j], y[k])
            if j & k & 1:
                term = 2 * term
            if j & k & 2:
                term = -term
            out[j ^ k] += term
    return out


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """A matrix over Q(sqrt(2), i): num / den, num of shape (4, rows, cols)."""

    num: np.ndarray       # object array of Python ints: parts 1, sqrt2, i, i*sqrt2
    den: int = 1          # positive, coprime to the entries of num

    @classmethod
    def reduced(cls, num: np.ndarray, den: int) -> "ExactMatrix":
        g = math.gcd(den, *num.flat)
        return cls(num // g, den // g) if g > 1 else cls(num, den)

    @classmethod
    def eye(cls, n: int) -> "ExactMatrix":
        num = np.zeros((4, n, n), dtype=object)
        num[0] = np.eye(n, dtype=int).astype(object)
        return cls(num)

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape[1:]

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self.num.transpose(0, 2, 1), self.den)

    def dagger(self) -> "ExactMatrix":
        num = self.num.transpose(0, 2, 1).copy()
        num[2:] = -num[2:]
        return ExactMatrix(num, self.den)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        den = math.lcm(self.den, other.den)
        return ExactMatrix.reduced(self.num * (den // self.den)
                                   - other.num * (den // other.den), den)

    def sign_conjugate(self, signs: np.ndarray) -> "ExactMatrix":
        """diag(s) M diag(s) for a vector s of +-1 signs."""
        flip = np.outer(signs, signs) < 0
        return ExactMatrix(np.where(flip, -self.num, self.num), self.den)

    def inverse(self) -> "ExactMatrix":
        """Gauss-Jordan inverse, each pivot p inverted through the field norm.

        p * conj(p) = x + y*sqrt(2) is real, and multiplying by x - y*sqrt(2)
        leaves the rational x^2 - 2y^2, which vanishes only at p = 0.
        """
        n = self.shape[0]
        if self.shape != (n, n):
            raise ValueError("inverse expects a square matrix")
        # [N | den*I] reduces to [I | (N/den)^-1]
        work = np.concatenate([self.num, ExactMatrix.eye(n).num * self.den], axis=2)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[:, r, col].any()), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular over Q(sqrt(2), i)")
            work[:, [col, pivot]] = work[:, [pivot, col]]
            a, b, c, d = (Fraction(v) for v in work[:, col, col])
            x = a * a + 2 * b * b + c * c + 2 * d * d
            y = 2 * (a * b + c * d)
            conj = np.array([a, b, -c, -d], dtype=object)
            recip = _product(conj, (x, -y, 0, 0), operator.mul, ()) / (x * x - 2 * y * y)
            row = _product(recip, work[:, col], operator.mul, (2 * n,))
            work = work - _product(work[:, :, col:col + 1], row[:, None, :],
                                   operator.mul, (n, 2 * n))
            work[:, col] = row
        inv = work[:, :, n:]
        den = math.lcm(*(v.denominator for v in inv.flat))
        num = np.array([int(v * den) for v in inv.flat], dtype=object)
        return ExactMatrix.reduced(num.reshape(inv.shape), den)

    def to_complex(self) -> np.ndarray:
        parts = self.num.astype(float)
        return ((parts[0] + _SQRT2 * parts[1])
                + 1j * (parts[2] + _SQRT2 * parts[3])) / self.den


def exact_vector(length: int, terms: Sequence[tuple[int, Coeff]]) -> ExactMatrix:
    """Column vector from (flat index, coefficient) terms; repeated indices add."""
    den = math.lcm(*(Fraction(x).denominator for _, c in terms for x in c))
    num = np.zeros((4, length, 1), dtype=object)
    for idx, c in terms:
        for k, x in enumerate(c):
            num[k, idx, 0] += int(Fraction(x) * den)
    return ExactMatrix.reduced(num, den)


def vector_terms(v: ExactMatrix) -> list[tuple[int, Coeff]]:
    """The nonzero (flat index, coefficient) terms of a column vector, in index order."""
    col = v.num[:, :, 0]
    return [(i, Coeff(*(Fraction(x, v.den) for x in col[:, i])))
            for i in range(col.shape[1]) if col[:, i].any()]


def exact_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    num = _product(a.num, b.num, np.matmul, (a.shape[0], b.shape[1]))
    return ExactMatrix.reduced(num, a.den * b.den)


def exact_projector(vectors: Sequence[ExactMatrix]) -> ExactMatrix:
    """Projector onto the span of exact column vectors, via Gram-matrix inversion.

    Avoids normalization (square roots leave the field): P = V (V^dag V)^-1 V^dag.
    P depends only on the span, so each vector enters by its integer numerator.
    """
    v = ExactMatrix(np.concatenate([x.num for x in vectors], axis=2))
    vd = v.dagger()
    gram = exact_matmul(vd, v)
    return exact_matmul(exact_matmul(v, gram.inverse()), vd)


def exact_all_zero(m: ExactMatrix) -> bool:
    return not m.num.any()
