import math
from fractions import Fraction

import numpy as np
import pytest

from zecap.channels import e21_spanning_terms
from zecap.exactnum import (
    Coeff,
    ExactMatrix,
    exact_all_zero,
    exact_matmul,
    exact_projector,
    exact_vector,
    vector_terms,
)
from zecap.linalg import ket_from_terms, max_abs
from zecap.subspaces import Subspace


def _matrix(entries) -> ExactMatrix:
    """ExactMatrix from a 2-D list of Coeff."""
    den = math.lcm(*(Fraction(x).denominator for row in entries for c in row for x in c))
    num = np.array([[[int(Fraction(c[k]) * den) for c in row] for row in entries]
                    for k in range(4)], dtype=object)
    return ExactMatrix.reduced(num, den)


def _random_coeff(rng, imag=True) -> Coeff:
    parts = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(4)]
    if not imag:
        parts[2] = parts[3] = Fraction(0)
    return Coeff(*parts)


def _is_identity(m: ExactMatrix) -> bool:
    return exact_all_zero(m - ExactMatrix.eye(m.shape[0]))


def test_sqrt2_squares_to_two():
    rt2 = _matrix([[Coeff(b=Fraction(1))]])
    assert exact_all_zero(exact_matmul(rt2, rt2) - _matrix([[Coeff(Fraction(2))]]))


def test_field_inverse():
    x = _matrix([[Coeff(Fraction(3, 2), Fraction(-1, 3))]])
    assert _is_identity(exact_matmul(x, x.inverse()))
    z = _matrix([[Coeff(Fraction(2), Fraction(1), Fraction(-1), Fraction(3))]])
    assert _is_identity(exact_matmul(z, z.inverse()))
    assert _is_identity(exact_matmul(z.inverse(), z))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _matrix([[Coeff()]]).inverse()
    # (1 + i) and (1 + i)^2 = 2i make two parallel rows
    one_i = Coeff(Fraction(1), Fraction(0), Fraction(1))
    with pytest.raises(ZeroDivisionError):
        _matrix([[Coeff(Fraction(1)), one_i],
                 [one_i, Coeff(c=Fraction(2))]]).inverse()
    v = exact_vector(4, [(0, Coeff(Fraction(1))), (3, Coeff(b=Fraction(1)))])
    with pytest.raises(ZeroDivisionError):
        exact_projector([v, v])


def test_arithmetic_closure_and_float_agreement():
    rng = np.random.default_rng(0)
    signs = np.array([1, -1, -1])
    for trial in range(20):
        a_entries = [[_random_coeff(rng) for _ in range(3)] for _ in range(2)]
        b_entries = [[_random_coeff(rng, imag=trial % 2 == 0) for _ in range(2)]
                     for _ in range(3)]
        a, b = _matrix(a_entries), _matrix(b_entries)
        fa = np.array([[complex(c) for c in row] for row in a_entries])
        fb = np.array([[complex(c) for c in row] for row in b_entries])
        assert max_abs(a.to_complex() - fa) < 1e-12
        assert max_abs(exact_matmul(a, b).to_complex() - fa @ fb) < 1e-9
        assert max_abs((a - b.T).to_complex() - (fa - fb.T)) < 1e-12
        assert max_abs(a.dagger().to_complex() - fa.conj().T) < 1e-12
        square = exact_matmul(b, a)
        assert max_abs(square.sign_conjugate(signs).to_complex()
                       - np.diag(signs) @ fb @ fa @ np.diag(signs)) < 1e-9
        for c in a_entries[0]:
            if any(c):
                y = _matrix([[c]])
                q = exact_matmul(_matrix([[b_entries[0][0]]]), y.inverse())
                assert abs(q.to_complex()[0, 0] - complex(b_entries[0][0]) / complex(c)) < 1e-9


def test_exact_inverse_matches_float():
    rng = np.random.default_rng(1)
    entries = [[_random_coeff(rng) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        a, b, c, d = entries[i][i]
        entries[i][i] = Coeff(a + 7, b, c, d)    # keep it comfortably nonsingular
    m = _matrix(entries)
    inv = m.inverse()
    assert _is_identity(exact_matmul(m, inv))
    assert math.gcd(inv.den, *inv.num.flat) == 1          # one reduced denominator
    assert max_abs(inv.to_complex() - np.linalg.inv(m.to_complex())) < 1e-9


def test_exact_projector_idempotent_and_hermitian():
    terms = e21_spanning_terms()
    vs = [exact_vector(16, t) for t in terms]
    p = exact_projector(vs)
    assert exact_all_zero(exact_matmul(p, p) - p)
    assert exact_all_zero(p - p.dagger())


def test_exact_projector_matches_float_backend():
    terms = e21_spanning_terms()
    vs = [exact_vector(16, t) for t in terms]
    p_exact = exact_projector(vs).to_complex()
    float_span = [ket_from_terms([16], [(i, complex(c)) for i, c in t])
                  for t in terms]
    p_float = Subspace.from_span([16], float_span).projector
    assert max_abs(p_exact - p_float) < 1e-12


def test_exact_projector_of_a_complex_span():
    half, rt2, i = Fraction(1, 2), Fraction(1), Fraction(1)
    terms = [
        [(0, Coeff(Fraction(1))), (5, Coeff(c=i)), (7, Coeff(half, d=rt2))],
        [(1, Coeff(d=-rt2)), (2, Coeff(Fraction(1), c=-half))],
        [(3, Coeff(c=i)), (5, Coeff(Fraction(2)))],
    ]
    vs = [exact_vector(8, t) for t in terms]
    assert [vector_terms(v) for v in vs] == terms
    p = exact_projector(vs)
    assert exact_all_zero(exact_matmul(p, p) - p)
    assert exact_all_zero(p - p.dagger())
    for v in vs:                         # P fixes the span, not its conjugate
        assert exact_all_zero(exact_matmul(p, v) - v)
    float_span = [ket_from_terms([8], [(k, complex(c)) for k, c in t]) for t in terms]
    p_float = Subspace.from_span([8], float_span).projector
    assert max_abs(p.to_complex() - p_float) < 1e-12
