import numpy as np
import pytest

from conftest import (basis_ket, gram_rank, permute_factors, random_density,
                      random_hermitian, tensor)
from zecap import linalg
from zecap.channels import e21_spanning_terms, make_e21
from zecap.cli import MAX_RESTARTS
from zecap.subspaces import Subspace, max_product_overlap
from zecap.linalg import (
    contract_factors,
    dim_of,
    gram_schmidt,
    haar_ket,
    ket_from_terms,
    keyed_haar_kets,
    ket_to_matrix,
    max_abs,
    max_entangled_ket,
    partial_trace,
)

SQ2 = np.sqrt(2.0)


def e21_span_vectors():
    return [ket_from_terms([16], [(i, complex(c)) for i, c in terms])
            for terms in e21_spanning_terms()]


def test_dim_of_is_an_exact_integer_product():
    # an int64 product wraps past 2**63; numpy integer dims give a Python int
    assert dim_of([]) == 1
    assert dim_of([2] * 70) == 2 ** 70
    assert type(dim_of(np.array([3, 4]))) is int and dim_of(np.array([3, 4])) == 12


def test_tensor_basis_case():
    k0 = basis_ket([2], 0)
    assert np.array_equal(tensor(k0, k0), basis_ket([2, 2], 0))


def test_tensor_identity_case():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_kind_mismatch():
    with pytest.raises(ValueError):
        tensor(basis_ket([2], 0), np.eye(2))


def test_entangled_sum_normalized():
    alpha = (basis_ket([2, 2], 0) + basis_ket([2, 2], 3)) / SQ2
    assert abs(np.vdot(alpha, alpha) - 1.0) < 1e-15
    assert max_abs(alpha - max_entangled_ket(2)) < 1e-15


def test_gram_schmidt_disjoint_supports():
    v1 = basis_ket([16], 0) - basis_ket([16], 5)
    v2 = basis_ket([16], 10) - basis_ket([16], 15)
    basis = gram_schmidt([v1, v2])
    assert len(basis) == 2
    assert abs(np.vdot(basis[0], basis[1])) < 1e-12


def test_gram_schmidt_dependent_set():
    v = basis_ket([2], 0)
    assert len(gram_schmidt([v, v.copy()])) == 1


def test_gram_schmidt_empty():
    assert gram_schmidt([]) == []


def test_gram_schmidt_rank_matches_oracle_on_construction_span():
    vs = e21_span_vectors()
    assert gram_rank(vs) == 8          # frozen from the Gram-eigenvalue oracle
    assert len(gram_schmidt(vs)) == 8


def test_projector_from_single_vector():
    p = Subspace.from_span([2], [basis_ket([2], 0)]).projector
    assert max_abs(p - np.diag([1.0, 0.0])) < 1e-15


def test_projector_idempotent_hermitian_trace():
    vs = e21_span_vectors()
    p = Subspace.from_span([16], vs).projector
    assert max_abs(p - p.conj().T) < 1e-12
    assert max_abs(p @ p - p) < 1e-10
    assert abs(np.trace(p).real - 8) < 1e-9


def test_projector_complement_completeness():
    vs = e21_span_vectors()
    p0 = Subspace.from_span([16], vs).projector
    w, v = np.linalg.eigh(p0)
    kernel = [v[:, i] for i in range(16) if w[i] < 0.5]
    p1 = Subspace.from_span([16], kernel).projector
    assert max_abs(p0 + p1 - np.eye(16)) < 1e-10


def test_transpose_fixes_construction_projector():
    p = Subspace.from_span([16], e21_span_vectors()).projector
    assert max_abs(p - p.T) < 1e-12


def test_contract_factors_matches_kronecker_product():
    # factors of sizes 2, 3 and 4; matrices of different shapes take the
    # first two, and the third is left over in front of their row indices
    rng = np.random.default_rng(5)
    x = rng.normal(size=24) + 1j * rng.normal(size=24)
    m0 = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    m1 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    want = (np.kron(np.kron(m0, m1), np.eye(4)) @ x).reshape(5, 2, 4)
    got = contract_factors(x, [m0, m1])
    assert got.shape == (20, 2)
    assert max_abs(got.reshape(4, 5, 2) - want.transpose(2, 0, 1)) < 1e-12


def test_contract_factors_contracts_each_tensor_of_a_stack_on_its_own():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(5, 3, 4)) + 1j * rng.normal(size=(5, 3, 4))
    m0 = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    m1 = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    got = contract_factors(xs, [m0, m1], stack=5).reshape(5, 2, 6)
    for x, g in zip(xs, got):
        assert max_abs(g - m0 @ x @ m1.T) < 1e-12
        # the same digits as a stack of one: no tensor sees its neighbours
        assert np.array_equal(g, contract_factors(x, [m0, m1]).reshape(2, 6))


def test_partial_trace_entangled_marginal():
    alpha = max_entangled_ket(2)
    marg = partial_trace(np.outer(alpha, alpha.conj()), [2, 2], keep=[0])
    assert max_abs(marg - np.eye(2) / 2) < 1e-12


def test_partial_trace_product():
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    sigma = random_density(3, rng)
    joint = np.kron(rho, sigma)
    assert max_abs(partial_trace(joint, [2, 3], keep=[0]) - rho) < 1e-12
    assert max_abs(partial_trace(joint, [2, 3], keep=[1]) - sigma) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    rho = random_density(12, rng)
    red = partial_trace(rho, [2, 3, 2], keep=[1])
    assert abs(np.trace(red).real - 1.0) < 1e-12


def test_partial_trace_bad_keep():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, [2, 2], keep=[2])


def test_permute_factors_ket_roundtrip():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    out = permute_factors(psi, [2, 3, 4], [2, 0, 1])
    back = permute_factors(out, [4, 2, 3], [1, 2, 0])
    assert max_abs(psi - back) == 0


def test_ket_to_matrix_basis():
    assert max_abs(ket_to_matrix(basis_ket([2, 2], 0), 2, 2)
                   - np.array([[1, 0], [0, 0]])) == 0


def test_ket_to_matrix_unnormalized_entangled_is_identity():
    psi = basis_ket([2, 2], 0) + basis_ket([2, 2], 3)
    assert max_abs(ket_to_matrix(psi, 2, 2) - np.eye(2)) == 0


def test_ket_to_matrix_radical_coefficients():
    # |1 0> - sqrt(2)|2 1> + |3 2> on a 4x4 cut
    psi = ket_from_terms([16], [(4, 1.0), (9, -SQ2), (14, 1.0)])
    k = ket_to_matrix(psi, 4, 4)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = -SQ2
    expected[2, 3] = 1.0
    assert max_abs(k - expected) == 0


def test_ket_to_matrix_roundtrip_and_rank_one_on_products():
    for a in range(3):
        for b in range(4):
            psi = tensor(basis_ket([3], a), basis_ket([4], b))
            k = ket_to_matrix(psi, 3, 4)
            assert np.linalg.matrix_rank(k) == 1
            assert max_abs(k.T.reshape(-1) - psi) == 0


def test_ket_to_matrix_length_mismatch():
    with pytest.raises(ValueError):
        ket_to_matrix(np.zeros(5), 2, 2)


def test_entangled_quadratic_form_identity():
    # <Phi2|(R1 on use 1)(R2 on use 2)|Phi2> * D = tr(R1^T R2), with Phi2 the
    # maximally entangled state across two copies of a D-dimensional space.
    rng = np.random.default_rng(4)
    d = 16
    phi = max_entangled_ket(d)
    for _ in range(100):
        r1 = random_hermitian(d, rng)
        r2 = random_hermitian(d, rng)
        lhs = np.vdot(phi, np.kron(r1, r2) @ phi) * d
        rhs = np.trace(r1.T @ r2)
        assert abs(lhs - rhs) < 1e-9


def test_two_use_state_factor_grouping():
    # the two-use codeword stored use-major equals the D-dim maximally
    # entangled state after regrouping sender-major factors
    phi4 = max_entangled_ket(4)
    psi_sender_major = tensor(phi4, phi4)           # (A, A', B, B')
    psi = permute_factors(psi_sender_major, [4, 4, 4, 4], [0, 2, 1, 3])
    assert max_abs(psi - max_entangled_ket(16)) < 1e-12
    rho = np.outer(psi, psi.conj())
    # use cut: maximally mixed marginal
    use_marg = partial_trace(rho, [4, 4, 4, 4], keep=[0, 1])
    assert max_abs(use_marg - np.eye(16) / 16) < 1e-12
    # sender cut: pure maximally entangled marginal
    sender_marg = partial_trace(rho, [4, 4, 4, 4], keep=[0, 2])
    assert max_abs(sender_marg - np.outer(phi4, phi4.conj())) < 1e-12


@pytest.mark.parametrize("dims", [(1,), (2, 2), (3, 4), (4, 4), (2,) * 5, (16,)])
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
def test_keyed_haar_kets_are_haar_ket_on_each_restart_stream(dims, seed):
    for key in ([seed], [seed, 1]):
        kets = keyed_haar_kets(dims, 30, key)
        for r in range(30):
            rng = np.random.default_rng([*key, r])
            for t, d in enumerate(dims):
                assert kets[t][r].tobytes() == haar_ket(d, rng).tobytes()
        # row r is its stream's, not the batch's
        for t, few in enumerate(keyed_haar_kets(dims, 3, key)):
            assert few.tobytes() == kets[t][:3].tobytes()


def assert_rows_are_default_rng_streams(kets, dims, key, rows):
    for r in rows:
        rng = np.random.default_rng([*key, r])
        for t, d in enumerate(dims):
            assert kets[t][r].tobytes() == haar_ket(d, rng).tobytes()


@pytest.mark.parametrize("seed", [2**96 + 5, 2**200 + 3])
def test_keyed_haar_kets_mix_entropy_past_the_hash_pool(seed):
    # 4 and 7 words of seed, plus the restart index: more than the 4-word pool
    for key in ([seed], [seed, 1]):
        kets = keyed_haar_kets((2, 3), 20, key)
        assert_rows_are_default_rng_streams(kets, (2, 3), key, range(20))


def test_keyed_haar_kets_single_restart():
    for key in ([0], [5, 1], [2**64]):
        assert_rows_are_default_rng_streams(keyed_haar_kets((4, 4), 1, key), (4, 4), key, [0])


def test_keyed_haar_kets_up_to_the_largest_restart_count():
    kets = keyed_haar_kets((2,), MAX_RESTARTS, [3])
    assert kets[0].shape == (MAX_RESTARTS, 2)
    assert_rows_are_default_rng_streams(kets, (2,), [3], range(MAX_RESTARTS))


def test_keyed_haar_kets_refuse_a_hash_that_disagrees_with_numpy(monkeypatch):
    fast = linalg._generate_states
    monkeypatch.setattr(linalg, "_generate_states",
                        lambda entropy: fast(entropy) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        keyed_haar_kets([2, 2], 10, [0])


def test_product_search_builds_one_seed_sequence(monkeypatch):
    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linalg, "SeedSequence", Counting)
    max_product_overlap(make_e21().payload.s0, restarts=1000, seed=0)
    assert len(built) == 1      # the self-check's own generator


def test_keyed_haar_kets_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        keyed_haar_kets([2, 2], 4, [-1])
