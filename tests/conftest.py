import numpy as np
import pytest

from zecap.channels import make_e12, make_e21, make_em1, make_variant34


@pytest.fixture(scope="session")
def e21():
    return make_e21()


@pytest.fixture(scope="session")
def e12():
    return make_e12()


@pytest.fixture(scope="session")
def em13():
    return make_em1(3)


@pytest.fixture(scope="session")
def em14():
    return make_em1(4)


@pytest.fixture(scope="session")
def variant34():
    return make_variant34()


def gram_rank(vectors, tol=1e-10):
    """Independent rank oracle: count significant eigenvalues of the Gram matrix."""
    n = len(vectors)
    gram = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.vdot(vectors[i], vectors[j])
    eigs = np.linalg.eigvalsh(gram)
    top = max(float(eigs[-1]), 1.0)
    return int(np.sum(eigs > tol * top))


def basis_ket(dims, index):
    """Computational basis ket number `index` (flat) of the product space `dims`."""
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    v[index] = 1.0
    return v
