import json

import numpy as np
import pytest

from zecap.channels import make_e12, make_e21, make_em1, make_variant34
from zecap.linalg import dim_of
from zecap.specio import channel_from_spec, describe_channel, make_builtin


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


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def trace_distance(rho, sigma):
    w = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(w)))


def tensor(*factors):
    """Kronecker product of kets (1-D) or operators (2-D), big-endian order."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    nd = factors[0].ndim
    if any(f.ndim != nd for f in factors):
        raise ValueError("cannot mix kets and operators in a tensor product")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def permute_factors(a, dims, perm):
    """Reorder tensor factors so new factor k is old factor perm[k]."""
    dims = list(dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    new_dims = [dims[p] for p in perm]
    if a.ndim == 1:
        return a.reshape(dims).transpose(perm).reshape(dim_of(new_dims))
    total = dim_of(dims)
    if a.shape != (total, total):
        raise ValueError(f"operator shape {a.shape} does not match dims {dims}")
    t = a.reshape(*dims, *dims)
    axes = list(perm) + [n + p for p in perm]
    return t.transpose(axes).reshape(total, total)


def e21_with_01_spec():
    """e21's spec with |01> appended to s0_basis: S0 has 9 of 16 dimensions,
    so S1 = D S0 fails for every slot."""
    spec = describe_channel(make_builtin("e21"))
    spec["s0_basis"].append([{"index": 1, "coeff": {"re": {"r": [1, 1]}}}])
    spec["subspace_dims"] = [9, 7]
    return spec


def e21_without_last_spec():
    """e21's spec without its last s0_basis vector: D S0 still lies in S1 on
    either slot, but S0 has 7 of 16 dimensions, so S1 = D S0 fails."""
    spec = describe_channel(make_builtin("e21"))
    spec["s0_basis"].pop()
    spec["subspace_dims"] = [7, 9]
    return spec


def variant34_slot_a_spec():
    """variant34's spec with u_slots [0]: its S1 = D S0 holds on slot B only."""
    return {**describe_channel(make_builtin("variant34")), "u_slots": [0]}


def locally_phased_e21_spec():
    """e21's spec with a phase i on every s0_basis term whose A digit is 1.

    That phase is a diagonal unitary on A, which commutes with the parity
    phase D on either slot, so S1 = D S0 still holds."""
    spec = describe_channel(make_builtin("e21"))
    for vec in spec["s0_basis"]:
        for term in vec:
            if term["index"] // 4 == 1:
                re, im = term["coeff"]["re"], term["coeff"]["im"]
                term["coeff"] = {"re": {k: [-v[0], v[1]] for k, v in im.items()},
                                 "im": re}
    return spec


# builtins whose S1 = D S0 holds on one of their u_slots; product searches on
# them stay short (em1:6 is left out of searching tests for that reason)
CONJUGATE_BUILTINS = ("e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5")

# specs that vary e21 and variant34, by test id
SPEC_CASES = {
    "e21-phased": locally_phased_e21_spec,
    "e21+01": e21_with_01_spec,
    "e21-last": e21_without_last_spec,
    "variant34@A": variant34_slot_a_spec,
}


def case_channel(case):
    """The channel of a builtin name or of a SPEC_CASES id."""
    return channel_from_spec(SPEC_CASES[case]()) if case in SPEC_CASES else make_builtin(case)


def case_source(case, tmp_path):
    """`verify` arguments naming a builtin, or a spec file written to tmp_path."""
    if case not in SPEC_CASES:
        return ["--builtin", case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_CASES[case]()))
    return ["--spec", str(path)]
