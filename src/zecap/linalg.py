"""Dense complex linear algebra over small tensor-product Hilbert spaces.

States (kets) are 1-D complex numpy arrays, operators are 2-D arrays.
Factor ordering is big-endian throughout: for dims = [d0, d1, ...] the
computational basis state |i0 i1 ...> sits at flat index
i0*(d1*d2*...) + i1*(d2*...) + ..., which is exactly numpy's C-order
reshape convention.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

ORTHO_TOL = 1e-10       # rank / orthogonality decisions
DENSITY_TOL = 1e-9      # trace-one and Hermiticity checks for density operators
DENSITY_EIG_TOL = 1e-8  # most negative eigenvalue a density operator may have


def dim_of(dims: Sequence[int]) -> int:
    return math.prod(map(int, dims))


def ket_from_terms(dims: Sequence[int], terms: Iterable[tuple[int, complex]]) -> np.ndarray:
    """Build an unnormalized ket from (flat index, amplitude) terms."""
    v = np.zeros(dim_of(dims), dtype=complex)
    for idx, coeff in terms:
        if not 0 <= idx < v.size:
            raise ValueError(f"index {idx} out of range for dimension {v.size}")
        v[idx] += coeff
    return v


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array; 0 for empty input."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def assert_density(rho: np.ndarray) -> None:
    """Raise if rho is not (numerically) a density operator."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density operator must be square, got shape {rho.shape}")
    if max_abs(rho - dagger(rho)) > DENSITY_TOL:
        raise ValueError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
        raise ValueError(f"density operator has trace {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -DENSITY_EIG_TOL:
        raise ValueError(f"density operator has negative eigenvalue {w[0]}")


def gram_schmidt(vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal basis of the span; vectors with residual norm < ORTHO_TOL are dropped."""
    out: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        for e in out:
            w = w - e * np.vdot(e, w)
        # second pass for numerical stability of nearly dependent inputs
        for e in out:
            w = w - e * np.vdot(e, w)
        n = np.linalg.norm(w)
        if n >= ORTHO_TOL:
            out.append(w / n)
    return out


def contract_factors(x: np.ndarray, mats: Sequence[np.ndarray],
                     stack: int = 1) -> np.ndarray:
    """Contract the leading factor of x with each matrix in turn.

    Each step views x as (m.shape[1], rest), so its leading factor is the
    one m acts on, and returns the (rest, m.shape[0]) product: the factor is
    consumed and m's row index is appended at the back. The result is laid
    out as (factors of x left over, row index of mats[0], ..., row index of
    mats[-1]), as a matrix whose columns are the row index of mats[-1].

    With `stack` > 1, x holds that many tensors along a leading axis, which
    stays in front. Each tensor gets its own matrix product per step, so its
    digits do not depend on which other tensors share the stack (one BLAS
    product over the whole stack sums a row differently by its position).
    """
    for m in mats:
        x = x.reshape(stack, m.shape[1], -1).swapaxes(1, 2) @ m.T
    return x.reshape(-1, x.shape[-1])


def paired(k: int) -> list[int]:
    """Axis order taking (a1..ak, b1..bk) to (a1, b1, ..., ak, bk)."""
    return [i for j in range(k) for i in (j, k + j)]


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all factors not in `keep`; kept factors stay in their original order."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep set {keep} out of range for {n} factors")
    total = dim_of(dims)
    if m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match dims {dims}")
    t = m.reshape(*dims, *dims)
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        ax = k - offset  # axes shift as we trace
        t = np.trace(t, axis1=ax, axis2=ax + (n - offset))
    d_keep = dim_of([dims[k] for k in keep])
    return t.reshape(d_keep, d_keep)


def ket_to_matrix(psi: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Bipartite ket -> operator K mapping the A factor to the B factor.

    K[b, a] is the amplitude of |a>|b> in psi, so K @ x computes the
    contraction of psi with an A-side vector x.
    """
    if psi.size != d_a * d_b:
        raise ValueError(f"ket of length {psi.size} does not split as {d_a}x{d_b}")
    return psi.reshape(d_a, d_b).T.copy()


def max_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_k |kk> on a d x d bipartite space."""
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return psi


def parity_signs(dims: Sequence[int], slot: int) -> np.ndarray:
    """The +-1 diagonal of I x ... x D x ... x I, D = diag(+1, -1, +1, ...)
    on factor `slot` of `dims`: -1 where that factor's digit is odd."""
    digits = np.arange(dim_of(dims)) // dim_of(dims[slot + 1:]) % dims[slot]
    return 1 - 2 * (digits % 2)


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# SeedSequence's pool hash (O'Neill's seed_seq_fe, numpy.random.bit_generator)
# and PCG64's srandom step, as fixed unsigned arithmetic
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; the multiplier runs on from
    call to call, as the C loop's hash_const does."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _generate_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each row of a
    (count, L) uint32 entropy array, as one (count, 4) uint64 array."""
    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ out >> np.uint32(16)

    count, length = entropy.shape
    hashmix = _hasher(_INIT_A, _MULT_A)
    # missing pool words hash as 0
    pool = [hashmix(entropy[:, i] if i < length else np.zeros(count, np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):      # words past the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    # eight words cycled off the pool, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    words = np.stack([out(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def keyed_haar_kets(dims: Sequence[int], count: int,
                    key: Sequence[int]) -> list[np.ndarray]:
    """Haar-random kets for `count` >= 1 restarts, one (count, d) array per
    party: row r is bit for bit haar_ket party by party on default_rng([*key, r]).

    The streams are seeded by one vectorized SeedSequence hash over all rows
    (`_generate_states`), set on one PCG64 in turn, so the bits are unchanged.
    Each call also draws its last row through numpy's own
    Generator(PCG64(SeedSequence(...))) and raises RuntimeError if the two
    rows differ, so a NumPy that seeds differently fails loudly.
    """
    words = []      # the little-endian uint32 words SeedSequence makes of each int
    for k in map(operator.index, key):
        if k < 0:
            raise ValueError(f"seed must be a non-negative integer, got {k}")
        words += [(k >> s) & _MASK32 for s in range(0, max(k.bit_length(), 1), 32)]
    entropy = np.empty((count, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(count)
    seeds = _generate_states(entropy)   # (initstate high, low, initseq high, low)
    # one draw per stream holds each party's real then imaginary parts
    z = np.empty((count, 2 * sum(dims)))
    # the one generator numpy seeds itself: it draws the last row for the check
    bitgen = PCG64(SeedSequence(entropy[-1]))
    gen = Generator(bitgen)
    check = gen.standard_normal(z.shape[1])
    # one state dict, refilled per row; setting it resets the buffered uint32
    full = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    stream, draw = full["state"], gen.standard_normal
    for (s_hi, s_lo, q_hi, q_lo), z_r in zip(seeds.tolist(), z):
        # PCG64's srandom: inc = initseq << 1 | 1, then step, add initstate, step
        stream["inc"] = inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        stream["state"] = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128
        bitgen.state = full
        draw(out=z_r)
    if z[-1].tobytes() != check.tobytes():
        raise RuntimeError("the vectorized SeedSequence hash disagrees with "
                           "numpy's SeedSequence; restart streams would change")
    kets, at = [], 0
    for d in dims:
        v = z[:, at:at + d] + 1j * z[:, at + d:at + 2 * d]
        at += 2 * d
        # dot products over the strided .real/.imag views, as np.linalg.norm takes them
        norm2 = v.real[:, None] @ v.real[..., None] + v.imag[:, None] @ v.imag[..., None]
        v /= np.sqrt(norm2[:, 0])
        kets.append(v)
    return kets

