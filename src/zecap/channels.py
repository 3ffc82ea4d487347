"""Multi-user quantum channels: concrete constructors and channel algebra.

A channel is its sender/receiver factor structure, one stack of one-use
Kraus operators of shape (K, out, in), and a number of parallel uses. k uses
share the one-use stack: they are applied by contracting it into each use's
input factors in turn, so no Kronecker expansion over k uses is ever built.
Each channel kind has one constructor, which keeps the exact data it was
built from: `payload` for flag-output channels, `cq_outputs` for cq ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exactnum import Coeff, exact_vector
from .linalg import (
    assert_density,
    contract_factors,
    dim_of,
    ket_from_terms,
    ket_to_matrix,
    max_abs,
    paired,
    partial_trace,
)
from .subspaces import Subspace

# largest joint sender dimension of a flag-output channel, and largest joint
# sender or receiver dimension of a cq spec. With it at 256, `verify --suite
# all --seed 0` takes 0.16-0.20 s at 43 MB peak on em1:7 and 1.16-1.21 s at
# 53 MB on em1:8 (in process, timed after import, one BLAS thread, 2-CPU Xeon
# VM, five runs), of which `--suite two-use,privacy` takes 23-26 and 95-107 ms
MAX_INPUT_DIM = 64
TRACE_TOL = 1e-9      # largest residual of sum K^dag K - I that counts as trace preserving


def check_input_dim(dims: Iterable[int], field: str = "sender_dims") -> None:
    """Refuse a joint dimension above MAX_INPUT_DIM before anything is built.

    The product is taken factor by factor and stops at the first excess, so
    even an absurd number of factors costs nothing.
    """
    total = 1
    for d in dims:
        total *= int(d)
        if total > MAX_INPUT_DIM:
            raise ValueError(f"{field}: dimensions multiply to more than "
                             f"{MAX_INPUT_DIM}, the largest supported dimension")


@dataclass
class BinaryProjectivePayload:
    """Measured subspaces of a flag-output channel: measure {P0, P1}."""

    s0: Subspace
    s1: Subspace
    u_slots: tuple[int, ...]           # slots where the conjugation identity holds
    exact_s0: list                     # exact column vectors spanning S0, unnormalized


@dataclass
class MultiUserChannel:
    """`uses` parallel uses of a completely positive map, with sender/receiver
    partition metadata.

    `kraus` is the write-protected one-use stack (K, out, in); the dims list
    the factors of every use, use-major. `payload` (a flag-output channel's
    subspaces) and `cq_outputs` (a cq channel's exact outputs, per input a
    list of (weight, ket terms)) describe one use; both are None for every
    other channel, tensor powers included.
    """

    sender_dims: tuple[int, ...]
    receiver_dims: tuple[int, ...]
    kraus: np.ndarray
    uses: int = 1
    name: str = ""
    payload: BinaryProjectivePayload | None = None
    cq_outputs: list[list[tuple[Fraction, list[tuple[int, Coeff]]]]] | None = None

    def __post_init__(self) -> None:
        ops = np.asarray(self.kraus, dtype=complex)
        if ops.flags.writeable:            # a stack is shared between powers, never changed
            ops = ops.copy()
        k = self.uses
        one_use = (dim_of(self.receiver_dims[:len(self.receiver_dims) // k]),
                   dim_of(self.sender_dims[:len(self.sender_dims) // k]))
        if ops.ndim != 3 or ops.shape[1:] != one_use:
            raise ValueError(f"Kraus stack of shape {ops.shape} does not fit "
                             f"{self.uses} use(s) of the channel's dimensions")
        ops.setflags(write=False)
        self.kraus = ops

    @property
    def in_dim(self) -> int:
        return dim_of(self.sender_dims)

    @property
    def out_dim(self) -> int:
        return dim_of(self.receiver_dims)


def to_kraus(channel: MultiUserChannel) -> np.ndarray:
    """The one-use Kraus stack (K, out, in); every use applies it in turn."""
    return channel.kraus


def _unpaired(k: int) -> list[int]:
    """Axis order taking (a1, b1, ..., ak, bk) to (a1..ak, b1..bk)."""
    return [*range(0, 2 * k, 2), *range(1, 2 * k, 2)]


def kraus_images(ops: np.ndarray, uses: int, psi: np.ndarray) -> np.ndarray:
    """The (out^k, K^k) matrix whose columns are (K_a x ... x K_z) psi, one
    column per word of k one-use operators."""
    n, out, d = ops.shape
    x = contract_factors(psi, [ops.transpose(1, 0, 2).reshape(out * n, d)] * uses)
    return x.reshape((out, n) * uses).transpose(_unpaired(uses)).reshape(
        out ** uses, n ** uses)


def kraus_adjoint(ops: np.ndarray, uses: int, w: np.ndarray) -> np.ndarray:
    """Adjoint of `kraus_images`: the sum over words of (K_a x ... x K_z)^dag
    applied to that word's column of w."""
    n, out, d = ops.shape
    x = w.reshape((out,) * uses + (n,) * uses).transpose(paired(uses))
    m = ops.transpose(1, 0, 2).reshape(out * n, d).conj().T
    return contract_factors(x, [m] * uses).reshape(-1)


def apply_channel_to_ket(channel: MultiUserChannel, psi: np.ndarray) -> np.ndarray:
    """Channel output on a pure input |psi><psi| (no density validation)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (channel.in_dim,):
        raise ValueError(
            f"input of length {psi.size} does not match channel input "
            f"dimension {channel.in_dim}")
    w = kraus_images(channel.kraus, channel.uses, psi)
    return w @ w.conj().T


def apply_channel_to_stack(channel: MultiUserChannel, rhos: np.ndarray) -> np.ndarray:
    """Channel outputs (z, out, out) of a stack of input operators (z, in, in),
    not validated.

    Each use's (row, column) factor pair is contracted with the one-use
    superoperator sum_K K (x) conj(K) in turn, for each operator on its own,
    so an output's digits do not depend on the rest of the stack.
    """
    ops, k = channel.kraus, channel.uses
    n, out, d1 = ops.shape
    z = len(rhos)
    sup = np.einsum("kai,kbj->abij", ops, ops.conj()).reshape(out * out, d1 * d1)
    x = rhos.reshape((z,) + (d1,) * (2 * k)).transpose([0, *(1 + a for a in paired(k))])
    x = contract_factors(x, [sup] * k, stack=z)
    return x.reshape((z,) + (out,) * (2 * k)).transpose(
        [0, *(1 + a for a in _unpaired(k))]).reshape(z, channel.out_dim, channel.out_dim)


def apply_channel(channel: MultiUserChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a density operator, validated as one."""
    rho = np.asarray(rho, dtype=complex)
    d = channel.in_dim
    if rho.shape != (d, d):
        raise ValueError(f"input shape {rho.shape} does not match input dimension {d}")
    assert_density(rho)
    return apply_channel_to_stack(channel, rho[None])[0]


def check_trace_preserving(channel: MultiUserChannel) -> float:
    """Max-norm residual of sum K^dag K - I over the one-use stack (k uses
    preserve the trace exactly when one use does)."""
    m = channel.kraus.reshape(-1, channel.kraus.shape[2])
    return max_abs(m.conj().T @ m - np.eye(m.shape[1]))


def tensor_power(channel: MultiUserChannel, k: int) -> MultiUserChannel:
    """k parallel uses; input factors are laid out use-major."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    if k == 1:
        return channel
    return MultiUserChannel(
        sender_dims=tuple(channel.sender_dims) * k,
        receiver_dims=tuple(channel.receiver_dims) * k,
        kraus=channel.kraus,
        uses=channel.uses * k,
        name=f"{channel.name}^x{k}" if channel.name else "",
    )


def extend_trivial_parties(channel: MultiUserChannel,
                           extra_senders: Sequence[int] = (),
                           extra_receivers: Sequence[int] = ()) -> MultiUserChannel:
    """Add senders whose input is ignored and receivers handed a fixed |0>."""
    extra_s = tuple(int(d) for d in extra_senders)
    extra_r = tuple(int(d) for d in extra_receivers)
    if not extra_s and not extra_r:
        return channel
    extra_in, extra_out = dim_of(extra_s), dim_of(extra_r)
    drop = np.zeros((1, extra_in, extra_out, extra_in))
    drop[0, range(extra_in), 0, range(extra_in)] = 1.0       # |0><j| for each j
    ops = np.kron(channel.kraus[:, None], drop)
    return MultiUserChannel(
        sender_dims=tuple(channel.sender_dims) + extra_s,
        receiver_dims=tuple(channel.receiver_dims) + extra_r,
        kraus=ops.reshape(-1, *ops.shape[2:]),
        name=f"{channel.name}+trivial" if channel.name else "",
        payload=channel.payload,
    )


# ---------------------------------------------------------------------------
# concrete constructors
# ---------------------------------------------------------------------------

_M1 = Coeff(Fraction(-1))
_P1 = Coeff(Fraction(1))
_PRT2 = Coeff(b=Fraction(1))      # +sqrt(2)
_MRT2 = Coeff(b=Fraction(-1))     # -sqrt(2)
_HRT2 = Coeff(b=Fraction(1, 2))   # 1/sqrt(2)


def _pair_index(a: int, b: int) -> int:
    """Flat index of |a>|b> when the second factor is 4-dimensional."""
    return a * 4 + b


def e21_spanning_terms() -> list[list[tuple[int, Coeff]]]:
    """Unnormalized spanning vectors of the 4x4 construction, exact coefficients."""
    ix = _pair_index
    return [
        [(ix(0, 0), _P1), (ix(1, 1), _M1)],
        [(ix(2, 2), _P1), (ix(3, 3), _M1)],
        [(ix(2, 0), _P1), (ix(3, 1), _M1)],
        [(ix(0, 2), _P1), (ix(1, 3), _P1)],
        [(ix(3, 0), _P1), (ix(0, 3), _M1)],
        [(ix(1, 0), _P1), (ix(2, 1), _MRT2), (ix(3, 2), _P1)],
        [(ix(0, 1), _P1), (ix(1, 2), _PRT2), (ix(2, 3), _P1)],
        [(ix(1, 0), _P1), (ix(3, 2), _M1), (ix(0, 1), _M1), (ix(2, 3), _P1)],
    ]


def variant34_spanning_terms() -> list[list[tuple[int, Coeff]]]:
    """Unnormalized spanning vectors of the reduced 3x4 construction."""
    ix = _pair_index
    return [
        [(ix(1, 0), _P1), (ix(2, 1), _M1)],
        [(ix(0, 2), _P1), (ix(1, 3), _P1)],
        [(ix(2, 0), _P1), (ix(0, 3), _M1)],
        [(ix(0, 0), _P1), (ix(1, 1), _MRT2), (ix(2, 2), _P1)],
        [(ix(0, 1), _P1), (ix(1, 2), _PRT2), (ix(2, 3), _P1)],
        [(ix(0, 0), _P1), (ix(2, 2), _M1), (ix(0, 1), _M1), (ix(2, 3), _P1)],
    ]


def em1_spanning_terms(m: int) -> list[list[tuple[int, Coeff]]]:
    """Spanning vectors of the m-qubit family: |0..0>+|1..1> and |0,x>-|1,xbar>."""
    if m < 2:
        raise ValueError("the m-qubit family needs m >= 2")
    half = 2 ** (m - 1)
    vectors = [[(0, _P1), (2 ** m - 1, _P1)]]
    for x in range(1, half):
        xbar = (half - 1) ^ x
        vectors.append([(x, _P1), (half + xbar, _M1)])
    return vectors


def _float_ket(total: int, terms: list[tuple[int, Coeff]]) -> np.ndarray:
    return ket_from_terms([total], [(i, complex(c)) for i, c in terms])


def binary_projective_channel(sender_dims: Sequence[int],
                              spanning_terms: list[list[tuple[int, Coeff]]],
                              u_slots: Sequence[int],
                              name: str = "") -> MultiUserChannel:
    """Measure {P0, P1}, with S0 the span of the given exact vectors and S1
    its complement, and emit the outcome as a flag qubit: one Kraus operator
    |l><e| per orthonormal basis vector e of S_l."""
    total = dim_of(sender_dims)
    kets = [_float_ket(total, t) for t in spanning_terms]
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.linalg.norm(np.reshape(kets, (-1, total)), axis=1)))
    if bad.size:
        raise ValueError(f"s0_basis[{bad[0]}]: the vector's norm overflows a float")
    s0 = Subspace.from_span(sender_dims, kets)
    if not spanning_terms or s0.dim < len(spanning_terms):
        raise ValueError(f"s0_basis: {len(spanning_terms)} vectors span {s0.dim} "
                         "dimensions; give one or more linearly independent vectors")
    s1 = s0.complement()
    if s0.dim + s1.dim != total:
        raise ValueError(f"s0_basis: S0 and its complement have {s0.dim} + {s1.dim} "
                         f"dimensions, not {total}")
    payload = BinaryProjectivePayload(
        s0=s0, s1=s1, u_slots=tuple(u_slots),
        exact_s0=[exact_vector(total, t) for t in spanning_terms])
    b0, b1 = payload.s0.basis, payload.s1.basis
    ops = np.zeros((len(b0) + len(b1), 2, total), dtype=complex)
    ops[:len(b0), 0] = b0.conj()
    ops[len(b0):, 1] = b1.conj()
    return MultiUserChannel(tuple(sender_dims), (2,), ops, name=name,
                            payload=payload)


def cq_channel(sender_dims: Sequence[int], receiver_dims: Sequence[int],
               outputs: list[list[tuple[Fraction, list[tuple[int, Coeff]]]]],
               name: str = "") -> MultiUserChannel:
    """Classical-quantum channel: basis input k goes to the mixture of the
    (weight w, exact ket) components in outputs[k], one Kraus operator
    sqrt(w)|ket><k| per component."""
    n_in, n_out = dim_of(sender_dims), dim_of(receiver_dims)
    ops = np.zeros((sum(map(len, outputs)), n_out, n_in), dtype=complex)
    components = ((k, w, t) for k, comps in enumerate(outputs) for w, t in comps)
    for op, (k, weight, terms) in zip(ops, components):
        op[:, k] = np.sqrt(float(weight)) * _float_ket(n_out, terms)
    return MultiUserChannel(tuple(sender_dims), tuple(receiver_dims), ops,
                            name=name, cq_outputs=outputs)


def make_e21() -> MultiUserChannel:
    """Two senders with 4-dimensional inputs, one qubit receiver."""
    return binary_projective_channel([4, 4], e21_spanning_terms(), (0, 1), "e21")


def make_variant34() -> MultiUserChannel:
    """Input reduced to 3x4; the conjugation identity holds on the 4-dim slot only."""
    return binary_projective_channel([3, 4], variant34_spanning_terms(), (1,),
                                     "variant34")


def make_em1(m: int) -> MultiUserChannel:
    """m qubit senders, one qubit receiver; conjugation identity on every slot."""
    check_input_dim(2 for _ in range(m))     # itertools.repeat overflows past a C ssize_t
    return binary_projective_channel([2] * m, em1_spanning_terms(m), tuple(range(m)),
                                     f"em1:{m}")


def make_e12() -> MultiUserChannel:
    """One qubit sender, two qubit receivers: |0> -> the maximally entangled
    pair (|00> + |11>)/sqrt(2); |1> -> the normalized complement state, an even
    mixture of |01>, |10> and (|00> - |11>)/sqrt(2)."""
    third = Fraction(1, 3)
    return cq_channel((2,), (2, 2), [
        [(Fraction(1), [(0, _HRT2), (3, _HRT2)])],
        [(third, [(1, _P1)]), (third, [(2, _P1)]),
         (third, [(0, _HRT2), (3, Coeff(b=Fraction(-1, 2)))])],
    ], "e12")


def make_cj_channel(subspace: Subspace) -> MultiUserChannel:
    """Channel whose Kraus operators reshape an orthonormal basis of a bipartite
    subspace, scaled so the largest eigenvalue of sum K^dag K is one.

    The result is trace-non-increasing in general. sum K^dag K before scaling
    is (Tr_B P)^T for the subspace projector P.
    """
    if len(subspace.dims) != 2:
        raise ValueError("subspace must be bipartite (two party dimensions)")
    if subspace.dim == 0:
        raise ValueError("cannot build a channel from the zero subspace")
    da, db = subspace.dims
    frame = partial_trace(subspace.projector, [da, db], keep=[0]).T
    scale = float(np.linalg.eigvalsh(frame)[-1])
    ops = np.stack([ket_to_matrix(e, da, db) for e in subspace.basis]) / np.sqrt(scale)
    return MultiUserChannel((da,), (db,), ops)
