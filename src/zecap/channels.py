"""Multi-user quantum channels: concrete constructors and channel algebra.

A channel carries its sender/receiver factor structure and one of several
kind-specific payloads. Payloads are kept structural (projector pairs,
classical-quantum output tables, Kraus lists, tensor powers, trivial-party
extensions) rather than eagerly expanded, with a uniform Kraus conversion
for generic processing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exactnum import Coeff, exact_vector
from .linalg import (
    assert_density,
    basis_ket,
    dagger,
    dim_of,
    eigh_descending,
    ket_from_terms,
    ket_to_matrix,
    max_abs,
    max_entangled_ket,
    parity_phase,
    partial_trace,
)
from .subspaces import Subspace

TP_TOL = 1e-9
# largest joint sender dimension of a binary projective channel: a full
# `verify --suite all` takes under a minute on em1:6 (64), while on em1:7
# (128) the two-use suite asks for a 4 GiB density matrix and em1:40 would
# build 2^39 vectors of length 2^40
MAX_INPUT_DIM = 64


def check_input_dim(sender_dims: Iterable[int]) -> None:
    """Refuse a joint sender dimension above MAX_INPUT_DIM before anything is built.

    The product is taken factor by factor and stops at the first excess, so
    even an absurd number of senders costs nothing.
    """
    total = 1
    for d in sender_dims:
        total *= int(d)
        if total > MAX_INPUT_DIM:
            raise ValueError(f"sender dimensions multiply to more than "
                             f"{MAX_INPUT_DIM}, the largest supported input dimension")


@dataclass
class BinaryProjectivePayload:
    """Measure {P0, P1} and emit a classical flag qubit."""

    s0: Subspace
    s1: Subspace
    u: np.ndarray                      # Hermitian unitary used by two-use codes
    u_slots: tuple[int, ...]           # slots where the conjugation identity holds
    exact_s0: list | None = None       # exact column vectors spanning S0, unnormalized

    @property
    def p0(self) -> np.ndarray:
        return self.s0.projector

    @property
    def p1(self) -> np.ndarray:
        return self.s1.projector


@dataclass
class CQPayload:
    """Classical-quantum: basis bra-kets on the input, fixed output states."""

    outputs: list[np.ndarray]          # rho_k for input |k><k|


@dataclass
class KrausPayload:
    ops: list[np.ndarray]
    flag: str = "trace-preserving"     # | trace-non-increasing | unnormalized-CP
    source: Subspace | None = None     # set for channels built from a subspace
    scale: float = 1.0


@dataclass
class PowerPayload:
    base: "MultiUserChannel"
    uses: int


@dataclass
class ExtensionPayload:
    base: "MultiUserChannel"
    extra_senders: tuple[int, ...]
    extra_receivers: tuple[int, ...]


@dataclass
class MultiUserChannel:
    """A completely positive map with sender/receiver partition metadata."""

    sender_dims: tuple[int, ...]
    receiver_dims: tuple[int, ...]
    kind: str                          # cq | binary-projective | kraus | subspace-cj | power | extended
    payload: object
    name: str = ""
    _kraus_cache: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def in_dim(self) -> int:
        return dim_of(self.sender_dims)

    @property
    def out_dim(self) -> int:
        return dim_of(self.receiver_dims)

    @property
    def trace_preserving_flag(self) -> bool:
        if self.kind in ("kraus", "subspace-cj"):
            return self.payload.flag == "trace-preserving"
        if self.kind == "power":
            return self.payload.base.trace_preserving_flag
        if self.kind == "extended":
            return self.payload.base.trace_preserving_flag
        return True

    def sender_slot_groups(self) -> list[tuple[int, ...]]:
        """Input factor indices owned by each sender (one group per party)."""
        if self.kind == "power":
            base = self.payload.base
            m = len(base.sender_dims)
            k = self.payload.uses
            groups = base.sender_slot_groups()
            return [tuple(use * m + s for use in range(k) for s in g)
                    for g in groups]
        return [(i,) for i in range(len(self.sender_dims))]


def to_kraus(channel: MultiUserChannel) -> list[np.ndarray]:
    """Kraus operators realizing the channel; cached per channel object."""
    if channel._kraus_cache is not None:
        return channel._kraus_cache
    kind = channel.kind
    if kind in ("kraus", "subspace-cj"):
        ops = list(channel.payload.ops)
    elif kind == "binary-projective":
        pl = channel.payload
        out0 = basis_ket([2], 0)
        out1 = basis_ket([2], 1)
        ops = [np.outer(out0, e.conj()) for e in pl.s0.basis]
        ops += [np.outer(out1, f.conj()) for f in pl.s1.basis]
    elif kind == "cq":
        ops = []
        for k, rho in enumerate(channel.payload.outputs):
            w, v = eigh_descending(rho)
            bra = basis_ket([channel.in_dim], k).conj()
            for i in range(len(w)):
                if w[i] > 1e-12:
                    ops.append(np.sqrt(w[i]) * np.outer(v[:, i], bra))
    elif kind == "power":
        base_ops = to_kraus(channel.payload.base)
        ops = []
        for combo in itertools.product(base_ops, repeat=channel.payload.uses):
            k = combo[0]
            for factor in combo[1:]:
                k = np.kron(k, factor)
            ops.append(k)
    elif kind == "extended":
        pl = channel.payload
        base_ops = to_kraus(pl.base)
        extra_in = dim_of(pl.extra_senders)
        extra_out = dim_of(pl.extra_receivers)
        ground = basis_ket([extra_out], 0)
        ops = []
        for k in base_ops:
            for j in range(extra_in):
                bra = basis_ket([extra_in], j).conj()
                ops.append(np.kron(k, np.outer(ground, bra)))
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    channel._kraus_cache = ops
    return ops


def apply_channel_to_ket(channel: MultiUserChannel, psi: np.ndarray) -> np.ndarray:
    """Channel output on a pure input |psi><psi| (no density validation)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (channel.in_dim,):
        raise ValueError(
            f"input of length {psi.size} does not match channel input "
            f"dimension {channel.in_dim}")
    if channel.kind == "binary-projective":
        pl = channel.payload
        p0 = float(np.real(np.vdot(psi, pl.p0 @ psi)))
        p1 = float(np.real(np.vdot(psi, pl.p1 @ psi)))
        return np.diag([p0, p1]).astype(complex)
    if channel.kind == "power" and channel.payload.base.kind == "binary-projective":
        return _apply_projective_power_ket(channel, psi)
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=complex)
    for k in to_kraus(channel):
        w = k @ psi
        out += np.outer(w, w.conj())
    return out


def _apply_projective_power_ket(channel: MultiUserChannel, psi: np.ndarray) -> np.ndarray:
    """k-use product of binary projective measurements: enumerate outcomes."""
    base = channel.payload.base
    k = channel.payload.uses
    d = base.in_dim
    projs = (base.payload.p0, base.payload.p1)
    out = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for outcome in itertools.product((0, 1), repeat=k):
        vec = psi.reshape((d,) * k)
        for use, ell in enumerate(outcome):
            vec = np.tensordot(projs[ell], vec, axes=([1], [use]))
            vec = np.moveaxis(vec, 0, use)
        prob = float(np.real(np.vdot(psi, vec.reshape(-1))))
        flat = int("".join(str(b) for b in outcome), 2)
        out[flat, flat] += prob
    return out


def apply_channel(channel: MultiUserChannel, rho: np.ndarray,
                  validate: bool = True) -> np.ndarray:
    """Apply the channel to a density operator.

    Inputs are validated as density operators unless the channel is flagged
    unnormalized-CP or validate=False.
    """
    rho = np.asarray(rho, dtype=complex)
    d = channel.in_dim
    if rho.shape != (d, d):
        raise ValueError(f"input shape {rho.shape} does not match input dimension {d}")
    if validate and channel.trace_preserving_flag:
        assert_density(rho)
    kind = channel.kind
    if kind == "cq":
        out = np.zeros((channel.out_dim, channel.out_dim), dtype=complex)
        for k, rho_k in enumerate(channel.payload.outputs):
            out += rho[k, k].real * rho_k
        return out
    if kind == "binary-projective":
        pl = channel.payload
        p0 = float(np.real(np.trace(pl.p0 @ rho)))
        p1 = float(np.real(np.trace(pl.p1 @ rho)))
        return np.diag([p0, p1]).astype(complex)
    if kind == "extended":
        pl = channel.payload
        base = pl.base
        n_base = len(base.sender_dims)
        dims = list(base.sender_dims) + list(pl.extra_senders)
        reduced = partial_trace(rho, dims, keep=range(n_base))
        base_out = apply_channel(base, reduced, validate=False)
        ground = basis_ket([dim_of(pl.extra_receivers)], 0)
        return np.kron(base_out, np.outer(ground, ground.conj()))
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=complex)
    for k in to_kraus(channel):
        out += k @ rho @ dagger(k)
    return out


def check_trace_preserving(channel: MultiUserChannel) -> float:
    """Max-norm residual of the trace-preservation condition for the kind."""
    if channel.kind == "binary-projective":
        pl = channel.payload
        return max_abs(pl.p0 + pl.p1 - np.eye(channel.in_dim))
    if channel.kind == "cq":
        return max(abs(float(np.trace(r).real) - 1.0) for r in channel.payload.outputs)
    ops = to_kraus(channel)
    acc = np.zeros((channel.in_dim, channel.in_dim), dtype=complex)
    for k in ops:
        acc += dagger(k) @ k
    return max_abs(acc - np.eye(channel.in_dim))


def tensor_power(channel: MultiUserChannel, k: int) -> MultiUserChannel:
    """k parallel uses; input factors are laid out use-major."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    if k == 1:
        return channel
    return MultiUserChannel(
        sender_dims=tuple(channel.sender_dims) * k,
        receiver_dims=tuple(channel.receiver_dims) * k,
        kind="power",
        payload=PowerPayload(channel, k),
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
    return MultiUserChannel(
        sender_dims=tuple(channel.sender_dims) + extra_s,
        receiver_dims=tuple(channel.receiver_dims) + extra_r,
        kind="extended",
        payload=ExtensionPayload(channel, extra_s, extra_r),
        name=f"{channel.name}+trivial" if channel.name else "",
    )


def choi_matrix(channel: MultiUserChannel) -> np.ndarray:
    """(channel x id) on the unnormalized maximally entangled operator.

    Index order is (output factor, input factor).
    """
    d = channel.in_dim
    ops = to_kraus(channel)
    vecs = np.stack([np.kron(k, np.eye(d)) @
                     (max_entangled_ket(d) * np.sqrt(d)) for k in ops])
    return vecs.T @ vecs.conj()


# ---------------------------------------------------------------------------
# concrete constructors
# ---------------------------------------------------------------------------

_M1 = Coeff(Fraction(-1))
_P1 = Coeff(Fraction(1))
_PRT2 = Coeff(b=Fraction(1))      # +sqrt(2)
_MRT2 = Coeff(b=Fraction(-1))     # -sqrt(2)


def _pair_index(a: int, b: int, db: int = 4) -> int:
    return a * db + b


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


def _terms_to_float(terms: list[tuple[int, Coeff]], total: int) -> np.ndarray:
    return ket_from_terms([total], [(i, complex(c)) for i, c in terms])


def _binary_projective(sender_dims: Sequence[int],
                       spanning_terms: list[list[tuple[int, Coeff]]],
                       u_dim: int, u_slots: Sequence[int], name: str) -> MultiUserChannel:
    total = dim_of(sender_dims)
    span = [_terms_to_float(t, total) for t in spanning_terms]
    s0 = Subspace.from_span(sender_dims, span)
    s1 = s0.complement()
    exact_span = [exact_vector(total, t) for t in spanning_terms]
    payload = BinaryProjectivePayload(
        s0=s0, s1=s1, u=parity_phase(u_dim), u_slots=tuple(u_slots),
        exact_s0=exact_span)
    return MultiUserChannel(tuple(sender_dims), (2,), "binary-projective",
                            payload, name=name)


def make_e21() -> MultiUserChannel:
    """Two senders with 4-dimensional inputs, one qubit receiver."""
    return _binary_projective([4, 4], e21_spanning_terms(), 4, (0, 1), "e21")


def make_variant34() -> MultiUserChannel:
    """Input reduced to 3x4; the conjugation identity holds on the 4-dim slot only."""
    return _binary_projective([3, 4], variant34_spanning_terms(), 4, (1,), "variant34")


def make_em1(m: int) -> MultiUserChannel:
    """m qubit senders, one qubit receiver; conjugation identity on every slot."""
    if m < 2:
        raise ValueError("the m-qubit family needs m >= 2")
    check_input_dim(itertools.repeat(2, m))
    return _binary_projective([2] * m, em1_spanning_terms(m), 2,
                              tuple(range(m)), f"em1:{m}")


def e12_output_states() -> tuple[np.ndarray, np.ndarray]:
    alpha = max_entangled_ket(2)
    rho0 = np.outer(alpha, alpha.conj())
    rho1 = (np.eye(4) - rho0) / 3.0
    return rho0, rho1


def make_e12() -> MultiUserChannel:
    """One qubit sender, two qubit receivers: |0> -> maximally entangled pair,
    |1> -> the normalized complement state."""
    rho0, rho1 = e12_output_states()
    return MultiUserChannel((2,), (2, 2), "cq", CQPayload([rho0, rho1]), name="e12")


def make_cj_channel(subspace: Subspace, completion: str = "none") -> MultiUserChannel:
    """Channel whose Kraus operators reshape an orthonormal basis of a bipartite
    subspace, scaled so the largest eigenvalue of sum K^dag K is one.

    completion="none" leaves a trace-non-increasing CP map (flagged
    unnormalized-CP); completion="flag" appends operators routing the defect
    into one extra output dimension, yielding a trace-preserving channel.
    """
    if len(subspace.dims) != 2:
        raise ValueError("subspace must be bipartite (two party dimensions)")
    if subspace.dim == 0:
        raise ValueError("cannot build a channel from the zero subspace")
    da, db = subspace.dims
    ops = [ket_to_matrix(e, da, db) for e in subspace.basis]
    frame = np.zeros((da, da), dtype=complex)
    for k in ops:
        frame += dagger(k) @ k
    scale = float(np.linalg.eigvalsh(frame)[-1].real)
    ops = [k / np.sqrt(scale) for k in ops]
    if completion == "none":
        payload = KrausPayload(ops, flag="unnormalized-CP", source=subspace,
                               scale=scale)
        return MultiUserChannel((da,), (db,), "subspace-cj", payload)
    if completion != "flag":
        raise ValueError(f"unknown completion {completion!r}")
    defect = np.eye(da) - frame / scale
    w, v = eigh_descending(defect)
    flag_ket = basis_ket([db + 1], db)
    lifted = [np.vstack([k, np.zeros((1, da))]) for k in ops]
    for i in range(len(w)):
        if w[i] > 1e-12:
            lifted.append(np.sqrt(w[i]) * np.outer(flag_ket, v[:, i].conj()))
    payload = KrausPayload(lifted, flag="trace-preserving", source=subspace,
                           scale=scale)
    return MultiUserChannel((da,), (db + 1,), "subspace-cj", payload)
