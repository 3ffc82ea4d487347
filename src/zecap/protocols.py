"""Zero-error coding protocols: locally preparable codes, output orthogonality,
one-shot no-transmission certificates, the teleportation decoder and privacy.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from math import log2
from typing import Sequence

import numpy as np

from .channels import MultiUserChannel, apply_channel_to_ket
from .linalg import (
    dim_of,
    max_abs,
    max_entangled_ket,
    parity_signs,
    partial_trace,
)
from .subspaces import (CECertificate, certify_completely_entangled, conjugated_certificate,
                        parity_conjugate_slot)

ORTHO_OVERLAP_TOL = 1e-9    # output overlaps and differences at most this count as zero
SCHMIDT_TOL = 1e-9          # s0 * s1 at most this across a cut counts as a product
RESOURCE_TOL = 1e-6         # largest deviation of the teleportation resource from |alpha>
DECODE_TOL = 1e-10          # largest miss of a decoded probability or teleported state


@dataclass
class CodeBook:
    """Locally preparable inputs for k uses of a channel."""

    dims: tuple[int, ...]                  # input factor dims, use-major
    inputs: list[np.ndarray]               # pure-state kets
    sender_partition: tuple[tuple[int, ...], ...]


@dataclass
class DistinguishabilityCertificate:
    overlaps: np.ndarray                   # tr(out_i out_j), normalized outputs
    orthogonal: bool
    decoder: str                           # single-receiver-projective | teleportation-LOCC | none
    decoded: tuple[dict[int, float], ...]  # teleportation outcome probabilities, if shaped for it


@dataclass
class AlphaLocalCertificate:
    """Certifies that one channel use cannot transmit even one bit."""

    alpha_local_one: bool
    s0_certificate: CECertificate | None
    s1_certificate: CECertificate | None
    s1_slot: int | None = None     # the slot u of S1 = D_u S0 when S1's is S0's carried over
    notes: str = ""


def slot_index(channel: MultiUserChannel, slot: int | str) -> int:
    """Resolve a two-use slot given as index or label like 'A', "B'": one
    sender letter, then one prime per use after the first."""
    m = len(channel.sender_dims)
    if isinstance(slot, (int, np.integer)):
        idx = int(slot)
    else:
        label = re.fullmatch(r"([A-Za-z])('*)", slot.strip()) if isinstance(slot, str) else None
        if label is None:
            raise ValueError(f"slot {slot!r} is not a sender letter followed by "
                             "primes, like A or B'")
        letter = ord(label[1].upper()) - ord("A")
        if letter >= m:
            raise ValueError(f"slot {slot!r} names no sender of {m}")
        idx = len(label[2]) * m + letter
    if not 0 <= idx < 2 * m:
        raise ValueError(f"slot {slot!r} out of range for {m} senders, 2 uses")
    return idx


def build_two_use_code(channel: MultiUserChannel, slot: int | str) -> CodeBook:
    """Two-codeword book: every sender shares a maximally entangled pair
    between its two uses. Input factors are laid out use-major (use-1
    factors, then use-2 factors), so the pairs' product is the maximally
    entangled ket Phi between the two uses' joint inputs; codeword 1 is Phi
    with the message slot's parity flipped (`linalg.parity_signs`).
    """
    if channel.payload is None:
        raise ValueError("two-use codes are built for one use of a flag-output channel")
    m = len(channel.sender_dims)
    idx = slot_index(channel, slot)
    dims = tuple(channel.sender_dims) * 2
    psi0 = max_entangled_ket(channel.in_dim)
    psi1 = psi0 * parity_signs(dims, idx)
    partition = tuple((s, m + s) for s in range(m))
    return CodeBook(dims=dims, inputs=[psi0, psi1], sender_partition=partition)


def flag_distribution(channel: MultiUserChannel, slot: int | str | None = None) -> np.ndarray:
    """Flag distribution p[l, l'] of two uses on Phi (slot None) or on a slot's
    codeword 1; the two-use output is exactly diag(p), as each Kraus word fills one
    flag pair. With B the S0 and S1 bases stacked, s the slot's parity signs (none
    for a sender `extend_trivial_parties` added) and T one use's input dimension,
    p is the (l, l') block sums of |B s B^T|^2 / T, the words' squared amplitudes."""
    pl = channel.payload
    if pl is None:
        raise ValueError("flag distributions are made for one use of a flag-output channel")
    u = None if slot is None else slot_index(channel, slot) % len(channel.sender_dims)
    signs = 1 if u is None or u >= len(pl.s0.dims) else parity_signs(pl.s0.dims, u)
    b = np.concatenate([pl.s0.basis, pl.s1.basis])
    flags = np.repeat(np.eye(2), [pl.s0.dim, pl.s1.dim], axis=0)     # row a: the flag of b[a]
    return flags.T @ (np.abs((b * signs) @ b.T) ** 2) @ flags / pl.s0.total_dim


def basis_codebook(channel: MultiUserChannel, uses: int,
                   codewords: Sequence[Sequence[int]]) -> CodeBook:
    """Computational-basis codewords for k uses (classical preparation).

    Each codeword is one basis index per use; basis states are product across
    every cut, so the book is locally preparable for any sender partition.
    """
    m = len(channel.sender_dims)
    dims = tuple(channel.sender_dims) * uses
    inputs = []
    for word in codewords:
        if len(word) != uses:
            raise ValueError(f"codeword {word} does not give one index per use")
        psi = None
        for idx in word:
            use_ket = np.zeros(channel.in_dim, dtype=complex)
            use_ket[int(idx)] = 1.0
            psi = use_ket if psi is None else np.kron(psi, use_ket)
        inputs.append(psi)
    partition = tuple(tuple(use * m + s for use in range(uses)) for s in range(m))
    return CodeBook(dims, inputs, partition)


def check_local_preparability(state: np.ndarray, dims: Sequence[int],
                              partition: Sequence[Sequence[int]]) -> bool:
    """True iff the ket is a product across the given partition.

    A ket is a product iff every group|rest cut has Schmidt rank 1. With
    Schmidt coefficients s0 >= s1 >= ... across a cut, s0 * s1 <= SCHMIDT_TOL
    is the numerical test; the tolerance is absolute, so the ket is taken as
    normalized.
    """
    dims = list(dims)
    groups = [tuple(int(i) for i in g) for g in partition]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(len(dims))):
        raise ValueError(f"partition {groups} does not cover factors 0..{len(dims) - 1}")
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"expected a ket, got an array of shape {state.shape}")
    psi = state.reshape(dims)
    for g in groups:
        rest = [i for i in range(len(dims)) if i not in g]
        cut = np.transpose(psi, list(g) + rest).reshape(dim_of([dims[i] for i in g]), -1)
        s = np.linalg.svd(cut, compute_uv=False)
        if s.size > 1 and s[0] * s[1] > SCHMIDT_TOL:
            return False
    return True


def verify_orthogonal_outputs(channel: MultiUserChannel,
                              code: CodeBook) -> DistinguishabilityCertificate:
    """Pairwise output overlap matrix tr(E(rho_i) E(rho_j)) and the verdict.

    Distinguishability under local measurements is certified constructively
    only: a single receiver distinguishes orthogonal outputs by a projective
    measurement, and for two codewords of the qubit-pair-output channel used
    twice the teleportation decoder is run once on each output, orthogonal or
    not (`decoded`). No general local-protocol search is attempted.
    `apply_channel_to_ket` refuses a codeword not of the channel's input dimension.
    """
    outputs = [apply_channel_to_ket(channel, psi) for psi in code.inputs]
    n = len(outputs)
    overlaps = np.array([[np.real(np.trace(a @ b)) for b in outputs] for a in outputs],
                        dtype=float).reshape(n, n)
    off = max((abs(overlaps[i, j]) for i in range(n) for j in range(n) if i != j),
              default=0.0)
    orthogonal = off <= ORTHO_OVERLAP_TOL
    shaped = (channel.uses == 2 and len(channel.sender_dims) == 2
              and channel.receiver_dims == (2, 2) * 2 and n == 2)
    decoded = tuple(teleportation_decode(out) for out in outputs) if shaped else ()
    decoder = "none"
    if orthogonal:
        if len(channel.receiver_dims) == channel.uses:       # one receiver
            decoder = "single-receiver-projective"
        elif decoded and _decodes_distinctly(decoded):
            decoder = "teleportation-LOCC"
    return DistinguishabilityCertificate(overlaps, orthogonal, decoder, decoded)


def _decodes_distinctly(decoded: Sequence[dict[int, float]]) -> bool:
    """True when the teleportation decoder maps the codewords to distinct
    deterministic outcomes (codeword labels themselves do not matter)."""
    seen = set()
    for probs in decoded:
        outcome, best = max(probs.items(), key=lambda kv: kv[1])
        if abs(best - 1.0) > DECODE_TOL or outcome in seen:
            return False
        seen.add(outcome)
    return True


def certify_alpha_local_one(channel: MultiUserChannel, restarts: int | None = None,
                            seed: int = 0) -> AlphaLocalCertificate:
    """One-shot no-transmission certificate for flag-output channels.

    The channel output is diagonal with weights (tr P0 rho, tr P1 rho), so two
    perfectly distinguishable outputs must be the two flag states, which
    requires one input supported inside each measured subspace. Locally
    preparable inputs may be taken to be product pure states, so certifying
    both subspaces completely entangled rules out any such pair. S0 is
    searched at `seed`, as `certify_completely_entangled` does given the same
    arguments and the label "<channel name>/S0". When the exact S0 span proves
    S1 = D_u S0 for a slot u in `u_slots`, S1's certificate is S0's carried
    over by D_u (`conjugated_certificate`); otherwise S1 is searched the same
    way, labelled "/S1".

    Trivial-party extensions inherit the base channel's certificate: added
    senders are ignored and added receivers get a fixed state, so output
    distinguishability is unchanged.
    """
    pl = channel.payload
    if pl is None:
        raise ValueError("the one-shot certificate applies to one use of a "
                         "binary projective channel")
    slot = parity_conjugate_slot(pl.s0.dims, pl.exact_s0, pl.u_slots)
    c0 = certify_completely_entangled(pl.s0, restarts=restarts, seed=seed,
                                      label=f"{channel.name}/S0")
    if slot is not None:
        c1 = conjugated_certificate(c0, pl.s1, slot, f"{channel.name}/S1")
    else:
        c1 = certify_completely_entangled(pl.s1, restarts=restarts, seed=seed,
                                          label=f"{channel.name}/S1")
    ok = c0.certified and c1.certified
    notes = ("orthogonal flag outputs require product inputs inside each "
             "measured subspace; both subspaces are certified free of product states;"
             if ok else
             "certification failed: " +
             "; ".join(f"{c.subspace_label}: {c.verdict}" for c in (c0, c1) if not c.certified))
    if slot is not None:
        notes += f" S1 = D S0 exactly, D the parity phase on slot {slot};"
    if len(channel.sender_dims) > len(pl.s0.dims):
        notes += " inherited through a trivial-party extension;"
    return AlphaLocalCertificate(ok, c0, c1, slot, notes)


# ---------------------------------------------------------------------------
# teleportation decoding for the one-sender/two-receiver channel
# ---------------------------------------------------------------------------

def bell_basis() -> list[np.ndarray]:
    """(|00>+|11>)/rt2, (|00>-|11>)/rt2, (|01>+|10>)/rt2, (|01>-|10>)/rt2."""
    r = 1 / np.sqrt(2.0)
    return [
        np.array([r, 0, 0, r], dtype=complex),
        np.array([r, 0, 0, -r], dtype=complex),
        np.array([0, r, r, 0], dtype=complex),
        np.array([0, r, -r, 0], dtype=complex),
    ]


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CORRECTIONS = [np.eye(2, dtype=complex), _Z, _X, _X @ _Z]


def teleport_qubit(rho_in: np.ndarray) -> np.ndarray:
    """Teleport one qubit through a perfect maximally entangled pair.

    Density-operator simulation of the full protocol (Bell measurement on the
    input and the sender half, conditional Pauli correction on the receiver
    half); returns the receiver's average post-correction state.
    """
    alpha = max_entangled_ket(2)
    rho = np.kron(rho_in, np.outer(alpha, alpha.conj()))
    dims = [2, 2, 2]
    out = np.zeros((2, 2), dtype=complex)
    for mu, bell in enumerate(bell_basis()):
        proj = np.kron(np.outer(bell, bell.conj()), np.eye(2))
        post = proj @ rho @ proj
        bob = partial_trace(post, dims, keep=[2])
        out += _CORRECTIONS[mu] @ bob @ _CORRECTIONS[mu].conj().T
    return out


def teleportation_decode(rho: np.ndarray) -> dict[int, float]:
    """LOCC decoder for two uses of the one-sender/two-receiver channel.

    Input: 4-qubit density operator on (Alice use-1, Bob use-1, Alice use-2,
    Bob use-2), where the use-1 pair is expected to be the shared maximally
    entangled resource. Alice Bell-measures her two qubits and announces the
    outcome; Bob corrects his use-1 qubit, then measures the two qubits he
    holds with {maximally-entangled projector, complement}. Outcome 0 means
    the first output state was detected.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise ValueError(f"expected a 4-qubit density operator, got shape {rho.shape}")
    dims = [2, 2, 2, 2]
    alpha = max_entangled_ket(2)
    resource = partial_trace(rho, dims, keep=[0, 1])
    if max_abs(resource - np.outer(alpha, alpha.conj())) > RESOURCE_TOL:
        warnings.warn("use-1 marginal deviates from the maximally entangled "
                      "resource; decoding anyway", stacklevel=2)
    q0 = np.outer(alpha, alpha.conj())
    p_detect_first = 0.0
    total = 0.0
    for mu, bell in enumerate(bell_basis()):
        # Bell measurement on Alice's qubits (slots 0 and 2)
        proj = _bell_projector(bell)
        post = proj @ rho @ proj
        p_mu = float(np.real(np.trace(post)))
        if p_mu <= 1e-15:
            continue
        bob = partial_trace(post, dims, keep=[1, 3])          # (B1, B2), order kept
        corr = np.kron(_CORRECTIONS[mu], np.eye(2))
        bob = corr @ bob @ corr.conj().T
        p_detect_first += float(np.real(np.trace(q0 @ bob)))
        total += p_mu
    if abs(total - 1.0) > 1e-8:
        warnings.warn(f"Bell outcome probabilities sum to {total}", stacklevel=2)
    p0 = min(max(p_detect_first, 0.0), 1.0)
    return {0: p0, 1: 1.0 - p0}


def _bell_projector(bell: np.ndarray) -> np.ndarray:
    """Projector |bell><bell| on qubits (0, 2) of a 4-qubit register."""
    op4 = np.outer(bell, bell.conj())
    full = np.kron(op4, np.eye(4)).reshape([2] * 8)
    # current order (A1, A2, B1, B2); move to (A1, B1, A2, B2)
    perm = [0, 2, 1, 3]
    axes = perm + [p + 4 for p in perm]
    return full.transpose(axes).reshape(16, 16)


def privacy_check(channel: MultiUserChannel,
                  slot_pair: tuple[int | str, int | str]) -> tuple[bool, dict[str, float]]:
    """True iff the two-use outputs for the two message slots coincide and are
    orthogonal to the unmodulated output (so the receiver learns the bit while
    neither sender can tell who sent it)."""
    i, j = (slot_index(channel, s) for s in slot_pair)
    if i == j:
        raise ValueError("privacy check needs two distinct slots")
    return privacy_verdict(*(flag_distribution(channel, s) for s in (None, i, j)))


def privacy_verdict(p0: np.ndarray, p_i: np.ndarray,
                    p_j: np.ndarray) -> tuple[bool, dict[str, float]]:
    """`privacy_check` on the flag distributions of Phi and of each slot's codeword 1."""
    same = max_abs(p_i - p_j)
    cross_i, cross_j = (float(np.vdot(p, p0)) for p in (p_i, p_j))
    details = {"output_difference": same, "overlap_slot_i": cross_i, "overlap_slot_j": cross_j}
    return all(v <= ORTHO_OVERLAP_TOL for v in details.values()), details


def capacity_lower_bound(uses: int, distinguishable: int) -> float:
    """log2(N)/k bits per use from N perfectly distinguishable k-use inputs."""
    if uses < 1:
        raise ValueError("uses must be >= 1")
    if distinguishable < 1:
        raise ValueError("need at least one distinguishable input")
    return log2(distinguishable) / uses
