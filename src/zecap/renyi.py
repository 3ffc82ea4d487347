"""Renyi entropies, minimum output-rank searches and the p=0
additivity gap for channels built from bipartite subspaces.

The p=0 quantity is the log of the minimum output rank. For a channel whose
Kraus operators reshape an orthonormal basis of a bipartite subspace S, the
output support at input x is {K x : K in span}, and eta is orthogonal to it
exactly when conj(x) (x) eta is orthogonal to S: an output of rank below d_B
at x puts the product state conj(x) (x) eta in the orthogonal complement of
S. A completely-entangled complement therefore pins the single-use minimum
output rank at the full output dimension d_B, whether or not S is real.

scipy is imported only by the rank search's L-BFGS walk, on its first run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log2
from typing import Callable, Sequence

import numpy as np

from .channels import (
    MultiUserChannel,
    apply_channel_to_ket,  # no caller here; bench/tracer.py wraps this binding
    apply_channel_to_stack,
    kraus_adjoint,
    kraus_images,
    make_cj_channel,
    tensor_power,
    to_kraus,
)
from .linalg import dagger, haar_ket, keyed_haar_kets, max_entangled_ket, parity_signs
from .subspaces import CECertificate, Subspace, certify_completely_entangled, check_certificate

RANK_THRESHOLD_RATIO = 1e-7   # eigenvalues below this fraction of the top count as zero
LBFGS_MAXITER = 400           # iteration cap of each L-BFGS run of the rank search
DEFAULT_GAP_BUDGET = 5000
# kets per stacked output-spectrum pass. Scoring the two-use pool at budget
# 5000 (2,004 kets) in one pass raised the renyi-gap peak RSS from 83 to
# 107 MB; passes of 64 kets keep it at 83 MB and score as fast as 256
SPECTRUM_CHUNK = 64


def renyi_entropy(rho: np.ndarray, p: float) -> float:
    """Renyi entropy of order p in bits; p = 0, 1 and inf take their limits."""
    if p < 0:
        raise ValueError("order p must be >= 0")
    rho = np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if w[0] < -1e-8 * max(w[-1], 1.0):
        raise ValueError(f"negative eigenvalue {w[0]} in the input spectrum")
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("cannot take the entropy of the zero operator")
    w = w / total
    w = w[w > RANK_THRESHOLD_RATIO * np.max(w)]
    if p == 0:
        return log2(len(w))
    if p == 1:
        return float(-np.sum(w * np.log2(w)))
    if p == inf or np.isinf(p):
        return float(-np.log2(np.max(w)))
    return float(np.log2(np.sum(w ** p)) / (1.0 - p))


def spectrum_rank(spectrum: np.ndarray) -> int | np.ndarray:
    """Number of eigenvalues above RANK_THRESHOLD_RATIO times the top one; for
    a stack of spectra, one rank per row."""
    w = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
    top = np.max(w, axis=-1, keepdims=True, initial=0.0)
    ranks = np.sum(w > RANK_THRESHOLD_RATIO * top, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass
class RankSearchResult:
    best_rank: int
    achiever: np.ndarray
    output_spectrum: np.ndarray        # descending, trace-normalized
    second_eigenvalue: float
    tried_ranks: dict[int, float] = field(default_factory=dict)  # target -> best tail mass


def _output_spectra(channel: MultiUserChannel, kets: np.ndarray) -> np.ndarray:
    """Descending, trace-normalized output spectra of a stack of pure inputs
    (one row per ket, whatever its norm); a ket's spectrum does not depend on
    the kets scored with it."""
    spectra = [np.empty((0, channel.out_dim))]
    for start in range(0, len(kets), SPECTRUM_CHUNK):
        psi = kets[start:start + SPECTRUM_CHUNK]
        w = np.linalg.eigvalsh(apply_channel_to_stack(
            channel, psi[:, :, None] * psi[:, None, :].conj()))[:, ::-1]
        w = np.clip(w, 0.0, None)
        spectra.append(w / np.sum(w, axis=1, keepdims=True))
    return np.concatenate(spectra)


def _output_spectrum(channel: MultiUserChannel, psi: np.ndarray) -> np.ndarray:
    return _output_spectra(channel, psi[None])[0]


# ---------------------------------------------------------------------------
# output rank search
# ---------------------------------------------------------------------------

def structured_rank_seeds(channel: MultiUserChannel) -> list[np.ndarray]:
    """Deterministic seeds tried before random restarts.

    For tensor squares of subspace channels these are the maximally
    entangled state phi across the two input copies and its parity flip
    (D x I) phi, D = diag(+1, -1, +1, ...): exactly the inputs whose two-use
    outputs are forced rank-deficient by the transpose/conjugation
    symmetries of the underlying subspaces. (I x D) phi = (D x I) phi, as
    phi has equal digits on both copies, so it is not tried again.
    """
    d = channel.in_dim
    seeds = [np.concatenate([np.ones(1), np.zeros(d - 1)]).astype(complex)]
    root = int(round(np.sqrt(d)))
    if root * root == d:
        phi = max_entangled_ket(root)
        seeds += [phi, phi * parity_signs((root, root), 0)]
    return seeds


def _tail_objective(channel: MultiUserChannel, target_rank: int) -> Callable:
    d = channel.in_dim
    ops, uses = to_kraus(channel), channel.uses

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        psi = x[:d] + 1j * x[d:]
        norm2 = float(np.real(np.vdot(psi, psi)))
        if norm2 < 1e-14:
            return 1.0, np.zeros_like(x)
        vecs = kraus_images(ops, uses, psi)
        w, v = np.linalg.eigh(vecs @ vecs.conj().T)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order].real, 0.0, None)
        v = v[:, order]
        total = float(np.sum(w))
        tail = float(np.sum(w[target_rank:]))
        value = tail / total
        # subgradient through the tail eigenprojector (eigenbasis held fixed):
        # sum_K K^dag (total * tail_proj - tail) K psi / total^2
        tail_proj = v[:, target_rank:] @ dagger(v[:, target_rank:])
        weight = total * tail_proj - tail * np.eye(len(w))
        grad_psi_bar = kraus_adjoint(ops, uses, weight @ vecs) / total ** 2
        grad = np.concatenate([2 * grad_psi_bar.real, 2 * grad_psi_bar.imag])
        return value, grad

    return fun


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call: scipy.optimize is
    most of a cold `import zecap`, and only the rank search's walk uses it."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


def min_output_rank_search(channel: MultiUserChannel,
                           seeds: Sequence[np.ndarray] | None = None,
                           restarts: int = 200, seed: int = 0,
                           refine_per_rank: int = 24, stop_below: int = 0) -> RankSearchResult:
    """Minimum output rank over pure inputs, by seeded descent on tail mass.

    Structured seeds and random restarts are ranked first by direct
    evaluation, by (rank, tail mass from the rank's last eigenvalue on,
    pool index). The pool is scored in stacked passes of SPECTRUM_CHUNK
    kets: each pass applies the one-use superoperator use by use to every
    ket's psi psi^dag, each ket on its own so that its score does not
    depend on the pool around it, and diagonalizes the outputs with one
    stacked `eigvalsh`. Then, for each target rank below the best one seen,
    the trace-normalized mass beyond the target rank is minimized by L-BFGS
    from the most promising starting points. The walk down stops at the
    first target whose tail mass cannot be driven to zero, which is sound
    because tail masses are nested.

    The search works in stages and stops at the first stage that finds a
    rank below `stop_below` (0, the default, never stops early): the seeds
    are scored first, the random restarts are drawn and scored only if no
    seed is below it, and the walk runs only while the best rank is not.
    The result is then the best rank found before the stop.
    """
    d = channel.in_dim
    rng = np.random.default_rng([seed, 0x5eed])
    pool: list[np.ndarray] = [s / np.linalg.norm(s) for s in
                              (structured_rank_seeds(channel) if seeds is None else list(seeds))]
    spectra = _output_spectra(channel, np.array(pool, dtype=complex))
    if not np.any(spectrum_rank(spectra) < stop_below):
        drawn = keyed_haar_kets([d], max(restarts, 1), [seed, 1])[0]
        pool += list(drawn)
        spectra = np.concatenate([spectra, _output_spectra(channel, drawn)])
    ranks = spectrum_rank(spectra)
    scored = [(int(r), float(np.sum(spec[max(r - 1, 0):])), idx, psi)
              for idx, (r, spec, psi) in enumerate(zip(ranks, spectra, pool))]
    scored.sort(key=lambda t: t[:3])
    best_rank, _, _, best_psi = scored[0]
    tried: dict[int, float] = {}

    target = best_rank - 1
    while target >= 1 and best_rank >= stop_below:
        objective = _tail_objective(channel, target)
        best_tail = inf
        found = None
        starts = [psi for r, _, _, psi in scored if r <= target + 2][:refine_per_rank]
        while len(starts) < refine_per_rank:
            starts.append(haar_ket(d, rng))
        for x_start in starts:
            x0 = np.concatenate([x_start.real, x_start.imag])
            res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                           options={"maxiter": LBFGS_MAXITER})
            if res.fun < best_tail:
                best_tail = float(res.fun)
                found = res.x[:d] + 1j * res.x[d:]
            if best_tail < RANK_THRESHOLD_RATIO / 10:
                break
        tried[target] = best_tail
        if found is not None and best_tail < RANK_THRESHOLD_RATIO / 10:
            psi = found / np.linalg.norm(found)
            spec = _output_spectrum(channel, psi)
            r = spectrum_rank(spec)
            if r <= target:
                best_rank, best_psi = r, psi
                target = r - 1
                continue
        break

    spec = _output_spectrum(channel, best_psi)
    second = float(spec[1]) if len(spec) > 1 else 0.0
    return RankSearchResult(best_rank, best_psi / np.linalg.norm(best_psi),
                            spec, second, tried)


# ---------------------------------------------------------------------------
# p = 0 additivity gap
# ---------------------------------------------------------------------------

@dataclass
class AdditivityGapReport:
    verdict: str                       # gap-found | no-gap | inconclusive
    single_use_rank: int               # d_B if the complement is certified, else best found
    single_use_floor: int              # certified lower bound
    two_use_rank: int                  # single_use_rank^2 when no two-use search ran
    single_use_bits: float
    two_use_bits: float
    complement_certificate: CECertificate | None
    single_result: RankSearchResult | None  # None when single_use_rank is certified
    two_use_result: RankSearchResult | None  # None when no two-use search ran
    notes: str = ""


def additivity_gap_at_zero(subspace: Subspace, budget: int = DEFAULT_GAP_BUDGET,
                           seed: int = 0, ce_restarts: int | None = None,
                           complement_certificate: CECertificate | None = None,
                           ) -> AdditivityGapReport:
    """Compare the minimum output rank of the subspace channel against two
    parallel uses of it.

    The single-use floor: an output of rank below d_B at input x requires
    the product state conj(x) (x) eta in the complement of S, for any
    complex S, so a completely-entangled complement forces every output to
    full rank and fixes the single-use rank at d_B. Then the two-use search
    runs, passed d_B^2 as its `stop_below`, and ends once the verdict is
    fixed: gap-found means the best two-use rank found is below d_B^2,
    which only ever understates the true gap, and two_use_rank is the best
    rank found before the stop (for e21 and variant34, rank 15 at the
    maximally entangled seed, with no random pool and no L-BFGS run), not a
    search for the lowest reachable rank. `budget` caps that search:
    min(budget, 2000) random restarts and max(8, budget // 200) L-BFGS
    starts per target rank, spent only while the verdict is open.

    Without that certificate there is no floor, and only the single-use
    rank r is searched for: r = 1 fixes no-gap, any other r leaves the
    verdict inconclusive, and no verdict reads a two-use rank, so no
    two-use search runs. two_use_rank is then r^2, the rank at x (x) x for
    the searched x, as ranks multiply on product inputs, and
    two_use_result is None.

    The complement is certified at `seed` with `ce_restarts`. A
    certificate already searched so (a flag-output channel's S1 certificate,
    when `subspace` is its S0) may be passed as `complement_certificate`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if len(subspace.dims) != 2:
        raise ValueError("the additivity gap check needs a bipartite subspace")
    da, db = subspace.dims
    if subspace.dim == da * db:
        return AdditivityGapReport(
            verdict="no-gap", single_use_rank=db, single_use_floor=db,
            two_use_rank=db * db, single_use_bits=log2(db),
            two_use_bits=2 * log2(db), complement_certificate=None,
            single_result=None, two_use_result=None,
            notes="the full space maps every input to the maximally mixed "
                  "state, so ranks multiply exactly")

    complement = subspace.complement()
    if complement_certificate is None:
        cert = certify_completely_entangled(complement, restarts=ce_restarts,
                                            seed=seed, label="complement")
    else:
        cert = check_certificate(complement_certificate, complement,
                                 restarts=ce_restarts, seed=seed)
    channel = make_cj_channel(subspace)
    if cert.verdict == "certified-CE":
        # the verdict is gap-found as soon as a two-use rank is below d_B^2
        two = min_output_rank_search(tensor_power(channel, 2), restarts=min(budget, 2000),
                                     seed=seed + 1, refine_per_rank=max(8, budget // 200),
                                     stop_below=db * db)
        notes = ("complement certified completely entangled: every single-use "
                 "output has full rank; ")
        if two.best_rank < db * db:
            verdict = "gap-found"
            notes += (f"two uses reach rank {two.best_rank} < {db * db} = "
                      f"(certified single-use rank)^2")
        else:
            verdict = "inconclusive"
            notes += "no two-use input with deficient output found within budget"
        return AdditivityGapReport(verdict, db, db, two.best_rank, log2(db),
                                   log2(two.best_rank), cert, None, two, notes)

    single = min_output_rank_search(channel, restarts=min(budget, 200), seed=seed)
    rank = single.best_rank
    notes = ("complement contains a product state; no rank floor; "
             if cert.verdict == "product-state-found"
             else "complement certification inconclusive; ")
    if rank == 1:
        verdict = "no-gap"
        notes += "single-use rank 1 makes a gap impossible"
    else:
        verdict = "inconclusive"
        notes += "cannot certify the single-use rank floor"
    return AdditivityGapReport(verdict, rank, 1, rank * rank, log2(rank),
                               log2(rank * rank), cert, single, None, notes)
