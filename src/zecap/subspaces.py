"""Subspaces of multipartite spaces and completely-entangled certification.

The central question answered here is whether a subspace contains a product
state. Two independent routes are provided: an alternating eigenvector
maximization of <a x b x ...|P|a x b x ...> over normalized product states
(fast, local, many restarts), and an exhaustive grid over a gauge-fixed
parameterization of the product manifold (slow, global, coarse). Both return
lower bounds on the true maximum product overlap.

Both read the projector as one real tensor, its coefficients in each
party's real Hermitian coordinates (`_coefficient_tensor`), and a party's
factor f as the real row U_d (conj(f) (x) f). The search holds one such row
per restart and party and updates it in place of f, in closed form on
parties of 2, 3 and 4 dimensions (`_slot_step`; on 3 and 4 from the
characteristic polynomial of the slot operator); the grid takes all of a
party's grid kets at once. A slot step needs only the entries of the other
parties' Kronecker row that meet a nonzero row of the slot's matrix
(`_slot_tables`: 2^m of 4^(m-1) on em1:m), and builds only those. After
SNAP_SWEEP sweeps the search rounds its factors to SNAP_SET once, which ends
a crawl to a maximum there (em1:4's 7/8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .exactnum import ExactMatrix, exact_all_zero, exact_matmul, exact_projector
from .linalg import (contract_factors, dim_of, gram_schmidt, keyed_haar_kets, max_abs, paired,
                     parity_signs)

PRODUCT_FOUND_TOL = 1e-6     # overlap >= 1 - this counts as a product state
DEFAULT_CE_GAP = 1e-3        # certified-CE needs an overlap <= 1 - this
MIN_CERT_RESTARTS = 100      # fewer restarts than this certify nothing
SWEEP_GAIN_TOL = 1e-12       # a restart stops when a sweep gains less than this
MAX_SWEEPS = 500             # ... or after this many sweeps
SNAP_SWEEP = 10              # ... or at its snapped point, tried once after this sweep
ASCENT_TOL = 1e-9            # a slot step lowering an overlap by more than this raises
SYMMETRY_TOL = 1e-9          # largest residual a float symmetry check passes
GRID_MAX_EVALS = 200_000_000   # largest grid the oracle evaluates
GRID_CHUNK_VALUES = 4_000_000  # values a grid block's contraction holds; points a batch covers
GRID_PRUNE_SLACK = 1e-9        # a grid prefix whose bound is this far below the best is dropped

EIG_RESIDUAL_TOL = 64 * np.finfo(float).eps    # closed-form top eigenpairs with a larger
                                               # residual, relative to max|h|, go to eigh

_SQRT_HALF = np.sqrt(0.5)
_SQRT_TWO = np.sqrt(2)
_TWO_PI_THIRDS = 2 * np.pi / 3

# the values a snapped factor's entries are rounded to: r u, (+-1 +- i)/2 and 0,
# last, so that an entry halfway between 0 and another value is kept
SNAP_SET = np.array([r * u for r in (1, _SQRT_HALF, 0.5) for u in (1, -1, 1j, -1j)]
                    + [(a + b) / 2 for a in (1, -1) for b in (1j, -1j)] + [0])
SNAP_SET.setflags(write=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Subspace:
    """A subspace given by party dimensions, an orthonormal basis and its projector.

    Immutable after construction (the held arrays are write-protected), so
    instances are safe to share across threads.
    """

    dims: tuple[int, ...]
    basis: np.ndarray          # shape (dim, total), rows orthonormal
    projector: np.ndarray      # shape (total, total)

    @classmethod
    def from_span(cls, dims: Sequence[int], spanning: Sequence[np.ndarray]) -> "Subspace":
        total = dim_of(dims)
        for v in spanning:
            if np.asarray(v).shape != (total,):
                raise ValueError(
                    f"spanning vector of length {np.asarray(v).size} does not "
                    f"match dims {tuple(dims)} (total {total})")
        basis = gram_schmidt(spanning)
        b = np.stack(basis) if basis else np.zeros((0, total), dtype=complex)
        proj = b.T @ b.conj()
        return cls(tuple(int(d) for d in dims), _frozen(b), _frozen(proj))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def total_dim(self) -> int:
        return dim_of(self.dims)

    def complement(self) -> "Subspace":
        """Orthogonal complement; the two projectors sum to the identity."""
        w, v = np.linalg.eigh(self.projector)
        kernel = [v[:, i] for i in range(self.total_dim) if w[i] < 0.5]
        b = np.stack(kernel) if kernel else np.zeros((0, self.total_dim), dtype=complex)
        return Subspace(self.dims, _frozen(b), _frozen(b.T @ b.conj()))


@dataclass
class ProductCandidate:
    """A normalized product state with its overlap <prod|P|prod>."""

    factors: list[np.ndarray]
    overlap: float
    restart_index: int = -1
    sweeps: int = 0
    converged: bool = True     # the winner's last sweep gained less than SWEEP_GAIN_TOL
    retired: int = 0           # restarts stopped early by the retirement rule
    snapped: bool = False      # the winner stopped at its snapped point

    def ket(self) -> np.ndarray:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = np.kron(out, f)
        return out


@dataclass
class CECertificate:
    subspace_label: str
    max_overlap_found: float
    witness: ProductCandidate
    restarts: int
    verdict: str               # certified-CE | product-state-found | inconclusive
    seed: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-CE"


def default_restarts(dims: Sequence[int]) -> int:
    return 1000 if len(dims) == 2 else 200


@lru_cache(maxsize=None)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(d, 1)`, made once per d and write-protected."""
    return tuple(_frozen(i) for i in np.triu_indices(d, 1))


@lru_cache(maxsize=None)
def _hermitian_coordinates(d: int) -> np.ndarray:
    """Unitary U_d on C^(d*d) taking a Hermitian d x d matrix M, flattened
    row-major, to real coordinates: the d diagonal entries, then sqrt(2) Re
    and sqrt(2) Im of each entry above the diagonal; made once per d."""
    u = np.zeros((d * d, d * d), dtype=complex)
    u[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    a, b = _upper_pairs(d)
    re = d + 2 * np.arange(len(a))
    upper, lower = a * d + b, b * d + a
    u[re, upper] = u[re, lower] = _SQRT_HALF
    u[re + 1, upper], u[re + 1, lower] = -1j * _SQRT_HALF, 1j * _SQRT_HALF
    return _frozen(u)


def _coefficient_tensor(subspace: Subspace) -> tuple[np.ndarray, list[np.ndarray]]:
    """P's coefficients on the parties' Hermitian bases, one axis of d*d per
    party, and the U_d whose rows name those bases.

    With P's (out, in) index pairs interleaved party by party, <f|P|f> for a
    product f is P contracted with conj(f_t) (x) f_t for each party t in
    turn. In each party's real Hermitian coordinates both sides are real, so
    <f|P|f> is this real tensor contracted with the rows U_d (conj(f_t) (x) f_t).
    """
    dims = subspace.dims
    tensor = subspace.projector.reshape(*dims, *dims).transpose(paired(len(dims)))
    units = [_hermitian_coordinates(d) for d in dims]
    coeffs = contract_factors(tensor, [u.conj() for u in units]).real
    return coeffs.reshape([d * d for d in dims]), units


def _ket_coordinates(f: np.ndarray) -> np.ndarray:
    """Row z is U_d (conj(f[z]) (x) f[z]), entry by entry: |f_a|^2, then
    sqrt(2) Re and sqrt(2) Im of conj(f_a) f_b for each a < b. Each row is
    computed on its own, so its digits do not depend on the stack it is in."""
    n, d = f.shape
    a, b = _upper_pairs(d)
    off = _SQRT_TWO * f[:, a].conj() * f[:, b]
    x = np.empty((n, d * d))
    x[:, :d] = f.real ** 2 + f.imag ** 2
    x[:, d::2], x[:, d + 1::2] = off.real, off.imag
    return x


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... in that order, so each column sums on its own
    whatever the number of columns (an axis-0 `sum` may reorder its terms)."""
    return reduce(np.add, a)


def _real_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re(x^dag y) per column of two (d, n) complex stacks: the sum over their
    real parts plus the sum over their imaginary parts."""
    s = np.einsum("in,in->n", x.view(float), y.view(float))
    return s[0::2] + s[1::2]


@lru_cache(maxsize=None)
def _entry_parts(d: int) -> tuple[np.ndarray, ...]:
    """For each entry of M = h @ U_d, row-major: the coordinate of h and the factor
    giving its real part, then its imaginary part (0 on the diagonal); made once per d."""
    u, cols = _hermitian_coordinates(d), np.arange(d * d)
    re, im = np.abs(u.real).argmax(axis=0), np.abs(u.imag).argmax(axis=0)
    return tuple(_frozen(x) for x in (re, u.real[re, cols, None], im, u.imag[im, cols, None]))


def _top_root(c2: np.ndarray, c1: np.ndarray, c0: np.ndarray | None) -> np.ndarray:
    """The largest root t of the characteristic polynomial of each traceless
    3 x 3 (c0 None) or 4 x 4 B, given its coefficients; 0 or NaN where B = 0,
    which leaves no eigenvector for `_closed_form_top` to accept.

    On d = 3 that is the depressed cubic t^3 + c2 t + c1, solved by its
    trigonometric form. On d = 4 it is the depressed quartic
    t^4 + c2 t^2 + c1 t + c0. For eigenvalues t1 >= t2 >= t3 >= t4 summing
    to 0, the resolvent cubic U^3 + 2 c2 U^2 + (c2^2 - 4 c0) U - c1^2 has
    roots (t1 + t2)^2 >= (t1 + t3)^2 >= (t1 + t4)^2, found by the same
    trigonometric form. With a and b the roots of the first two (both >= 0)
    and c = t1 + t4 = -c1/(ab) by Vieta, t1 = (a + b + c)/2. Cubes are
    products, not `**`, which calls C's `pow` per element.
    """
    if c0 is None:
        s2 = 2 * np.sqrt(-c2 / 3)                 # 2 s; -c1/(2 s^3) = -4 c1/(2 s)^3
        return s2 * np.cos(_third_angle(-4 * c1 / (s2 * s2 * s2)))
    u = c2 / 3          # the resolvent's roots are 2 s cos(angle - 2 pi j/3) - 2u
    ss = np.maximum(u * u + 4 * c0 / 3, 0.0)      # s^2, 0 at a triple root
    s2 = 2 * np.sqrt(ss)
    angle = _third_angle((2 * u * u * u - 8 * u * c0 + c1 * c1) / (s2 * ss))
    a = np.sqrt(s2 * np.cos(angle) - 2 * u)
    b = np.sqrt(np.maximum(s2 * np.cos(angle - _TWO_PI_THIRDS) - 2 * u, 0.0))
    return 0.5 * (a + b - c1 / (a * b))


def _closed_form_top(h: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenpair of each 3 x 3 or 4 x 4 slot operator M with real
    coordinates h, in closed form and row by row: the Rayleigh quotient
    v^dag M v, the coordinates of v v^dag, and whether the row is accepted.

    For the traceless part B = M - (tr M/d) I, one product B^2 gives
    diag B^3 and tr B^4 = |B^2|_F^2, and Newton's identities the
    characteristic polynomial p: c2 = -tr B^2/2, c1 = -tr B^3/3 and, on
    d = 4, c0 = (tr B^2)^2/8 - tr B^4/4. For its top root t (`_top_root`),
    q(B) = p(B)/(B - t) = adj(tI - B) is a multiple of the top
    eigenprojector; v is its column j with the largest diagonal entry, both
    by Horner's rule: q(B) = B^2 + tB + (t^2 + c2) I on d = 3, and B times
    that plus (t^3 + c2 t + c1) I on d = 4. A row is accepted when v's norm
    is finite and nonzero and |M v - (v^dag M v) v| <= EIG_RESIDUAL_TOL *
    max|h| for the unit v, which a flat or degenerate top fails (or leaves
    a NaN that fails it). Each product and sum is one einsum, no `optimize`, over
    stacks with the batch axis last and kept, so each row is summed on its own (a
    lone row is stacked twice: over a batch of one, an einsum loops over the sum).
    """
    n = len(h)
    if n == 1:
        return tuple(x[:1] for x in _closed_form_top(np.concatenate([h, h]), d))
    ht = np.ascontiguousarray(h.T)          # entry-major: one row per coordinate
    scale = np.maximum(ht.max(axis=0), -ht.min(axis=0))        # max|h|, without a temporary
    shift = np.einsum("in->n", ht[:d]) / d
    ht[:d] -= shift                         # now B's coordinates
    tr_b2 = np.einsum("in,in->n", ht, ht)
    re, re_of, im, im_of = _entry_parts(d)
    bm = np.empty((d * d, n), dtype=complex)
    np.multiply(ht[re], re_of, out=bm.real)
    np.multiply(ht[im], im_of, out=bm.imag)
    del ht
    b, b1 = bm.reshape(d, d, n), bm[::d + 1].real       # B and its diagonal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.einsum("ikn,kjn->ijn", b, b)                     # B^2
        b3 = np.einsum("ikn,kin->in", b, q).real                # (B^3)_ii = sum_k B_ik (B^2)_ki
        c2, c1 = -0.5 * tr_b2, -np.einsum("in->n", b3) / 3
        tr_b4 = np.einsum("ijn,jin->n", q, q).real if d == 4 else None
        t = _top_root(c2, c1, None if d == 3 else 0.125 * tr_b2 * tr_b2 - 0.25 * tr_b4)
        k2 = t * t + c2
        b2 = q.reshape(d * d, n)[::d + 1].real  # diag B^2
        # diag q(B) less its constant term, then column j of q(B), read at `at` in (d, d * n) views
        j = (b2 + t * b1 if d == 3 else b3 + t * b2 + k2 * b1).argmax(axis=0)
        at = j * n + np.arange(n)
        v = q.reshape(d, -1).take(at, axis=1)
        del q                               # freed before the products with B below
        v += t * bm.reshape(d, -1).take(at, axis=1)
        v.reshape(-1)[at] += k2             # entry (j[z], z) of the (d, n) v
        if d == 4:
            v = np.einsum("ikn,kn->in", b, v)
            v.reshape(-1)[at] += t * k2 + c1
        norm = np.sqrt(_real_dot(v, v))
        v /= norm
        bv = np.einsum("ikn,kn->in", b, v)
        rho = _real_dot(v, bv)
        r = bv - rho * v
        # an infinite norm leaves v = 0, which passes the residual test
        ok = (norm < np.inf) & (_real_dot(r, r) <= (EIG_RESIDUAL_TOL * scale) ** 2)
        return shift + rho, _ket_coordinates(v.T), ok


def _third_angle(cos3: np.ndarray) -> np.ndarray:
    """theta in [0, pi/3] with cos(3 theta) = cos3 (clipped to [-1, 1]): the
    roots of W^3 - 3 s^2 W - 2 s^3 cos3 are 2 s cos(theta - 2 pi j/3),
    largest first. A NaN, from 0/0 where s = 0 and the roots are all 0,
    gives pi/3 like any other angle would."""
    return np.arccos(np.fmin(np.fmax(cos3, -1.0), 1.0)) / 3


def _slot_step(h: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue of each slot operator, given by its real coordinates h
    (one row per restart), and the coordinates of a projector onto a top
    eigenvector, both computed row by row.

    A qubit slot is closed form: with a = (h0 - h1)/2 and R the length of
    (a, h2/sqrt(2), h3/sqrt(2)), the top eigenvalue is (h0 + h1)/2 + R and
    the projector is (1/2 + a/(2R), 1/2 - a/(2R), h2/(2R), h3/(2R)). Where
    R = 0 the operator is a multiple of the identity, and |0><0| is taken.
    A 3- or 4-dim slot is closed form too (`_closed_form_top`: for the top
    root t of the characteristic polynomial p of the traceless part B, a
    column of p(B)/(B - t) = adj(tI - B)), and only the rows it does not
    accept go to `eigh`, in one call. Larger slots rebuild the d x d
    operators h @ U_d for `eigh`. Whether a row is accepted
    depends on that row alone, so its digits do not depend on the batch.
    """
    if d == 2:
        a = 0.5 * (h[:, 0] - h[:, 1])
        # hypot, not a root of squares, so that tiny entries do not underflow
        r = np.hypot(a, _SQRT_HALF * np.hypot(h[:, 2], h[:, 3]))
        flat = None if r.all() else r == 0     # the mask only when a row is flat
        s = 0.5 / (r if flat is None else np.where(flat, 1.0, r))
        x = h * s[:, None]
        # the diagonal from a, not from h_k - (h0 + h1)/2: |a| <= R keeps it
        # in [0, 1] with unit trace even when R is at the rounding scale
        x[:, 0] = 0.5 + a * s
        x[:, 1] = 0.5 - a * s
        if flat is not None:
            x[flat] = (1.0, 0.0, 0.0, 0.0)
        return 0.5 * (h[:, 0] + h[:, 1]) + r, x
    if d not in (3, 4):
        w, v = np.linalg.eigh((h @ _hermitian_coordinates(d)).reshape(-1, d, d))
        return w[:, -1], _ket_coordinates(v[..., -1])
    lam, x, ok = _closed_form_top(h, d)
    if not ok.all():
        fail = ~ok
        w, v = np.linalg.eigh((h[fail] @ _hermitian_coordinates(d)).reshape(-1, d, d))
        lam[fail], x[fail] = w[:, -1], _ket_coordinates(v[..., -1])
    return lam, x


def _ket_from_coordinates(x: np.ndarray, d: int, u: np.ndarray) -> np.ndarray:
    """A unit ket f with U_d (conj(f) (x) f) = x, for the coordinates x of a
    rank-one projector: x @ U_d is f f^dagger, whose column k is f conj(f_k)."""
    ff = (x @ u).reshape(d, d)
    k = int(np.argmax(ff.diagonal().real))
    return ff[:, k] / np.linalg.norm(ff[:, k])


SlotTable = tuple[list, np.ndarray]


def _slot_tables(coeffs: np.ndarray, dims: Sequence[int]) -> list[SlotTable]:
    """For each slot s, the rows of P's coefficient tensor with s's axis last
    (rows over the other parties' coordinates in party order, columns over
    s's) that are not all zero, and for each other party the coordinate each
    kept row takes from it: slice(None) where that is every coordinate in
    order, as on a bipartite slot with no zero row."""
    tables = []
    for s, d in enumerate(dims):
        mat = np.moveaxis(coeffs, s, -1).reshape(-1, d * d)
        keep = np.flatnonzero(mat.any(axis=1))
        sizes = [e * e for t, e in enumerate(dims) if t != s]
        index = [slice(None) if np.array_equal(i, np.arange(n)) else i
                 for i, n in zip(np.unravel_index(keep, sizes) if sizes else (), sizes)]
        # einsum sums against a contiguous single column in SIMD partial sums,
        # but in order when its rows are strided, as in the real-part view
        # of P's complex coefficients
        tables.append((index, mat[keep] if d > 1 else np.repeat(mat[keep], 2, axis=0)[::2]))
    return tables


def _slot_rows(others: Sequence[np.ndarray], table: SlotTable, n: int) -> np.ndarray:
    """The entries of each of the n restarts' row-wise Kronecker product of
    the other parties' rows that meet a kept row of the slot's matrix:
    x_0[:, i_0] * x_1[:, i_1] * ..., left to right, which are the Kronecker
    chain's own floats. One party has no others: a column of ones per kept row."""
    index, mat = table
    parts = [x[:, i] for x, i in zip(others, index)]
    return reduce(np.multiply, parts) if parts else np.ones((n, len(mat)))


def _sweep(live: list[np.ndarray], dims: Sequence[int], tables: Sequence[SlotTable],
           cur: np.ndarray) -> np.ndarray:
    """One sweep of slot steps over the parties, from the rows `live` (one per
    restart and party, replaced in the list) at overlaps `cur`; returns the
    overlaps after it. Raises if a step lowers an overlap by more than ASCENT_TOL."""
    for slot, (d, table) in enumerate(zip(dims, tables)):
        rows = _slot_rows([x for t, x in enumerate(live) if t != slot], table, len(cur))
        # a two-operand einsum without `optimize` sums each row on its own, in
        # order (a BLAS `rows @ mat` does not), so a restart's digits do not
        # depend on which other restarts are still alive; the dropped rows'
        # terms were exact zeros added to a sum that starts at +0
        new, live[slot] = _slot_step(np.einsum("zi,ij->zj", rows, table[1]), d)
        if (new - cur).min() < -ASCENT_TOL:
            raise RuntimeError("alternating maximization decreased")
        cur = new
    return cur


def _snap(rows: list[np.ndarray], dims: Sequence[int], units: Sequence[np.ndarray],
          tables: Sequence[SlotTable]) -> tuple[list[np.ndarray], np.ndarray]:
    """The snapped rows and their overlaps, row by row. Each factor f is read
    back from its coordinates x as column k of x U_d = f f^dagger over
    sqrt(x_k), k where x_k = |f_k|^2 is largest, so f_k is real and positive;
    every entry goes to the nearest value of SNAP_SET, and f is renormalized.
    The overlap is the last slot's row contraction, as in a slot step, times
    the last party's row."""
    snapped = []
    for x, d, u in zip(rows, dims, units):
        n, k = len(x), x[:, :d].argmax(axis=1)
        f = np.einsum("zi,ij->zj", x, u).reshape(n, d, d)[np.arange(n), :, k]
        f = SNAP_SET[np.abs((f / np.sqrt(x[np.arange(n), k])[:, None])[..., None]
                            - SNAP_SET).argmin(axis=-1)]
        norm = np.sqrt(_sum_rows((f.real ** 2 + f.imag ** 2).T))
        with np.errstate(invalid="ignore"):     # a factor of d > 16 may round to 0: NaN
            snapped.append(_ket_coordinates(f / norm[:, None]))
    h = np.einsum("zi,ij->zj", _slot_rows(snapped[:-1], tables[-1], len(rows[0])), tables[-1][1])
    return snapped, _sum_rows((h * snapped[-1]).T)


def max_product_overlap(subspace: Subspace, restarts: int | None = None,
                        seed: int = 0) -> ProductCandidate:
    """Best product state found by alternating eigenvector maximization.

    Each restart starts from independent Haar-random factors (stream derived
    from (seed, restart index), so results do not depend on evaluation order)
    and alternates over the parties: with all factors but one fixed, the
    optimal remaining factor is the top eigenvector of the contracted
    operator. A restart holds each factor f as the real Hermitian
    coordinates U_d (conj(f) (x) f) of its projector, and each slot has one
    real matrix shared by all restarts, P's coefficient tensor
    (`_coefficient_tensor`) with that slot's axis last, cut to its rows that
    are not all zero (`_slot_tables`). A slot step takes the entries of the
    Kronecker product of the restart's rows for the other parties at those
    rows (`_slot_rows`) times the cut matrix, which gives the slot
    operator's coordinates to the bit (the terms left out are exact zeros),
    and then `_slot_step`, closed form on slots of 2 to 4 dimensions. The objective
    never decreases within a restart. Restarts run in lockstep, and each
    step is row by row, so a restart's bits do not depend on its batch; they
    are independent up to the snap below, which only the leader's snapped
    overlap enables. The best is merged by (overlap, lowest restart index),
    so the result does not depend on the schedule. The winner's factor kets
    are read back from its coordinates once, at the end.

    A restart stops when a sweep gains less than SWEEP_GAIN_TOL, or after
    MAX_SWEEPS sweeps. After each sweep the leader is the restart with the
    highest overlap so far (ties to the lowest index). Every other running
    restart is retired when it cannot change the answer: either its current
    per-sweep gain, kept up over the sweeps left, would not reach the
    leader, or it already sits within PRODUCT_FOUND_TOL of the leader, whose
    own sweeps refine the same level. The leader is never retired and stops
    by the first rule only, while a retired restart stays frozen at or below
    the leader, so the winner is a restart that ran to its own stop.

    After sweep SNAP_SWEEP the best restart that ran it is snapped (`_snap`).
    Only if that does not lower its overlap (the leader gate) are all the
    restarts that ran the sweep snapped. One stops at its snapped point, as
    `converged` and `snapped` with that point's overlap, when the snap does
    not lower its overlap and one sweep from there gains less than
    SWEEP_GAIN_TOL: a fixed point of the ascent. The others run on unchanged
    and are retired against the new best.

    The rules read only overlaps, so the result stays a pure function of
    (subspace, restarts, seed). Rows are written back, and the running set
    compacted, only after a sweep in which some restart stopped or was
    retired. Once the leader is the only restart running, the retirement
    rule is not evaluated: there is nothing else to retire, and the leader's
    rising overlap keeps it the leader.
    """
    if restarts is None:
        restarts = default_restarts(subspace.dims)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    dims = subspace.dims
    coeffs, units = _coefficient_tensor(subspace)
    # slot s's matrix, shared by all restarts, cut to its nonzero rows
    tables = _slot_tables(coeffs, dims)
    # each restart draws its factors from a private stream keyed by its index
    coords = [_ket_coordinates(f) for f in keyed_haar_kets(dims, restarts, [seed])]
    live = list(coords)     # the rows of the restarts in `alive`, written back as they stop
    obj = np.zeros(restarts)
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    snapped = np.zeros(restarts, dtype=bool)
    retired = 0
    alive = np.arange(restarts)
    lone = False            # the leader is the only restart still running
    for sweep in range(1, MAX_SWEEPS + 1):
        prev_sweep = obj[alive]
        cur = _sweep(live, dims, tables, prev_sweep)
        obj[alive] = cur
        sweeps[alive] = sweep
        gain = cur - prev_sweep
        running = keep = gain >= SWEEP_GAIN_TOL
        if sweep == SNAP_SWEEP:
            # the leader gate: snap the best restart that ran this sweep first
            top = int(np.argmax(cur))
            if _snap([x[[top]] for x in live], dims, units, tables)[1][0] >= cur[top]:
                rows, v = _snap(live, dims, units, tables)
                at = np.flatnonzero(v >= cur)
                # the restarts whose snapped point is a fixed point of the ascent
                at = at[_sweep([x[at] for x in rows], dims, tables, v[at]) - v[at] < SWEEP_GAIN_TOL]
                for x, y in zip(live, rows):    # rows from the slot steps, not `coords`
                    x[at] = y[at]
                obj[alive[at]], snapped[alive[at]] = v[at], True
                running = keep = running & ~snapped[alive]
        # a lone leader cannot be retired, and its rising overlap keeps it the leader
        if not lone:
            leader = int(np.argmax(obj))        # ties resolve to the lowest index
            best = obj[leader]
            retire = running & (alive != leader) & (
                (cur + gain * (MAX_SWEEPS - sweep) < best)
                | (best - cur <= PRODUCT_FOUND_TOL))
            retired += int(np.count_nonzero(retire))
            keep = running & ~retire
        if not keep.all():
            converged[alive[~running]] = True
            for x, y in zip(coords, live):
                x[alive] = y
            live = [y[keep] for y in live]
            alive = alive[keep]
            if alive.size == 0:
                break
        lone = lone or (alive.size == 1 and alive[0] == leader)
    else:
        for x, y in zip(coords, live):      # the restarts still running at MAX_SWEEPS
            x[alive] = y
    best_idx = int(np.argmax(obj))      # ties resolve to the lowest index
    best_factors = [_ket_from_coordinates(x[best_idx], d, u)
                    for x, d, u in zip(coords, dims, units)]
    return ProductCandidate(best_factors, float(obj[best_idx]),
                            restart_index=best_idx, sweeps=int(sweeps[best_idx]),
                            converged=bool(converged[best_idx]), retired=retired,
                            snapped=bool(snapped[best_idx]))


def certify_completely_entangled(subspace: Subspace, restarts: int | None = None,
                                 seed: int = 0, label: str = "") -> CECertificate:
    """Numerical certificate that a subspace contains no product state.

    The certificate is honest about being numerical: certified-CE means the
    best product overlap over at least MIN_CERT_RESTARTS restarts stayed at
    or below 1 - DEFAULT_CE_GAP.
    """
    if restarts is None:
        restarts = default_restarts(subspace.dims)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if subspace.dim == 0:
        empty = ProductCandidate([np.zeros(d) for d in subspace.dims], 0.0)
        return CECertificate(label, 0.0, empty, restarts, "certified-CE", seed)
    cand = max_product_overlap(subspace, restarts=restarts, seed=seed)
    if cand.overlap >= 1.0 - PRODUCT_FOUND_TOL:
        verdict = "product-state-found"
    elif cand.overlap <= 1.0 - DEFAULT_CE_GAP and restarts >= MIN_CERT_RESTARTS:
        verdict = "certified-CE"
    else:
        verdict = "inconclusive"
    return CECertificate(label, cand.overlap, cand, restarts, verdict, seed)


def parity_conjugate_slot(dims: Sequence[int], exact_spanning: Sequence[ExactMatrix],
                          slots: Sequence[int]) -> int | None:
    """The first slot u in `slots` with S1 = D_u S0 proved exactly, else None.
    With the k exact S0 spanning vectors as the columns of V, V^dag D_u V = 0
    puts the unitary image D_u S0 inside S1, and 2k = total makes them equal."""
    v = ExactMatrix(np.concatenate([x.num for x in exact_spanning], axis=2))
    if 2 * v.shape[1] == dim_of(dims):
        for u in slots:
            if _sign_form_vanishes(v.dagger(), v, parity_signs(dims, u)):
                return u
    return None


def conjugated_certificate(cert: CECertificate, s1: Subspace, slot: int,
                           label: str) -> CECertificate:
    """S1's certificate from S0's when S1 = D_slot S0. The local unitary D_slot
    keeps product states product, so S1's best overlap is S0's, at S0's
    witness with factor `slot`'s odd amplitudes negated. RuntimeError unless
    that witness gives it on S1's float projector within SYMMETRY_TOL."""
    witness = replace(cert.witness, factors=[f * parity_signs(f.shape, 0) if t == slot
                                             else f for t, f in enumerate(cert.witness.factors)])
    ket = witness.ket()
    if abs(np.vdot(ket, s1.projector @ ket).real - cert.max_overlap_found) > SYMMETRY_TOL:
        raise RuntimeError(f"{label}: the parity-conjugated witness misses S0's overlap")
    return replace(cert, subspace_label=label, witness=witness)


def check_certificate(cert: CECertificate, subspace: Subspace,
                      restarts: int | None = None, seed: int = 0) -> CECertificate:
    """Return `cert` if `certify_completely_entangled(subspace, restarts,
    seed)` would search with its restart count and seed, else raise
    ValueError. A certificate does not record its subspace: the caller vouches."""
    want = (default_restarts(subspace.dims) if restarts is None else restarts, seed)
    got = (cert.restarts, cert.seed)
    if got != want:
        raise ValueError(f"certificate searched with (restarts, seed) = {got}, "
                         f"not the {want} asked for")
    return cert


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def _grid_factors(dim: int, resolution: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Kets [start:stop] of a gauge-fixed grid over normalized states of one
    factor, in C order over its angles; stop is clipped to the grid's size.

    Magnitudes come from hyperspherical angles in [0, pi/2]; every amplitude
    after the first carries a phase in [0, 2*pi). The first amplitude is real
    and non-negative.
    """
    thetas = np.linspace(0.0, np.pi / 2, resolution + 1)
    phis = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    grids = [thetas] * (dim - 1) + [phis] * (dim - 1)
    shape = tuple(len(g) for g in grids)
    size = math.prod(shape)
    rows = np.arange(start, size if stop is None else min(stop, size))
    flat = [g[i] for g, i in zip(grids, np.unravel_index(rows, shape) if shape else ())]
    mags = np.zeros((len(rows), dim))
    running = np.ones(len(rows))
    for k in range(dim - 1):
        mags[:, k] = running * np.cos(flat[k])
        running = running * np.sin(flat[k])
    mags[:, dim - 1] = running
    out = mags.astype(complex)
    for k in range(1, dim):
        out[:, k] *= np.exp(1j * flat[dim - 1 + k - 1])
    return out


def _top_bound(x: np.ndarray, diagonal: np.ndarray, d: int) -> np.ndarray:
    """tr M/d + sqrt((d - 1)/d) |M - tr M/d|_F >= lambda_max(M), as the traceless
    part's eigenvalues sum to zero (exact on qubits), for each Hermitian M on d
    dimensions whose orthonormal real coordinates are a column of x; tr M = diagonal @ x."""
    trace = diagonal @ x
    spread = (d - 1) / d * (np.einsum("ij,ij->j", x, x) - trace ** 2 / d)
    return trace / d + np.sqrt(np.maximum(spread, 0.0))


def grid_product_overlap(subspace: Subspace, resolution: int) -> float:
    """Exhaustive product-overlap maximum over the gauge-fixed grid.

    Accuracy improves like O(1/resolution) for gradient-bounded objectives;
    this is a practical bound, not a proven tight one. Raises when the grid
    would be astronomically large; the alternating search has no such limit.

    <g|P|g> for a product g is P's real coefficient tensor
    (`_coefficient_tensor`) contracted with each party's rows
    U_d (conj(g_t) (x) g_t), one real matrix product per party; 1-dim
    parties are left out. The party with the most grid kets goes first, in
    blocks of at most 4,096 kets whose contraction holds at most
    GRID_CHUNK_VALUES values; the rest follow one by one. A prefix (one grid
    ket per party so far) whose `_top_bound` on the parties to come is more
    than GRID_PRUNE_SLACK below the floor is dropped. A dive down the
    top-bound prefixes, then each batch's top-bound last row, raise the floor
    to grid values; a block's kets go top bound first, in batches covering
    at most GRID_CHUNK_VALUES grid points. The last party's values go through
    a two-operand einsum, which sums each value on its own (a BLAS product
    does not), so the maximum is the full enumeration's to the bit.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    dims = subspace.dims
    sizes = [(resolution + 1) ** (d - 1) * resolution ** (d - 1) for d in dims]
    total = math.prod(sizes)
    if total > GRID_MAX_EVALS:
        raise ValueError(
            f"grid of {total} product states exceeds the {GRID_MAX_EVALS} evaluation "
            f"budget; use max_product_overlap (alternating search) instead")
    parties = [t for t, d in enumerate(dims) if d > 1] or [0]
    big = max(parties, key=sizes.__getitem__)
    order = [big, *(t for t in parties if t != big)]
    coeffs = _coefficient_tensor(subspace)[0].reshape([dims[t] ** 2 for t in parties]).transpose(
        [parties.index(t) for t in order]).reshape(-1, 1)
    # row n of a party's matrix is U_d (conj(g_n) (x) g_n) for its n-th grid ket
    grids = {dims[t]: _ket_coordinates(_grid_factors(dims[t], resolution)) for t in order[1:]}
    rest = [grids[dims[t]] for t in order[1:]]
    # tails[k]: `_top_bound`'s (diagonal, d) for the parties order[k + 1:] still to come
    tails = [(reduce(np.multiply.outer, [np.arange(dims[t] ** 2) < dims[t] for t in order[k:]])
              .ravel() * 1.0, math.prod(dims[t] for t in order[k:])) for k in range(1, len(order))]
    block = max(1, min(sizes[big], 4096, GRID_CHUNK_VALUES * dims[big] ** 2 // coeffs.size))
    batch = max(1, GRID_CHUNK_VALUES // (total // sizes[big]))
    best = floor = -np.inf
    for start in range(0, sizes[big], block):
        # a block of the whole first grid is an equal party's rows, built once
        first = (grids[dims[big]] if block == sizes[big] and dims[big] in grids else
                 _ket_coordinates(_grid_factors(dims[big], resolution, start, start + block)))
        last = np.ascontiguousarray((rest[-1] if rest else first).T)
        if not rest:
            best = float(np.max(np.einsum("zi,ij->zj", coeffs.T, last), initial=best))
            continue
        x = contract_factors(coeffs, [first]).reshape(len(tails[0][0]), -1)
        bound = _top_bound(x, *tails[0])
        # the dive's grid value is a floor: the prunes keep its prefixes and evaluate it again
        col = x[:, [np.argmax(bound)]]
        for m, (diagonal, d) in zip(rest[:-1], tails[1:]):
            col = contract_factors(col, [m]).reshape(len(diagonal), -1)
            col = col[:, [np.argmax(_top_bound(col, diagonal, d))]]
        floor = max(floor, np.einsum("zi,ij->zj", col.T, last).max())
        # the block's kets, top bound first, in batches of at most GRID_CHUNK_VALUES grid points
        picks = ([slice(None)] if x.shape[1] <= batch else
                 np.split(np.argsort(-bound, kind="stable"), range(batch, x.shape[1], batch)))
        for pick in picks:
            h, b, cut = x[:, pick], bound[pick], max(best, floor) - GRID_PRUNE_SLACK
            if b.max() < cut:
                break
            for m, (diagonal, d) in zip(rest[:-1], tails[1:]):
                h = contract_factors(h[:, b >= cut], [m]).reshape(len(diagonal), -1)
                b = _top_bound(h, diagonal, d)
            if len(rest) > 1 and b.size:  # the top row lifts the floor (the dive's, on 2 parties)
                floor = max(floor, np.einsum("zi,ij->zj", h.T[[np.argmax(b)]], last).max())
                cut = max(best, floor) - GRID_PRUNE_SLACK
            best = float(np.max(np.einsum("zi,ij->zj", h.T[b >= cut], last), initial=best))
    return best


# ---------------------------------------------------------------------------
# transpose / phase-conjugation symmetry checks
# ---------------------------------------------------------------------------

def symmetry_checks(s0: Subspace, s1: Subspace, slots: Sequence[int]) -> dict[str, float]:
    """Residuals of the transpose and phase-conjugation identities, keyed
    like `exact_symmetry_checks`' rows and in report order: transpose[l],
    the first slot's rows, orthogonality[l], then the other slots' rows.

    Checks, for complementary projectors P0, P1 and the parity phase
    D = diag(+1, -1, +1, ...) on each party slot i in `slots`:
      transpose:       P_l - P_l^T
      conjugation:     P_l - D^i P_{1-l} D^i
      orthogonality:   P_l^T P_{1-l}
      twist:           P_l^T D^i P_l D^i
    D^i is diagonal with the signs s = `linalg.parity_signs(dims, i)`, so
    D^i P D^i is P with entry (a, b) times s_a s_b, and X D^i is X with
    column b times s_b. Both are exact sign flips, and a trailing D^i does
    not change a max-norm, so the twist residual is that of (P_l^T with
    column b times s_b) P_l. Slots restrict which parties are tested (some
    constructions satisfy the conjugation identities only on one slot).
    """
    if s0.dims != s1.dims:
        raise ValueError(f"dims mismatch: {s0.dims} vs {s1.dims}")
    projs = {0: s0.projector, 1: s1.projector}
    # C-contiguous transposes, so each product is the same BLAS call as P^T P
    transposed = {ell: np.ascontiguousarray(p.T) for ell, p in projs.items()}

    def slot_rows(group: Sequence[int]) -> dict[str, float]:
        rows = {}
        for slot in group:
            s = parity_signs(s0.dims, slot)
            rows |= {f"conjugation[{ell}]@{slot}": max_abs(
                projs[ell] - s[:, None] * projs[1 - ell] * s) for ell in (0, 1)}
            rows |= {f"twist[{ell}]@{slot}": max_abs(
                (transposed[ell] * s) @ projs[ell]) for ell in (0, 1)}
        return rows

    return {**{f"transpose[{ell}]": max_abs(projs[ell] - transposed[ell]) for ell in (0, 1)},
            **slot_rows(slots[:1]),
            **{f"orthogonality[{ell}]": max_abs(transposed[ell] @ projs[1 - ell])
               for ell in (0, 1)},
            **slot_rows(slots[1:])}


# ---------------------------------------------------------------------------
# exact-arithmetic variant of the symmetry checks
# ---------------------------------------------------------------------------

def _sign_form_vanishes(left: ExactMatrix, v: ExactMatrix, signs: np.ndarray) -> bool:
    """Whether left diag(signs) v = 0 exactly, the signs applied to v's rows."""
    return exact_all_zero(exact_matmul(left, ExactMatrix(
        np.where(signs[:, None] < 0, -v.num, v.num))))


def exact_symmetry_checks(dims: Sequence[int],
                          exact_spanning: Sequence[ExactMatrix],
                          slots: Sequence[int]) -> dict[str, bool]:
    """Exact-field version of `symmetry_checks` for spans over Q(sqrt(2), i):
    every reported identity is an exact zero test, not a tolerance comparison.

    As P_l^T = conj(P_l), transpose[l] and orthogonality[l] each say
    conj(S0) = S0, conjugation[l]@u says S1 = D_u S0, and twist[l]@w says
    D_w S_l is orthogonal to conj(S_l). If S1 = D_b S0 for a party b
    (`parity_conjugate_slot` over all parties), N = D_b V spans S1, V the
    stacked spanning vectors, and every row is a k x k product: conj(S0) =
    S0 iff N^dag conj(V) = conj(V^T D_b V) = 0, conjugation@u is
    `parity_conjugate_slot`'s test on u, and twist@w is V^T D_w V = 0 for
    either l, as N^T D_w N = V^T D_w V; twist@b is the transpose row, and the
    in-order search for b decided conjugation@u for u <= b. That route takes
    k = dim S0, so the vectors must be independent, as `binary_projective_channel` demands.
    Otherwise no conjugation row holds, and the other rows are read off the
    exact projector.
    """
    signs = {slot: parity_signs(dims, slot) for slot in slots}
    found = parity_conjugate_slot(dims, exact_spanning, range(len(dims)))
    if found is None:
        p0 = exact_projector(exact_spanning)
        projs = (p0, ExactMatrix.eye(dim_of(dims)) - p0)
        transpose = [exact_all_zero(p - p.T) for p in projs]
        orthogonality = [exact_all_zero(exact_matmul(p.T, q)) for p, q in zip(projs, projs[::-1])]
        conjugation = dict.fromkeys(slots, False)
        twist = {slot: [exact_all_zero(exact_matmul(p.T, p.sign_conjugate(signs[slot])))
                        for p in projs] for slot in slots}
    else:
        v = ExactMatrix(np.concatenate([x.num for x in exact_spanning], axis=2))
        transpose = orthogonality = [_sign_form_vanishes(v.T, v, parity_signs(dims, found))] * 2
        conjugation = {u: u == found if u <= found else
                       _sign_form_vanishes(v.dagger(), v, signs[u]) for u in slots}
        twist = {u: [transpose[0] if u == found else _sign_form_vanishes(v.T, v, signs[u])] * 2
                 for u in slots}
    results: dict[str, bool] = {}
    for ell in (0, 1):
        results[f"transpose[{ell}]"] = transpose[ell]
        results[f"orthogonality[{ell}]"] = orthogonality[ell]
    for slot in slots:
        for ell in (0, 1):
            results[f"conjugation[{ell}]@{slot}"] = conjugation[slot]
            results[f"twist[{ell}]@{slot}"] = twist[slot][ell]
    return results
