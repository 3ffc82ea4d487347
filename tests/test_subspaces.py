import tracemalloc
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest

import zecap.subspaces
from conftest import (CONJUGATE_BUILTINS, SPEC_CASES, basis_ket, case_channel, gram_rank,
                      tensor)
from zecap.channels import (
    e21_spanning_terms,
    em1_spanning_terms,
    variant34_spanning_terms,
)
from zecap.exactnum import (
    Coeff,
    ExactMatrix,
    exact_all_zero,
    exact_matmul,
    exact_projector,
    exact_vector,
)
from zecap.cli import _GRID_RESOLUTIONS
from zecap.linalg import (
    contract_factors,
    dim_of,
    keyed_haar_kets,
    ket_from_terms,
    max_abs,
    max_entangled_ket,
    parity_signs,
)
from zecap.subspaces import (
    MAX_SWEEPS,
    PRODUCT_FOUND_TOL,
    SNAP_SET,
    SNAP_SWEEP,
    SWEEP_GAIN_TOL,
    Subspace,
    _closed_form_top,
    _coefficient_tensor,
    _grid_factors,
    _hermitian_coordinates,
    _ket_coordinates,
    _ket_from_coordinates,
    _slot_rows,
    _slot_step,
    _slot_tables,
    certify_completely_entangled,
    conjugated_certificate,
    exact_symmetry_checks,
    grid_product_overlap,
    max_product_overlap,
    parity_conjugate_slot,
    symmetry_checks,
)
from zecap.specio import make_builtin

# frozen from oracle runs during development (alternating search cross-checked
# against the exhaustive grid; the constructions give no analytic values)
E21_MAX_OVERLAP = 0.9748614
V34_MAX_OVERLAP = 0.9929157
EM13_MAX_OVERLAP = (2 + np.sqrt(2)) / 4       # 0.8535533905932737, matches search
EM14_MAX_OVERLAP = 7 / 8


def subspace_from_terms(dims, term_lists):
    total = int(np.prod(dims))
    span = [ket_from_terms([total], [(i, complex(c)) for i, c in t])
            for t in term_lists]
    return Subspace.from_span(dims, span)


@pytest.fixture(scope="module")
def s0_e21():
    return subspace_from_terms([4, 4], e21_spanning_terms())


@pytest.fixture(scope="module")
def s0_v34():
    return subspace_from_terms([3, 4], variant34_spanning_terms())


def test_build_subspace_dimension_oracle(s0_e21):
    raw = [ket_from_terms([16], [(i, complex(c)) for i, c in t])
           for t in e21_spanning_terms()]
    assert gram_rank(raw) == 8
    assert s0_e21.dim == 8


def test_build_subspace_em1_m3_dimension():
    sub = subspace_from_terms([2, 2, 2], em1_spanning_terms(3))
    raw = [ket_from_terms([8], [(i, complex(c)) for i, c in t])
           for t in em1_spanning_terms(3)]
    assert gram_rank(raw) == 4
    assert sub.dim == 4


def test_build_subspace_variant_dimension(s0_v34):
    raw = [ket_from_terms([12], [(i, complex(c)) for i, c in t])
           for t in variant34_spanning_terms()]
    assert gram_rank(raw) == 6
    assert s0_v34.dim == 6


def test_build_subspace_length_mismatch():
    with pytest.raises(ValueError):
        Subspace.from_span([2, 2], [np.zeros(5)])


def test_subspace_arrays_are_write_protected(s0_e21):
    with pytest.raises(ValueError):
        s0_e21.projector[0, 0] = 1.0
    with pytest.raises(ValueError):
        s0_e21.basis[0, 0] = 1.0


def test_complement_single_vector():
    sub = Subspace.from_span([2], [basis_ket([2], 0)])
    comp = sub.complement()
    assert comp.dim == 1
    assert max_abs(comp.projector - np.diag([0.0, 1.0])) < 1e-12


def test_complement_contains_maximally_entangled(s0_e21):
    s1 = s0_e21.complement()
    assert s1.dim == 8
    phi = max_entangled_ket(4)
    # every basis vector of the span is orthogonal to |Phi>
    assert max_abs(s0_e21.basis @ phi.conj()) < 1e-12
    assert max_abs(s1.projector @ phi - phi) < 1e-10


def test_complement_involution(s0_e21):
    back = s0_e21.complement().complement()
    assert max_abs(back.projector - s0_e21.projector) < 1e-10


def test_projector_trace_and_orthogonality(s0_e21):
    s1 = s0_e21.complement()
    assert abs(np.trace(s0_e21.projector).real - s0_e21.dim) < 1e-9
    assert max_abs(s0_e21.projector @ s1.projector) < 1e-10
    assert max_abs(s0_e21.projector + s1.projector - np.eye(16)) < 1e-10


# ---------------------------------------------------------------------------
# product-state search
# ---------------------------------------------------------------------------

def test_full_space_gives_overlap_one():
    full = Subspace.from_span([2, 2], [basis_ket([2, 2], i) for i in range(4)])
    cand = max_product_overlap(full, restarts=5, seed=0)
    assert cand.overlap > 1 - 1e-9


def test_one_party_subspace_is_all_product_states():
    # a single party has no others to contract with: every state of the
    # span is a product state, found with overlap 1 in the first sweep
    sub = Subspace.from_span([4], [basis_ket([4], 0), basis_ket([4], 1)])
    cand = max_product_overlap(sub, restarts=5, seed=0)
    assert abs(cand.overlap - 1.0) < 1e-12
    assert cand.converged and cand.sweeps == 2
    assert abs(np.vdot(cand.ket(), sub.projector @ cand.ket()).real - 1.0) < 1e-12
    assert certify_completely_entangled(sub, seed=0).verdict == "product-state-found"


def test_single_entangled_state_overlap_half():
    sub = Subspace.from_span([2, 2], [max_entangled_ket(2)])
    cand = max_product_overlap(sub, restarts=50, seed=0)
    assert abs(cand.overlap - 0.5) < 1e-9
    grid = grid_product_overlap(sub, resolution=50)
    assert abs(grid - 0.5) < 0.02


def test_witness_overlap_consistent(s0_e21):
    cand = max_product_overlap(s0_e21, restarts=20, seed=1)
    prod = cand.ket()
    direct = float(np.real(np.vdot(prod, s0_e21.projector @ prod)))
    assert abs(direct - cand.overlap) < 1e-9


def test_restart_zero_rejected(s0_e21):
    with pytest.raises(ValueError):
        max_product_overlap(s0_e21, restarts=0)


def test_negative_seed_rejected(s0_e21):
    with pytest.raises(ValueError, match="non-negative"):
        max_product_overlap(s0_e21, restarts=3, seed=-1)


def test_seesaw_deterministic_given_seed(s0_e21):
    a = max_product_overlap(s0_e21, restarts=25, seed=9)
    b = max_product_overlap(s0_e21, restarts=25, seed=9)
    assert a.overlap == b.overlap
    assert a.restart_index == b.restart_index


def test_e21_overlap_frozen_value(s0_e21):
    cand = max_product_overlap(s0_e21, restarts=300, seed=11)
    assert abs(cand.overlap - E21_MAX_OVERLAP) < 1e-5
    assert cand.overlap < 1 - 1e-3


def test_e21_complement_same_overlap(s0_e21):
    # the phase-conjugation symmetry maps product states to product states,
    # so both halves have the same maximum product overlap
    s1 = s0_e21.complement()
    c0 = max_product_overlap(s0_e21, restarts=120, seed=2)
    c1 = max_product_overlap(s1, restarts=120, seed=2)
    assert abs(c0.overlap - c1.overlap) < 1e-6


def test_em1_m3_overlap_and_grid_cross_check():
    sub = subspace_from_terms([2, 2, 2], em1_spanning_terms(3))
    cand = max_product_overlap(sub, restarts=120, seed=5)
    assert abs(cand.overlap - EM13_MAX_OVERLAP) < 1e-7
    grid = grid_product_overlap(sub, resolution=14)
    assert cand.overlap >= grid - 1e-9
    assert abs(grid - cand.overlap) < 0.05


def test_em1_m2_contains_complex_product_state():
    # the two-qubit instance of the family is NOT completely entangled:
    # (|0> - i|1>) x (|0> + i|1>) lies in the span
    sub = subspace_from_terms([2, 2], em1_spanning_terms(2))
    explicit = tensor(np.array([1.0, -1.0j]) / np.sqrt(2),
                      np.array([1.0, 1.0j]) / np.sqrt(2))
    overlap = float(np.real(np.vdot(explicit, sub.projector @ explicit)))
    assert abs(overlap - 1.0) < 1e-12
    cert = certify_completely_entangled(sub, restarts=60, seed=0, label="em1(2)/S0")
    assert cert.verdict == "product-state-found"


def test_certify_e21_subspaces(s0_e21):
    cert = certify_completely_entangled(s0_e21, restarts=150, seed=0, label="S0")
    assert cert.verdict == "certified-CE"
    assert cert.certified
    cert1 = certify_completely_entangled(s0_e21.complement(), restarts=150,
                                         seed=1, label="S1")
    assert cert1.verdict == "certified-CE"


def test_certify_detects_explicit_product_basis_vector():
    sub = Subspace.from_span([2, 2], [basis_ket([2, 2], 0),
                                      (basis_ket([2, 2], 1) + basis_ket([2, 2], 2))])
    cert = certify_completely_entangled(sub, restarts=40, seed=0)
    assert cert.verdict == "product-state-found"
    assert cert.max_overlap_found >= 1 - 1e-6


def test_certify_inconclusive_below_min_restarts(s0_e21):
    cert = certify_completely_entangled(s0_e21, restarts=3, seed=0)
    assert cert.verdict == "inconclusive"


def test_em1_m4_search_keeps_its_winner_while_retiring_stragglers():
    # every restart creeps toward the degenerate maximum 7/8; at SNAP_SWEEP
    # the leader's snapped point reaches it, every snapped restart there is
    # a fixed point of the ascent and stops, and the rest are retired
    sub = subspace_from_terms([2] * 4, em1_spanning_terms(4))
    cand = max_product_overlap(sub, restarts=100, seed=0)
    assert abs(cand.overlap - EM14_MAX_OVERLAP) <= 1e-12
    assert cand.sweeps == SNAP_SWEEP
    assert cand.converged and cand.snapped
    assert cand.retired > 0
    # the qubit factors are read back from their projector coordinates
    x = cand.ket()
    assert abs(np.vdot(x, sub.projector @ x).real - cand.overlap) < 1e-12
    cert = certify_completely_entangled(sub, restarts=100, seed=0)
    assert cert.verdict == "certified-CE"
    assert (cert.witness.snapped, cert.witness.retired) == (True, cand.retired)


def test_a_restart_does_not_depend_on_the_batch_it_runs_in(em14):
    # restart 0 wins at this seed and its seven rivals are retired on the way,
    # so it runs in batches of 8 down to 1; it must match, to the last bit,
    # the search that held it alone from the first sweep
    sub = em14.payload.s0
    batched = max_product_overlap(sub, restarts=8, seed=5)
    alone = max_product_overlap(sub, restarts=1, seed=5)
    assert batched.restart_index == 0 and batched.retired > 0
    assert (batched.overlap, batched.sweeps) == (alone.overlap, alone.sweeps)
    for a, b in zip(batched.factors, alone.factors):
        assert np.array_equal(a, b)


def _reference_qubit_step(h):
    # the closed-form qubit step as first written: the flat-row mask is
    # always formed and always assigned
    a = 0.5 * (h[:, 0] - h[:, 1])
    r = np.hypot(a, np.sqrt(0.5) * np.hypot(h[:, 2], h[:, 3]))
    flat = r == 0
    s = 0.5 / np.where(flat, 1.0, r)
    x = h * s[:, None]
    x[:, 0] = 0.5 + a * s
    x[:, 1] = 0.5 - a * s
    x[flat] = (1.0, 0.0, 0.0, 0.0)
    return 0.5 * (h[:, 0] + h[:, 1]) + r, x


def _row_kron(a, b):
    """Row-wise Kronecker product: row n is a[n] (x) b[n]."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _reference_sweep(live, dims, mats, cur):
    for slot, (d, mat) in enumerate(zip(dims, mats)):
        others = [x for t, x in enumerate(live) if t != slot]
        rows = reduce(_row_kron, others) if others else np.ones((len(cur), 1))
        h = np.einsum("zi,ij->zj", rows, mat)
        new, live[slot] = _reference_qubit_step(h) if d == 2 else _slot_step(h, d)
        if float(np.min(new - cur)) < -1e-9:
            raise RuntimeError("alternating maximization decreased")
        cur = new
    return cur


def _reference_snap(rows, dims, units, mats):
    """One restart's rows snapped entry by entry, and their overlap."""
    snapped = []
    for x, d, u in zip(rows, dims, units):
        k = int(np.argmax(x[0, :d]))
        col = np.einsum("zi,ij->zj", x, u)[0].reshape(d, d)[:, k] / np.sqrt(x[0, k])
        f = np.array([min(SNAP_SET, key=lambda s: abs(e - s)) for e in col])
        norm = np.sqrt(sum(e.real ** 2 + e.imag ** 2 for e in f))
        snapped.append(_ket_coordinates(f[None] / norm))
    h = np.einsum("zi,ij->zj", reduce(_row_kron, snapped[:-1]), mats[-1])
    return snapped, sum(h[0] * snapped[-1][0])


def _reference_search(sub, restarts, seed, snap_sweep=SNAP_SWEEP):
    """The alternating search's sweep loop as first written, which writes
    every row back, compacts and tests retirement after every sweep, and
    snaps one restart at a time (no snap with `snap_sweep` None). Returns its
    candidate fields, the factors, and whether the last running restart was
    ever not the leader."""
    dims = sub.dims
    coeffs, units = _coefficient_tensor(sub)
    mats = [np.moveaxis(coeffs, s, -1).reshape(-1, d * d) for s, d in enumerate(dims)]
    coords = [_ket_coordinates(f) for f in keyed_haar_kets(dims, restarts, [seed])]
    live = list(coords)
    obj = np.zeros(restarts)
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    snapped = np.zeros(restarts, dtype=bool)
    retired, straggler = 0, False
    alive = np.arange(restarts)
    for sweep in range(1, MAX_SWEEPS + 1):
        prev_sweep = obj[alive]
        cur = _reference_sweep(live, dims, mats, prev_sweep)
        obj[alive] = cur
        sweeps[alive] = sweep
        gain = cur - prev_sweep
        running = gain >= SWEEP_GAIN_TOL
        if sweep == snap_sweep:
            top = int(np.argmax(cur))
            if _reference_snap([x[[top]] for x in live], dims, units, mats)[1] >= cur[top]:
                for z in range(len(alive)):
                    rows, v = _reference_snap([x[[z]] for x in live], dims, units, mats)
                    if v >= cur[z] and _reference_sweep(
                            list(rows), dims, mats, np.array([v]))[0] - v < SWEEP_GAIN_TOL:
                        for x, y in zip(live, rows):
                            x[z] = y[0]
                        obj[alive[z]], snapped[alive[z]] = v, True
                running &= ~snapped[alive]
        converged[alive[~running]] = True
        leader = int(np.argmax(obj))
        best = obj[leader]
        retire = running & (alive != leader) & (
            (cur + gain * (MAX_SWEEPS - sweep) < best)
            | (best - cur <= PRODUCT_FOUND_TOL))
        retired += int(np.count_nonzero(retire))
        keep = running & ~retire
        for x, y in zip(coords, live):
            x[alive] = y
        live = [y[keep] for y in live]
        alive = alive[keep]
        straggler |= bool(alive.size == 1 and alive[0] != leader)
        if alive.size == 0:
            break
    b = int(np.argmax(obj))
    fields = (float(obj[b]), b, int(sweeps[b]), bool(converged[b]), retired, bool(snapped[b]))
    factors = [_ket_from_coordinates(x[b], d, u) for x, d, u in zip(coords, dims, units)]
    return fields, factors, straggler


def _fields(cand):
    return (cand.overlap, cand.restart_index, cand.sweeps, cand.converged, cand.retired,
            cand.snapped)


def _locally_rotated(sub, seed):
    """sub under a fixed random unitary on each party: the same product overlaps."""
    rng = np.random.default_rng(seed)
    u = reduce(np.kron, [np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                         for d in sub.dims])
    return Subspace.from_span(sub.dims, list(sub.basis @ u.T))


def test_the_sweep_loop_matches_its_reference_bit_for_bit(em14):
    # random spans of 1, 2 and 3 vectors and of half the space, em1:4, whose
    # restarts stop at their snapped point, and em1:4 under a random local
    # unitary, whose maximum 7/8 is at no snap point, so its restarts run to
    # MAX_SWEEPS; the loop writes rows back and tests retirement only when it
    # must, snaps all its restarts at once, and every field and factor keeps
    # its bits
    subs = [em14.payload.s0, _locally_rotated(em14.payload.s0, 7)]
    for dims in ([2, 2, 2, 2], [2, 3, 2], [4, 4], [3, 4]):
        total = dim_of(dims)
        for k in (1, 2, 3, total // 2):
            rng = np.random.default_rng([k, total])
            subs.append(Subspace.from_span(dims, list(
                rng.normal(size=(k, total)) + 1j * rng.normal(size=(k, total)))))
    # slot matrices with zero rows: 32 of em1:5's 256 rows are kept, 12 of e21's 16
    subs += [make_builtin("em1:5").payload.s0, make_builtin("e21").payload.s0]
    stragglers = capped = snaps = 0
    for sub in subs:
        for restarts, seed in ((1, 0), (7, 3), (30, 11)):
            fields, factors, straggler = _reference_search(sub, restarts, seed)
            cand = max_product_overlap(sub, restarts=restarts, seed=seed)
            assert _fields(cand) == fields
            for a, b in zip(cand.factors, factors):
                assert a.tobytes() == b.tobytes()
            stragglers += straggler
            capped += cand.sweeps == MAX_SWEEPS
            snaps += cand.snapped
    # the last running restart was not the leader in some searches, some
    # winners were still running at MAX_SWEEPS, and some stopped snapped
    assert stragglers > 0 and capped > 0 and snaps > 0


def _random_span(dims, k):
    total = dim_of(dims)
    rng = np.random.default_rng([k, total, len(dims)])
    return Subspace.from_span(dims, list(rng.normal(size=(k, total))
                                         + 1j * rng.normal(size=(k, total))))


def _assert_slot_products_are_the_dense_chain(sub):
    """Each slot's kept rows times its kept matrix against the row-wise
    Kronecker chain of the other parties times the whole matrix, both as
    two-operand einsums, on keyed random rows at n = 1, 2 and 1000."""
    dims = sub.dims
    coeffs = _coefficient_tensor(sub)[0]
    for slot, (d, table) in enumerate(zip(dims, _slot_tables(coeffs, dims))):
        full = np.moveaxis(coeffs, slot, -1).reshape(-1, d * d)
        for n in (1, 2, 1000):
            rows = [_ket_coordinates(f) for f in keyed_haar_kets(dims, n, [slot, n])]
            others = [x for t, x in enumerate(rows) if t != slot]
            dense = reduce(_row_kron, others) if others else np.ones((n, 1))
            got = np.einsum("zi,ij->zj", _slot_rows(others, table, n), table[1])
            # tobytes, so that the sign of a zero counts too
            assert got.tobytes() == np.einsum("zi,ij->zj", dense, full).tobytes()


@pytest.mark.parametrize("case", ["e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5",
                                  "em1:6", *SPEC_CASES])
def test_the_slot_product_is_the_dense_chain_bit_for_bit(case):
    pl = case_channel(case).payload
    for sub in [pl.s0, pl.s1] + ([pl.s0.complement()] if len(pl.s0.dims) == 2 else []):
        _assert_slot_products_are_the_dense_chain(sub)


def test_the_slot_product_on_a_1_dim_party_and_the_empty_subspace():
    # em1:3 with a 1-dim party inserted: that slot's single column keeps 12 of its 64 rows
    padded = Subspace.from_span([2, 1, 2, 2], list(make_builtin("em1:3").payload.s0.basis))
    for sub in (_random_span([2, 1, 2], 1), _random_span([2, 1, 2], 2), padded):
        _assert_slot_products_are_the_dense_chain(sub)
    assert len(_slot_tables(_coefficient_tensor(padded)[0], padded.dims)[1][1]) == 12
    fields, factors, _ = _reference_search(padded, 30, 11)
    cand = max_product_overlap(padded, restarts=30, seed=11)
    assert _fields(cand) == fields
    for a, b in zip(cand.factors, factors):
        assert a.tobytes() == b.tobytes()
    for dims in ([2, 2, 2], [4, 4], [3, 4], [2, 1, 2], [3]):
        empty = Subspace.from_span(dims, [])
        _assert_slot_products_are_the_dense_chain(empty)
        # every row is zero: the kept rows are (n, 0) and the overlap stays 0
        assert all(len(m) == 0 for _, m in _slot_tables(_coefficient_tensor(empty)[0], dims))
        fields, factors, _ = _reference_search(empty, 7, 3)
        cand = max_product_overlap(empty, restarts=7, seed=3)
        assert cand.overlap == 0.0 and _fields(cand) == fields
        for a, b in zip(cand.factors, factors):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_an_em1_slot_keeps_2_to_the_m_of_its_rows(m):
    sub = make_builtin(f"em1:{m}").payload.s0
    for index, mat in _slot_tables(_coefficient_tensor(sub)[0], sub.dims):
        assert mat.shape == (2 ** m, 4) and all(len(i) == 2 ** m for i in index)


@pytest.mark.parametrize("builtin", ["e21", "variant34"])
def test_a_slot_with_no_zero_row_multiplies_a_view_of_the_other_party(builtin):
    # renyi-gap's complement searches: every row of both slot matrices is kept
    sub = make_builtin(builtin).payload.s0.complement()
    coeffs = _coefficient_tensor(sub)[0]
    rows = [_ket_coordinates(f) for f in keyed_haar_kets(sub.dims, 5, [0])]
    for slot, table in enumerate(_slot_tables(coeffs, sub.dims)):
        other = rows[1 - slot]
        assert table[0] == [slice(None)] and len(table[1]) == other.shape[1]
        got = _slot_rows([other], table, 5)
        assert np.shares_memory(got, other) and got.shape == other.shape


@pytest.mark.parametrize("k", [1, 12, 16, 256])
def test_the_slot_einsum_adds_each_row_in_order(k):
    # the sum a slot step takes is the sequential one, a separate multiply
    # and add per term from +0, so dropping terms that are exact zeros
    # leaves every bit of it
    rng = np.random.default_rng(k)
    for n in (1, 2, 1000):
        rows, mat = rng.normal(size=(n, k)), rng.normal(size=(k, 16))
        mat[rng.random(size=mat.shape) < 0.5] = 0.0
        acc = np.zeros((n, 16))
        for i in range(k):
            acc = acc + rows[:, i, None] * mat[i]
        assert np.einsum("zi,ij->zj", rows, mat).tobytes() == acc.tobytes()


# (exact maximum, restarts, seeds of 0-15 whose winner stops at its snapped point)
EM1_MAXIMA = {"em1:3": (EM13_MAX_OVERLAP, 100, 0), "em1:4": (EM14_MAX_OVERLAP, 100, 16),
              "em1:5": (15 / 16, 200, 15), "em1:6": (31 / 32, 200, 0)}


@pytest.mark.parametrize("builtin", EM1_MAXIMA)
def test_em1_searches_reach_the_exact_maximum(builtin, monkeypatch):
    # em1:3 and em1:6 converge before SNAP_SWEEP; em1:4 and em1:5 stop at
    # their snapped point, except em1:5 at seed 15, where every restart has
    # stopped by then; the snap never lowers the unsnapped loop's value
    exact, restarts, snaps = EM1_MAXIMA[builtin]
    sub = make_builtin(builtin).payload.s0
    found = [max_product_overlap(sub, restarts=restarts, seed=seed) for seed in range(16)]
    assert sum(cand.snapped for cand in found) == snaps
    monkeypatch.setattr(zecap.subspaces, "SNAP_SWEEP", MAX_SWEEPS + 1)
    for seed, cand in enumerate(found):
        assert abs(cand.overlap - exact) <= 1e-12
        assert cand.overlap >= max_product_overlap(sub, restarts=restarts, seed=seed).overlap


@pytest.mark.parametrize("builtin", ["e21", "variant34"])
def test_bipartite_searches_are_the_unsnapped_loop_bit_for_bit(builtin):
    # the leader's snapped point lowers its overlap, so no restart is snapped
    pl = make_builtin(builtin).payload
    for sub in (pl.s0, pl.s1):
        for seed in range(4):
            fields, factors, _ = _reference_search(sub, 1000, seed, snap_sweep=None)
            cand = max_product_overlap(sub, restarts=1000, seed=seed)
            assert _fields(cand) == fields
            for a, b in zip(cand.factors, factors):
                assert a.tobytes() == b.tobytes()


def test_the_qubit_step_matches_its_reference_with_flat_rows():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, 4))
    h[[1, 4]] = (0.25, 0.25, 0.0, 0.0)          # multiples of the identity
    for rows in (h, h[[0, 2]], h[[1]]):
        for got, want in zip(_slot_step(rows, 2), _reference_qubit_step(rows)):
            assert got.tobytes() == want.tobytes()


def test_search_on_unequal_party_dimensions():
    # each slot's shared matrix takes that party's (out, in) pair from among
    # parties of dimension 2, 3 and 2
    rng = np.random.default_rng(4)
    span = [rng.normal(size=12) + 1j * rng.normal(size=12) for _ in range(3)]
    sub = Subspace.from_span([2, 3, 2], span)
    cand = max_product_overlap(sub, restarts=40, seed=0)
    assert [f.shape for f in cand.factors] == [(2,), (3,), (2,)]
    x = cand.ket()
    assert abs(np.vdot(x, sub.projector @ x).real - cand.overlap) < 1e-12
    assert cand.overlap >= grid_product_overlap(sub, resolution=5) - 1e-9


def _operator_coordinates(m):
    # the real coordinates h of a stack of d x d Hermitian m with h @ U_d = m
    d = m.shape[-1]
    return np.einsum("ij,zj->zi", _hermitian_coordinates(d).conj(), m.reshape(-1, d * d)).real


def test_qubit_step_matches_eigh():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    m = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
    lam, x = _slot_step(_operator_coordinates(m), 2)
    w, v = np.linalg.eigh(m)
    assert np.max(np.abs(lam - w[:, -1])) < 1e-14
    assert np.max(np.abs(x - _ket_coordinates(v[..., -1]))) < 1e-12


@pytest.mark.parametrize("h", [
    (0.3, 0.3, 0.0, 0.0),               # m = c I: every unit ket is a top eigenvector
    (1.0, 1.0, 1e-160, 0.0),            # off-diagonal entry whose square underflows
    (1.0, 1.0 - 2e-16, 0.0, 3e-17),     # degenerate up to rounding
    (1.0, np.nextafter(1.0, 0.0), 0.0, 0.0),    # (h0 + h1)/2 rounds to h0
    (2.0, 1.0, 1e-300, -1e-300),        # diagonal up to a subnormal-scale entry
])
def test_qubit_step_gives_a_unit_projector_near_degeneracy(h):
    h = np.array([h])
    lam, x = _slot_step(h, 2)
    assert np.all(np.isfinite(x)) and np.isfinite(lam[0])
    assert abs(x[0, 0] + x[0, 1] - 1) < 1e-12            # unit trace
    assert abs(np.sum(x[0] ** 2) - 1) < 1e-12            # tr P^2 = 1: rank one
    assert abs(x[0] @ h[0] - lam[0]) < 1e-12             # tr(P m) is the eigenvalue
    assert lam[0] >= max(h[0, 0], h[0, 1]) - 1e-15


def test_qubit_search_runs_no_eigh(em14, monkeypatch):
    sub = em14.payload.s0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    cand = max_product_overlap(sub, restarts=20, seed=3)
    assert calls == []
    x = cand.ket()
    assert abs(np.vdot(x, sub.projector @ x).real - cand.overlap) < 1e-12


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _random_operators(kind, d, n=400):
    """A seeded stack of n Hermitian d x d operators of the named kind."""
    rng = np.random.default_rng([d, len(kind)])
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    if kind == "hermitian":
        return 0.5 * (g + _dagger(g))
    if kind == "psd":
        return g @ _dagger(g)
    if kind == "real":
        return (g + _dagger(g)).real.astype(complex)
    if kind in ("rank1", "rank2"):
        k = g[..., :int(kind[-1])]
        return k @ _dagger(k)
    m = np.zeros((n, d, d), dtype=complex)
    m[:, range(d), range(d)] = rng.normal(size=(n, d))
    return m


KINDS = ("hermitian", "psd", "real", "rank1", "rank2", "diagonal")


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_step_matches_eigh(kind, d):
    # far from unit scale, where q(B) or its norm leaves the float range, the
    # closed form may refuse every row but must accept no wrong one
    for factor in (1.0, 1e60, 1e-60, 1e100, 1e-100):
        m = factor * _random_operators(kind, d)
        h = _operator_coordinates(m)
        w, v = np.linalg.eigh(m)
        scale = np.abs(m).reshape(len(m), -1).max(axis=1)
        wide = w[:, -1] - w[:, -2] >= 1e-6 * scale
        lam, x, ok = _closed_form_top(h, d)
        assert ok.mean() >= 0.99 or factor != 1.0      # eigh takes the rest
        assert np.all(np.abs(lam - w[:, -1])[ok] <= 1e-14 * scale[ok])
        assert np.all(np.abs(x - _ket_coordinates(v[..., -1]))[ok & wide] < 1e-12)
        lam, x = _slot_step(h, d)
        assert np.all(np.abs(lam - w[:, -1]) <= 1e-14 * scale)
        assert np.max(np.abs(x - _ket_coordinates(v[..., -1]))[wide]) < 1e-12


def _near_degenerate(case, d):
    rng = np.random.default_rng(d)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    if case == "identity":
        return 0.3 * np.eye(d)
    if case == "zero":
        return np.zeros((d, d))
    if case in ("double-top", "close-top"):
        top = 1.0 if case == "double-top" else 1.0 - 1e-9
        return u @ np.diag([1.0, top, 0.5, 0.2][:d]) @ u.conj().T
    m = np.diag([2.0, 1.0, 0.5, 0.2][:d]).astype(complex)
    tiny = {"subnormal": 1e-310, "underflow": 1e-160}[case]
    m[0, 1], m[1, 0] = tiny * (1 - 1j), tiny * (1 + 1j)
    return m


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("case", ["identity", "zero", "double-top", "close-top", "subnormal",
                                  "underflow"])
def test_closed_form_step_gives_a_unit_projector_near_degeneracy(case, d):
    m = _near_degenerate(case, d)
    h = _operator_coordinates(m[None])
    lam, x = _slot_step(h, d)
    assert np.all(np.isfinite(x)) and np.isfinite(lam[0])
    assert abs(np.sum(x[0, :d]) - 1) < 1e-12             # unit trace
    assert abs(np.sum(x[0] ** 2) - 1) < 1e-12            # tr P^2 = 1: rank one
    assert abs(x[0] @ h[0] - lam[0]) < 1e-12             # tr(P m) is the eigenvalue
    assert abs(lam[0] - np.linalg.eigvalsh(m)[-1]) < 1e-14 * max(1.0, np.abs(m).max())


@pytest.mark.parametrize("d", [3, 4])
def test_a_closed_form_row_does_not_depend_on_its_batch(d):
    # rows of every kind, flat ones and a degenerate top among them, so that
    # some go to eigh, and a small close-top row that eigh takes only when
    # its residual is judged on its own scale; each row keeps its bits alone
    m = np.concatenate([_random_operators(kind, d, 20) for kind in KINDS]
                       + [_near_degenerate(c, d)[None] for c in ("identity", "double-top")]
                       + [1e-4 * _near_degenerate("close-top", d)[None]])
    h = _operator_coordinates(m)
    lam, x = _slot_step(h, d)
    assert not _closed_form_top(h, d)[2].all()
    for rows in ([[z] for z in range(len(h))]
                 + [list(range(z, len(h), 9)) for z in (0, 7, len(h) - 2)]):
        got_lam, got_x = _slot_step(h[rows], d)
        assert got_lam.tobytes() == lam[rows].tobytes()
        assert got_x.tobytes() == x[rows].tobytes()


def _searched_slot_operators(sub, monkeypatch):
    """The slot operators (h, d) of a 1000-restart search of sub at seed 0,
    one list per sweep."""
    calls, snapped_rows = [], []
    step, snap = zecap.subspaces._slot_step, zecap.subspaces._snap
    monkeypatch.setattr(zecap.subspaces, "_slot_step",
                        lambda h, d: calls.append((h.copy(), d)) or step(h, d))
    monkeypatch.setattr(zecap.subspaces, "_snap",
                        lambda rows, *a: snapped_rows.append(len(rows[0])) or snap(rows, *a))
    max_product_overlap(sub, restarts=1000, seed=0)
    # only the leader was snapped, so no sweep from snapped rows is among the calls
    assert snapped_rows == [1]
    return [calls[k:k + len(sub.dims)] for k in range(0, len(calls), len(sub.dims))]


@pytest.mark.parametrize("builtin", ["e21", "variant34"])
def test_the_closed_form_step_on_searched_slot_operators(builtin, monkeypatch):
    # the operators renyi-gap's complement search meets at sweeps 1, 3 and the
    # last: accepted rows match eigh, and each row alone keeps its bits
    sweeps = _searched_slot_operators(make_builtin(builtin).payload.s0.complement(), monkeypatch)
    for h, d in sweeps[0] + sweeps[2] + sweeps[-1]:
        m = (h @ _hermitian_coordinates(d)).reshape(-1, d, d)
        scale = np.abs(m).reshape(len(m), -1).max(axis=1)
        lam, x, ok = _closed_form_top(h, d)
        assert ok.mean() >= 0.99
        assert np.all(np.abs(lam - np.linalg.eigvalsh(m)[:, -1])[ok] <= 1e-14 * scale[ok])
        for z in range(len(h)):
            got_lam, got_x, got_ok = _closed_form_top(h[[z]], d)
            assert got_lam.tobytes() == lam[[z]].tobytes() and got_ok[0] == ok[z]
            assert got_x.tobytes() == x[[z]].tobytes()


@pytest.mark.parametrize("builtin,seed", [("e21", 6), ("variant34", 14)])
def test_a_restart_on_3_and_4_dim_slots_does_not_depend_on_its_batch(builtin, seed):
    # restart 0 wins at this seed and its seven rivals are retired on the way
    sub = make_builtin(builtin).payload.s0
    batched = max_product_overlap(sub, restarts=8, seed=seed)
    alone = max_product_overlap(sub, restarts=1, seed=seed)
    assert batched.restart_index == 0 and batched.retired > 0
    assert (batched.overlap, batched.sweeps) == (alone.overlap, alone.sweeps)
    for a, b in zip(batched.factors, alone.factors):
        assert np.array_equal(a, b)


# the winners of the 1000-restart bipartite searches at seeds 0-3, frozen before
# the 3- and 4-dim slot step was rewritten: (restart_index, sweeps, retired,
# converged, snapped, overlap); C is S0's complement, searched by renyi-gap
BIPARTITE_WINNERS = {
    ("e21", "S0"): [(717, 12, 999, True, False, 0.9748613913550969),
                    (780, 11, 999, True, False, 0.9748613913549855),
                    (947, 12, 999, True, False, 0.9748613913549968),
                    (537, 12, 999, True, False, 0.9748613913550738)],
    ("e21", "C"): [(717, 12, 999, True, False, 0.9748613913550974),
                   (780, 11, 999, True, False, 0.9748613913549857),
                   (947, 12, 999, True, False, 0.9748613913549973),
                   (537, 12, 999, True, False, 0.9748613913550747)],
    ("variant34", "S0"): [(945, 9, 999, True, False, 0.9929156928220854),
                          (906, 10, 999, True, False, 0.9929156928221077),
                          (817, 10, 999, True, False, 0.9929156928221164),
                          (824, 10, 999, True, False, 0.9929156928220941)],
    ("variant34", "C"): [(825, 10, 999, True, False, 0.9929156928221102),
                         (700, 9, 999, True, False, 0.9929156928221168),
                         (198, 9, 999, True, False, 0.9929156928220974),
                         (947, 9, 999, True, False, 0.9929156928220992)],
}


@pytest.mark.parametrize("builtin,which", list(BIPARTITE_WINNERS))
def test_the_bipartite_winners_are_pinned(builtin, which):
    s0 = make_builtin(builtin).payload.s0
    sub = s0 if which == "S0" else s0.complement()
    for seed, (*fields, overlap) in enumerate(BIPARTITE_WINNERS[builtin, which]):
        cand = max_product_overlap(sub, restarts=1000, seed=seed)
        assert [cand.restart_index, cand.sweeps, cand.retired, cand.converged,
                cand.snapped] == fields, seed
        assert abs(cand.overlap - overlap) <= 1e-13, seed


def test_a_qutrit_search_sends_no_row_to_eigh(s0_v34, monkeypatch):
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *r, **k: shapes.append(a.shape) or eigh(a, *r, **k))
    cand = max_product_overlap(s0_v34, seed=0)
    assert all(s[-1] != 3 for s in shapes)
    assert abs(cand.overlap - V34_MAX_OVERLAP) < 1e-6


def test_a_rank_one_slot_search_sends_no_row_to_eigh(monkeypatch):
    # on a 1-dim S0 every slot operator has rank one, so its three bottom
    # eigenvalues meet in a triple root of the resolvent cubic
    rng = np.random.default_rng(0)
    ket = rng.normal(size=16) + 1j * rng.normal(size=16)
    sub = Subspace.from_span([4, 4], [ket])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    cand = max_product_overlap(sub, restarts=200, seed=0)
    assert calls == []
    # the best product overlap of one ket is its top Schmidt coefficient squared
    top = np.linalg.svd(ket.reshape(4, 4) / np.linalg.norm(ket), compute_uv=False)[0]
    assert abs(cand.overlap - top ** 2) < 1e-12


def test_converged_search_reports_convergence(s0_e21):
    cert = certify_completely_entangled(s0_e21, restarts=150, seed=0)
    assert cert.witness.converged
    assert cert.witness.sweeps < 500
    assert 0 < cert.witness.retired < 150


def test_retirement_keeps_the_em1_m2_product_state():
    sub = subspace_from_terms([2, 2], em1_spanning_terms(2))
    cert = certify_completely_entangled(sub, restarts=100, seed=0)
    assert cert.verdict == "product-state-found"
    assert cert.max_overlap_found >= 1 - 1e-6
    assert cert.witness.retired > 0


def test_grid_oracle_pole_coverage():
    sub = Subspace.from_span([2, 2], [basis_ket([2, 2], 0)])
    assert abs(grid_product_overlap(sub, resolution=10) - 1.0) < 1e-12


def test_grid_oracle_budget_error():
    sub = Subspace.from_span([4, 4], [max_entangled_ket(4)])
    with pytest.raises(ValueError):
        grid_product_overlap(sub, resolution=40)


def test_grid_oracle_on_unequal_party_dimensions(variant34):
    # channel uses all share one matrix, the grid's parties do not: its 3-dim
    # party has 144 grid kets and its 4-dim party 1,728
    s0 = variant34.payload.s0
    g_a, g_b = (_grid_factors(d, 3) for d in s0.dims)
    kets = (g_a[:, None, :, None] * g_b[None, :, None, :]).reshape(-1, 12)
    assert len(kets) == 248_832
    direct = float(np.max(np.sum(np.abs(kets @ s0.basis.conj().T) ** 2, axis=1)))
    assert abs(grid_product_overlap(s0, resolution=3) - direct) < 1e-12


def _random_span(dims, rank=2):
    """A seeded complex span of `rank` dimensions."""
    rng = np.random.default_rng(sum(dims) * len(dims))
    total = int(np.prod(dims))
    return Subspace.from_span(dims, [rng.normal(size=total) + 1j * rng.normal(size=total)
                                     for _ in range(rank)])


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 3)])
def test_grid_oracle_on_a_complex_span(dims):
    # a real span's projector has a zero coefficient on every Im coordinate,
    # so only a complex span shows a slip in those coordinates
    sub = _random_span(dims)
    kets = np.ones((1, 1), dtype=complex)
    for d in dims:
        g = _grid_factors(d, 4)
        kets = (kets[:, None, :, None] * g[None, :, None, :]).reshape(-1, kets.shape[1] * d)
    direct = float(np.max(np.sum(np.abs(kets @ sub.basis.conj().T) ** 2, axis=1)))
    assert abs(grid_product_overlap(sub, resolution=4) - direct) < 1e-12


def test_grid_oracle_holds_one_chunk_at_a_time(em14):
    # em1:4 S0 at resolution 8 has 26.9 M grid points in chunks of 10 first-
    # party kets; a chunk's prefix rows are about 1.6 MiB and the pruned oracle
    # peaks near 5 MiB, while evaluating a whole chunk's 3.7 M overlaps at once
    # peaks near 30 MiB, so any return to whole-chunk overlaps breaks the bound
    tracemalloc.start()
    try:
        grid_product_overlap(em14.payload.s0, resolution=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _enumerated_grid_maximum(sub, resolution):
    """The grid maximum with every grid value evaluated: the oracle's party
    order and prefix rows, over the first party's whole grid, each row times
    the last party's rows by the same two-operand einsum."""
    dims = sub.dims
    rows = [_ket_coordinates(_grid_factors(d, resolution)) for d in dims]
    big = int(np.argmax([len(r) for r in rows]))
    order = [big, *(t for t in range(len(dims)) if t != big)]
    d = dims[order[-1]]
    prefix = contract_factors(_coefficient_tensor(sub)[0].transpose(order),
                              [rows[t] for t in order[:-1]]).reshape(d * d, -1).T
    last = np.ascontiguousarray(rows[order[-1]].T)
    return max(float(np.max(np.einsum("zi,ij->zj", prefix[i:i + 20_000].copy(), last)))
               for i in range(0, len(prefix), 20_000))


def _payload_part(builtin, part):
    return getattr(make_builtin(builtin).payload, part)


def _rotated_em14_s0():
    """em1:4's S0 under a fixed random unitary on each qubit: its product
    overlaps are S0's, but its maximum 7/8 sits on no grid point."""
    rng = np.random.default_rng(44)
    local = tensor(*(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                     for _ in range(4)))
    s0 = make_builtin("em1:4").payload.s0
    return Subspace.from_span(s0.dims, list(s0.basis @ local.T))


# em1:2's S0 and S1 hold product states, so their maximum 1 is reached at
# several grid points; the rank-2 random spans put a 3- or 4-dim party last,
# and the spans of every rank on three and four parties are pruned at every
# level; em1:4's S0 under local unitaries has no symmetric grid maximum, and
# at resolution 8 its first party's 72 kets are expanded in batches of 10
@pytest.mark.parametrize("subspace, resolution", [
    *(pytest.param(partial(_payload_part, f"em1:{m}", part), _GRID_RESOLUTIONS[2 * m],
                   id=f"em1:{m}-{part}")
      for m in (2, 3, 4) for part in ("s0", "s1")),
    pytest.param(partial(_payload_part, "variant34", "s0"), 3, id="variant34-s0"),
    *(pytest.param(partial(_random_span, dims), res, id=f"span{dims}")
      for dims, res in (((4, 3), 4), ((3, 4), 4), ((2, 4, 3), 3), ((4, 4), 3))),
    *(pytest.param(partial(_random_span, dims, rank), res, id=f"span{dims}-rank{rank}")
      for dims, res in (((2, 2, 2), 6), ((2, 2, 2, 2), 4), ((2, 2, 3), 4))
      for rank in range(1, dim_of(dims) + 1)),
    pytest.param(_rotated_em14_s0, 8, id="em1:4-s0-rotated"),
])
def test_grid_oracle_equals_its_full_enumeration_bit_for_bit(subspace, resolution):
    # the oracle drops every prefix whose eigenvalue bound cannot reach the
    # best value; the values it does evaluate are summed row by row, so its
    # maximum is the enumeration's to the last bit
    sub = subspace()
    assert grid_product_overlap(sub, resolution) == _enumerated_grid_maximum(sub, resolution)


@pytest.mark.parametrize("builtin, resolution, fewer_than", [
    ("em1:4", 8, 40_000),
    ("em1:3", 14, 44_100),
])
def test_grid_oracle_prunes_prefixes_at_every_level(monkeypatch, builtin, resolution,
                                                    fewer_than):
    # em1:4 at resolution 8 has 373,248 prefixes over its first three qubits,
    # and em1:3 at resolution 14 has 44,100 over its first two, all of which
    # a last-level-only prune contracts; pruned at every level, em1:4 builds
    # about 28,500 and em1:3 about 26,500
    contract, built = zecap.subspaces.contract_factors, []

    def counting(x, mats, stack=1):
        out = contract(x, mats, stack)
        if len(x) == mats[0].shape[1] * 4:      # x's columns hold the last two qubits
            built.append(out.size // 4)
        return out

    monkeypatch.setattr(zecap.subspaces, "contract_factors", counting)
    sub = make_builtin(builtin).payload.s0
    assert grid_product_overlap(sub, resolution) == _enumerated_grid_maximum(sub, resolution)
    assert 0 < sum(built) < fewer_than


def test_grid_oracle_builds_the_first_party_one_chunk_at_a_time():
    # a one-party [4] grid at resolution 8 has 373,248 kets; built whole, the
    # kets and their real rows peak at about 125 MiB, in 4,096-ket chunks at 2
    sub = Subspace.from_span([4], [np.array([1, 1j, 0, 1]) / np.sqrt(3)])
    tracemalloc.start()
    try:
        grid_product_overlap(sub, resolution=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    # a 1-dim party is left out of the contraction, so the [1, 4] grid takes
    # the [4] grid's route and gives its value to the bit
    wide = Subspace.from_span([1, 4], [np.array([1, 1j, 0, 1]) / np.sqrt(3)])
    tracemalloc.start()
    try:
        value = grid_product_overlap(wide, resolution=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert value == grid_product_overlap(sub, resolution=8)
    # a chunk is the same rows, bit for bit, as the slice of the whole grid
    for d in (2, 3, 4):
        assert _grid_factors(d, 3, 3, 11).tobytes() == _grid_factors(d, 3)[3:11].tobytes()


def test_grid_never_beats_seesaw():
    rng = np.random.default_rng(7)
    for trial in range(3):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        sub = Subspace.from_span([2, 2, 2], [v])
        cand = max_product_overlap(sub, restarts=60, seed=trial)
        grid = grid_product_overlap(sub, resolution=10)
        assert cand.overlap >= grid - 1e-9


# ---------------------------------------------------------------------------
# symmetry checks
# ---------------------------------------------------------------------------

def test_symmetry_e21_all_pass(s0_e21):
    s1 = s0_e21.complement()
    report = symmetry_checks(s0_e21, s1, slots=[0, 1])
    assert report.all_passed
    for check in report.checks:
        assert check.residual < 1e-9


def test_symmetry_variant_slot_b_only(s0_v34):
    s1 = s0_v34.complement()
    report_b = symmetry_checks(s0_v34, s1, slots=[1])
    assert report_b.all_passed
    report_a = symmetry_checks(s0_v34, s1, slots=[0])
    assert not report_a.all_passed
    assert report_a.residual("conjugation[0]", 0) > 1e-3


def test_symmetry_trivial_counterexample():
    s0 = Subspace.from_span([2, 2], [basis_ket([2, 2], 0), basis_ket([2, 2], 1)])
    s1 = s0.complement()
    report = symmetry_checks(s0, s1, slots=[0])
    assert report.residual("conjugation[0]", 0) > 0.9


def _dense_parity(dims, slot):
    """I x ... x diag(+1, -1, +1, ...) x ... x I on the factors `dims`."""
    left, right = int(np.prod(dims[:slot])), int(np.prod(dims[slot + 1:]))
    d = np.diag([(-1.0) ** k for k in range(dims[slot])])
    return np.kron(np.kron(np.eye(left), d), np.eye(right))


@pytest.mark.parametrize("dims, terms", [
    ([4, 4], e21_spanning_terms()),
    ([3, 4], variant34_spanning_terms()),
    ([2, 2, 2], em1_spanning_terms(3)),
])
def test_symmetry_residuals_have_the_digits_of_the_dense_parity_products(dims, terms):
    # the sign pattern stands for the dense parity phase D on a slot; every
    # residual must equal, bit for bit, its product with D written out
    s0 = subspace_from_terms(dims, terms)
    s1 = s0.complement()
    slots = list(range(len(dims)))
    report = symmetry_checks(s0, s1, slots)
    p = {0: s0.projector, 1: s1.projector}
    t = {ell: p[ell].T.copy() for ell in (0, 1)}
    for slot in slots:
        d = _dense_parity(dims, slot).astype(complex)
        assert np.array_equal(parity_signs(dims, slot), d.diagonal().real)
        for ell in (0, 1):
            assert report.residual(f"conjugation[{ell}]", slot) == max_abs(
                p[ell] - d @ p[1 - ell] @ d)
            assert report.residual(f"twist[{ell}]", slot) == max_abs(t[ell] @ d @ p[ell] @ d)
    for ell in (0, 1):
        assert report.residual(f"transpose[{ell}]") == max_abs(p[ell] - t[ell])
        assert report.residual(f"orthogonality[{ell}]") == max_abs(t[ell] @ p[1 - ell])


def test_exact_symmetry_e21():
    vs = [exact_vector(16, t) for t in e21_spanning_terms()]
    results = exact_symmetry_checks([4, 4], vs, slots=[0, 1])
    assert all(results.values())
    assert len(results) == 12


def test_exact_symmetry_variant_slot_a_fails():
    vs = [exact_vector(12, t) for t in variant34_spanning_terms()]
    results = exact_symmetry_checks([3, 4], vs, slots=[0, 1])
    assert results["transpose[0]"] and results["transpose[1]"]
    assert results["conjugation[0]@1"] and results["twist[0]@1"]
    assert not results["conjugation[0]@0"]
    assert not results["twist[0]@0"]


def projector_route(dims, exact_spanning, slots):
    """Every exact symmetry row read off the exact projectors P0 and I - P0,
    in `exact_symmetry_checks`' key order."""
    p0 = exact_projector(exact_spanning)
    projs = {0: p0, 1: ExactMatrix.eye(dim_of(dims)) - p0}
    rows = {}
    for ell in (0, 1):
        rows[f"transpose[{ell}]"] = exact_all_zero(projs[ell] - projs[ell].T)
        rows[f"orthogonality[{ell}]"] = exact_all_zero(
            exact_matmul(projs[ell].T, projs[1 - ell]))
    for slot in slots:
        signs = parity_signs(dims, slot)
        for ell in (0, 1):
            rows[f"conjugation[{ell}]@{slot}"] = exact_all_zero(
                projs[ell] - projs[1 - ell].sign_conjugate(signs))
            rows[f"twist[{ell}]@{slot}"] = exact_all_zero(
                exact_matmul(projs[ell].T, projs[ell].sign_conjugate(signs)))
    return rows


@pytest.fixture
def projector_calls(monkeypatch):
    """Number of exact projectors `exact_symmetry_checks` builds."""
    calls = []
    build = zecap.subspaces.exact_projector

    def counting(vectors):
        calls.append(len(vectors))
        return build(vectors)

    monkeypatch.setattr(zecap.subspaces, "exact_projector", counting)
    return calls


@pytest.mark.parametrize("case", [*CONJUGATE_BUILTINS, "em1:6", *SPEC_CASES])
def test_exact_rows_from_the_span_equal_the_projector_route(case, projector_calls):
    # only the two specs with S1 = D S0 on no party build the exact projector
    pl = case_channel(case).payload
    dims = pl.s0.dims
    for slots in (list(pl.u_slots), list(range(len(dims)))):
        rows = exact_symmetry_checks(dims, pl.exact_s0, slots)
        assert list(rows.items()) == list(projector_route(dims, pl.exact_s0, slots).items())
    assert len(projector_calls) == (2 if case in ("e21+01", "e21-last") else 0)


def span_route(dims, exact_spanning, slots):
    """Every exact symmetry row as its own k x k product over the stacked
    spanning vectors V when S1 = D_b S0 for a first party b, else the
    projector route, in `exact_symmetry_checks`' key order."""
    b = parity_conjugate_slot(dims, exact_spanning, range(len(dims)))
    if b is None:
        return projector_route(dims, exact_spanning, slots)
    v = ExactMatrix(np.concatenate([x.num for x in exact_spanning], axis=2))

    def vanishes(left, slot):
        signs = parity_signs(dims, slot)
        return exact_all_zero(exact_matmul(left, ExactMatrix(
            np.where(signs[:, None] < 0, -v.num, v.num))))

    rows = {}
    for ell in (0, 1):
        rows[f"transpose[{ell}]"] = vanishes(v.T, b)
        rows[f"orthogonality[{ell}]"] = vanishes(v.T, b)
    for slot in slots:
        for ell in (0, 1):
            rows[f"conjugation[{ell}]@{slot}"] = vanishes(v.dagger(), slot)
            rows[f"twist[{ell}]@{slot}"] = vanishes(v.T, slot)
    return rows


@pytest.mark.parametrize("case", [*CONJUGATE_BUILTINS, "em1:6", *SPEC_CASES])
def test_exact_rows_reuse_the_products_the_party_search_decided(case, monkeypatch):
    # the search for b decides conjugation@u for u <= b, and twist@b is the
    # transpose row; every other row costs one exact product
    products = []
    matmul = zecap.subspaces.exact_matmul

    def counting(a, b):
        products.append(a.shape)
        return matmul(a, b)

    monkeypatch.setattr(zecap.subspaces, "exact_matmul", counting)
    pl = case_channel(case).payload
    dims = pl.s0.dims
    b = parity_conjugate_slot(dims, pl.exact_s0, range(len(dims)))
    for slots in (list(pl.u_slots), list(range(len(dims)))):
        products.clear()
        rows = exact_symmetry_checks(dims, pl.exact_s0, slots)
        made = len(products)
        assert list(rows.items()) == list(span_route(dims, pl.exact_s0, slots).items())
        if b is not None:
            assert made == b + 2 + sum(u != b for u in slots) + sum(u > b for u in slots)


def _times_phase(c, phase):
    """c times phase, for a phase in {1, -1, 1j, -1j}."""
    # times i, (a + b sqrt2) + i (c + d sqrt2) becomes -(c + d sqrt2) + i (a + b sqrt2)
    parts = (c.a, c.b, c.c, c.d) if phase.real else (-c.c, -c.d, c.a, c.b)
    sign = -1 if phase in (-1, -1j) else 1
    return Coeff(*(sign * x for x in parts))


def conjugate_pair_span(rng, dims, slot, real):
    """total/2 exact vectors x + U x, for independent x in the even sector of
    `slot` and U a permutation onto its odd sector with phases in {+-1, +-i}
    ({+-1} and real x when `real`). D_slot maps x + U x to x - U x, which is
    orthogonal to every y + U y, so S1 = D_slot S0."""
    signs = parity_signs(dims, slot)
    even, odd = np.flatnonzero(signs > 0), rng.permutation(np.flatnonzero(signs < 0))
    phases = rng.choice([1, -1] if real else [1, -1, 1j, -1j], size=len(even))
    while True:
        # each coefficient is zero with probability 1/2, else (a, b, c, d) / den
        parts = rng.integers(-2, 3, size=(len(even), len(even), 4))
        parts *= rng.integers(0, 2, size=(len(even), len(even), 1))
        if real:
            parts[..., 2:] = 0
        dens = rng.integers(1, 4, size=parts.shape[:2])
        x = [[Coeff(*(Fraction(int(p), int(den)) for p in part)) for part, den in zip(row, drow)]
             for row, drow in zip(parts, dens)]
        if np.linalg.matrix_rank(np.array([[complex(c) for c in row] for row in x])) == len(even):
            break
    return [exact_vector(dim_of(dims), [
        *((int(e), c) for e, c in zip(even, row)),
        *((int(o), _times_phase(c, ph)) for o, c, ph in zip(odd, row, phases))])
        for row in x]


@pytest.mark.parametrize("dims, slot", [
    ((2, 2), 0), ((2, 3), 0), ((3, 2), 1), ((4, 2), 0), ((2, 4), 1), ((2, 2, 2), 2),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"at{v}")
def test_exact_rows_from_random_conjugate_spans_equal_the_projector_route(dims, slot):
    # 35 seeded spans over Q(sqrt(2), i) per shape, a third of them real
    rng = np.random.default_rng([len(dims), *dims, slot])
    slots = list(range(len(dims)))
    transposes = set()
    for n in range(35):
        vectors = conjugate_pair_span(rng, dims, slot, real=n % 3 == 0)
        assert parity_conjugate_slot(dims, vectors, [slot]) == slot
        rows = exact_symmetry_checks(dims, vectors, slots)
        assert list(rows.items()) == list(projector_route(dims, vectors, slots).items())
        transposes.add(rows["transpose[0]"])
    assert transposes == {True, False}


_PARITY_SLOT = {"variant34": 1, "e21+01": None, "e21-last": None, "variant34@A": None}


@pytest.mark.parametrize("case", [*CONJUGATE_BUILTINS, *SPEC_CASES])
def test_parity_conjugate_slot_agrees_with_the_exact_conjugation_rows(case):
    pl = case_channel(case).payload
    slot = _PARITY_SLOT.get(case, 0)
    exact = exact_symmetry_checks(pl.s0.dims, pl.exact_s0, pl.u_slots)
    held = [u for u in pl.u_slots
            if exact[f"conjugation[0]@{u}"] and exact[f"conjugation[1]@{u}"]]
    assert parity_conjugate_slot(pl.s0.dims, pl.exact_s0, pl.u_slots) == slot
    assert (held[:1] or [None]) == [slot]


@pytest.mark.parametrize("builtin", CONJUGATE_BUILTINS)
def test_carried_over_witness_reproduces_its_overlap_on_p1(builtin):
    pl = make_builtin(builtin).payload
    slot = parity_conjugate_slot(pl.s0.dims, pl.exact_s0, pl.u_slots)
    c0 = certify_completely_entangled(pl.s0, restarts=100, seed=3, label="S0")
    c1 = conjugated_certificate(c0, pl.s1, slot, "S1")
    ket = c1.witness.ket()
    assert abs(np.vdot(ket, pl.s1.projector @ ket).real - c0.max_overlap_found) <= 1e-12
    assert (c1.subspace_label, c1.max_overlap_found, c1.verdict, c1.restarts, c1.seed) \
        == ("S1", c0.max_overlap_found, c0.verdict, c0.restarts, c0.seed)
    assert c1.witness.restart_index == c0.witness.restart_index
    assert c1.witness.sweeps == c0.witness.sweeps
    for t, (f0, f1) in enumerate(zip(c0.witness.factors, c1.witness.factors)):
        assert np.array_equal(f1, f0 * parity_signs(f0.shape, 0) if t == slot else f0)


def test_carried_over_witness_off_its_slot_fails_loudly():
    # variant34's S1 = D S0 fails on slot A: its moved witness misses S1's overlap
    pl = make_builtin("variant34").payload
    c0 = certify_completely_entangled(pl.s0, restarts=100, seed=0, label="S0")
    with pytest.raises(RuntimeError, match="parity-conjugated witness"):
        conjugated_certificate(c0, pl.s1, 0, "S1")
