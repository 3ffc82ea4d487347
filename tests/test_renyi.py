import numpy as np
import pytest

from conftest import basis_ket, random_density, tensor
import zecap.renyi
from zecap.channels import (
    MultiUserChannel,
    apply_channel_to_ket,
    make_cj_channel,
    make_em1,
    tensor_power,
    to_kraus,
)
from zecap.linalg import (
    haar_ket,
    max_abs,
    max_entangled_ket,
)
from zecap.renyi import (
    SPECTRUM_CHUNK,
    _output_spectra,
    _output_spectrum,
    additivity_gap_at_zero,
    min_output_rank_search,
    renyi_entropy,
    spectrum_rank,
    structured_rank_seeds,
)
from zecap.subspaces import Subspace, certify_completely_entangled, grid_product_overlap

# frozen from development runs: the two-use search lands on rank 15 (reached
# already by the maximally entangled seed) and cannot be pushed lower
E21_TWO_USE_RANK = 15
V34_TWO_USE_RANK = 15


def identity_channel(d=2):
    return MultiUserChannel((d,), (d,), [np.eye(d, dtype=complex)])


def depolarizing_to_mixed(d=2):
    ops = [np.outer(basis_ket([d], i), basis_ket([d], j).conj()) / np.sqrt(d)
           for i in range(d) for j in range(d)]
    return MultiUserChannel((d,), (d,), ops)


# ---------------------------------------------------------------------------
# entropy function
# ---------------------------------------------------------------------------

def test_renyi_flat_spectrum():
    rho = np.eye(2) / 2
    for p in (0, 0.5, 1, 2, np.inf):
        assert abs(renyi_entropy(rho, p) - 1.0) < 1e-12


def test_renyi_pure_state():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    for p in (0, 0.5, 1, 2, np.inf):
        assert abs(renyi_entropy(rho, p)) < 1e-12


def test_renyi_rank_branch():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert renyi_entropy(rho, 0) == 1.0


def test_renyi_rejects_negative_order_and_bad_state():
    with pytest.raises(ValueError):
        renyi_entropy(np.eye(2) / 2, -1)
    with pytest.raises(ValueError):
        renyi_entropy(np.diag([1.5, -0.5]), 2)


def test_renyi_monotone_in_p():
    rng = np.random.default_rng(0)
    orders = [0, 0.5, 1, 2, np.inf]
    for _ in range(20):
        rho = random_density(6, rng)
        values = [renyi_entropy(rho, p) for p in orders]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-9


def test_renyi_additive_on_product_states():
    rng = np.random.default_rng(1)
    for p in (0, 0.5, 1, 2, np.inf):
        for _ in range(10):
            rho = random_density(3, rng)
            sigma = random_density(4, rng)
            joint = renyi_entropy(np.kron(rho, sigma), p)
            split = renyi_entropy(rho, p) + renyi_entropy(sigma, p)
            assert abs(joint - split) < 1e-9


def test_renyi_p_one_is_a_limit():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density(5, rng)
        s1 = renyi_entropy(rho, 1)
        assert abs(s1 - renyi_entropy(rho, 1 + 1e-4)) < 1e-3
        assert abs(s1 - renyi_entropy(rho, 1 - 1e-4)) < 1e-3


# ---------------------------------------------------------------------------
# minimum output rank
# ---------------------------------------------------------------------------

def test_min_output_identity_channel():
    res = min_output_rank_search(identity_channel(), restarts=4, seed=0)
    assert res.best_rank == 1
    assert renyi_entropy(apply_channel_to_ket(identity_channel(), res.achiever), 0) == 0.0


def test_min_output_depolarizing():
    ch = depolarizing_to_mixed()
    res = min_output_rank_search(ch, restarts=4, seed=0)
    assert res.best_rank == 2
    assert max_abs(res.output_spectrum - 0.5) < 1e-12


def test_min_output_rank_zero_for_projective(e21):
    # states inside the measured subspace give a pure flag output
    assert min_output_rank_search(e21, restarts=20, seed=0).best_rank == 1


def test_estimate_is_reproducible_from_achiever(e21):
    ch = make_cj_channel(e21.payload.s0)
    res = min_output_rank_search(ch, restarts=10, seed=1)
    rho = apply_channel_to_ket(ch, res.achiever)
    w = np.linalg.eigvalsh(rho)[::-1]
    w = np.clip(w, 0, None)
    w /= w.sum()
    assert max_abs(w - res.output_spectrum) < 1e-9
    assert renyi_entropy(rho, 0) == np.log2(res.best_rank)


def test_pure_inputs_beat_mixed_samples(e21):
    ch = make_cj_channel(e21.payload.s0)
    rng = np.random.default_rng(3)
    best = min_output_rank_search(ch, restarts=10, seed=2).best_rank
    for _ in range(25):
        rho = random_density(4, rng)
        out = sum(k @ rho @ k.conj().T for k in to_kraus(ch))
        assert renyi_entropy(out, 0) >= np.log2(best)


# ---------------------------------------------------------------------------
# rank search
# ---------------------------------------------------------------------------

def test_tail_objective_gradient_matches_finite_differences(e21):
    from zecap.renyi import _tail_objective
    ch = make_cj_channel(e21.payload.s0)
    fun = _tail_objective(ch, 2)
    rng = np.random.default_rng(8)
    x = rng.normal(size=8)
    value, grad = fun(x)
    eps = 1e-6
    for i in range(8):
        step = np.zeros(8)
        step[i] = eps
        numeric = (fun(x + step)[0] - fun(x - step)[0]) / (2 * eps)
        assert abs(numeric - grad[i]) < 1e-5


def test_the_walk_gets_scipys_minimize_result_unchanged(e21):
    # renyi.minimize imports scipy.optimize on its first call and must
    # return exactly what scipy does, so every walk keeps its digits
    from scipy.optimize import minimize as scipy_minimize
    from zecap.renyi import _tail_objective
    fun = _tail_objective(make_cj_channel(e21.payload.s0), 2)
    x0 = np.random.default_rng(8).normal(size=8)
    kwargs = {"jac": True, "method": "L-BFGS-B", "options": {"maxiter": 400}}
    ours = zecap.renyi.minimize(fun, x0, **kwargs)
    theirs = scipy_minimize(fun, x0, **kwargs)
    assert ours.x.tobytes() == theirs.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
    assert ours.nfev == theirs.nfev > 1


def test_rank_search_unitary_like_channel():
    sub = Subspace.from_span([2, 2], [max_entangled_ket(2)])
    ch = make_cj_channel(sub)
    res = min_output_rank_search(ch, restarts=10, seed=0)
    assert res.best_rank == 1
    assert res.second_eigenvalue < 1e-9
    # with no seeds the random restarts alone make the pool
    assert min_output_rank_search(ch, seeds=[], restarts=10, seed=0).best_rank == 1


def test_rank_one_criterion_oracle_equivalence():
    """Rank deficiency at some input is equivalent to a product state in the
    complement; validated on random small subspaces against the grid oracle.
    """
    rng = np.random.default_rng(4)
    found_both_kinds = [False, False]
    for trial in range(8):
        if trial % 2 == 0:
            # complement built to contain a product state
            prod = tensor(haar_ket(2, rng), haar_ket(2, rng))
            other = haar_ket(4, rng)
            comp = Subspace.from_span([2, 2], [prod, other])
            sub = comp.complement()
        else:
            # complement = the span of one entangled state: completely entangled
            sub = Subspace.from_span([2, 2], [max_entangled_ket(2)]).complement()
        comp = sub.complement()
        grid = grid_product_overlap(comp, resolution=30)
        has_product = grid > 1 - 1e-3
        ch = make_cj_channel(sub)
        res = min_output_rank_search(ch, restarts=60, seed=trial)
        deficient = res.best_rank < 2
        assert deficient == has_product
        found_both_kinds[0] |= deficient
        found_both_kinds[1] |= not deficient
    assert all(found_both_kinds)


def test_single_use_full_rank(e21, variant34):
    for ch_src in (e21, variant34):
        ch = make_cj_channel(ch_src.payload.s0)
        res = min_output_rank_search(ch, restarts=60, seed=0)
        assert res.best_rank == 4
        # walking down to rank 3 was attempted and failed with finite tail mass
        assert res.tried_ranks.get(3, 1.0) > 1e-6


def test_structured_seed_is_rank_deficient(e21):
    ch = make_cj_channel(e21.payload.s0)
    two = tensor_power(ch, 2)
    seeds = structured_rank_seeds(two)
    phi = max_entangled_ket(4)
    assert any(max_abs(s / np.linalg.norm(s) - phi) < 1e-12 for s in seeds)
    rho = apply_channel_to_ket(two, phi)
    w = np.linalg.eigvalsh(rho)[::-1]
    assert spectrum_rank(w) == E21_TWO_USE_RANK
    # the kernel vector is the phase-twisted entangled state of the outputs
    twist = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    kernel = np.kron(twist, np.eye(4)) @ max_entangled_ket(4)
    assert max_abs(rho @ kernel) < 1e-12


def test_two_use_rank_search(e21):
    ch = make_cj_channel(e21.payload.s0)
    res = min_output_rank_search(tensor_power(ch, 2), restarts=100, seed=0)
    assert res.best_rank == E21_TWO_USE_RANK
    # reproducible from the stored witness
    rho = apply_channel_to_ket(tensor_power(ch, 2), res.achiever)
    w = np.linalg.eigvalsh(rho)[::-1]
    assert spectrum_rank(w) == E21_TWO_USE_RANK


@pytest.mark.parametrize("uses", [1, 2])
def test_a_ket_scores_the_same_alone_and_in_a_pool(e21, variant34, uses):
    for src in (e21, variant34):
        ch = tensor_power(make_cj_channel(src.payload.s0), uses)
        rng = np.random.default_rng(uses)
        pool = np.array([haar_ket(ch.in_dim, rng) for _ in range(SPECTRUM_CHUNK + 40)])
        scored = _output_spectra(ch, pool)
        for i in (0, 1, SPECTRUM_CHUNK - 1, SPECTRUM_CHUNK, len(pool) - 1):
            # bit for bit, on both sides of the chunk boundary
            assert np.array_equal(_output_spectrum(ch, pool[i]), scored[i])
            rho = apply_channel_to_ket(ch, pool[i])
            want = np.linalg.eigvalsh(rho)[::-1] / np.trace(rho).real
            assert max_abs(scored[i] - want) < 1e-14


def test_e21_two_use_search_keeps_the_entangled_seed(e21):
    two = tensor_power(make_cj_channel(e21.payload.s0), 2)
    # the two entangled seeds, phi and its parity flip, tie at rank 15 with
    # the same tail mass, to the last bit; the pool index then picks phi
    seeds = np.array([s / np.linalg.norm(s) for s in structured_rank_seeds(two)])
    spectra = _output_spectra(two, seeds)
    assert list(spectrum_rank(spectra)) == [16, 15, 15]
    tails = [float(np.sum(w[14:])) for w in spectra[1:]]
    assert tails[0] == tails[1]
    assert abs(tails[0] - 1 / 32) < 1e-15
    res = min_output_rank_search(two, restarts=2000, seed=1, refine_per_rank=8)
    assert res.best_rank == E21_TWO_USE_RANK
    assert max_abs(res.achiever - max_entangled_ket(4)) < 1e-15


def test_found_ranks_submultiplicative(e21):
    ch = make_cj_channel(e21.payload.s0)
    single = min_output_rank_search(ch, restarts=40, seed=0)
    product_seed = np.kron(single.achiever, single.achiever)
    two = min_output_rank_search(tensor_power(ch, 2),
                                 seeds=[product_seed], restarts=40, seed=1)
    assert two.best_rank <= single.best_rank ** 2


# ---------------------------------------------------------------------------
# additivity gap
# ---------------------------------------------------------------------------

def test_gap_found_for_construction_subspace(e21):
    report = additivity_gap_at_zero(e21.payload.s0, budget=400, seed=0)
    assert report.verdict == "gap-found"
    assert report.single_use_rank == 4
    assert report.single_use_floor == 4
    assert report.two_use_rank == E21_TWO_USE_RANK
    assert report.two_use_bits < 2 * report.single_use_bits
    assert report.complement_certificate.verdict == "certified-CE"


def test_gap_found_for_variant_subspace(variant34):
    report = additivity_gap_at_zero(variant34.payload.s0, budget=400, seed=0)
    assert report.verdict == "gap-found"
    assert report.single_use_floor == 4
    assert report.two_use_rank == V34_TWO_USE_RANK


def test_gap_reuses_a_matching_complement_certificate(e21):
    s0 = e21.payload.s0
    fresh = additivity_gap_at_zero(s0, budget=200, seed=3)
    cert = certify_completely_entangled(e21.payload.s1, seed=3, label="e21/S1")
    reused = additivity_gap_at_zero(s0, budget=200, seed=3, complement_certificate=cert)
    assert reused.complement_certificate is cert
    assert cert.max_overlap_found == fresh.complement_certificate.max_overlap_found
    for name in ("verdict", "single_use_rank", "single_use_floor", "two_use_rank",
                 "single_use_bits", "two_use_bits", "notes"):
        assert getattr(reused, name) == getattr(fresh, name)
    assert np.array_equal(reused.two_use_result.achiever, fresh.two_use_result.achiever)


@pytest.mark.parametrize("asked", [{"seed": 4}, {"ce_restarts": 999}])
def test_gap_refuses_a_certificate_searched_otherwise(e21, asked):
    cert = certify_completely_entangled(e21.payload.s1, seed=3)
    with pytest.raises(ValueError, match="certificate searched with"):
        additivity_gap_at_zero(e21.payload.s0, budget=10,
                               **{"seed": 3, **asked}, complement_certificate=cert)


def test_no_gap_for_full_space():
    full = Subspace.from_span([2, 2], [basis_ket([2, 2], i) for i in range(4)])
    report = additivity_gap_at_zero(full, budget=50, seed=0)
    assert report.verdict == "no-gap"


def test_no_gap_when_single_use_reaches_rank_one():
    sub = Subspace.from_span([2, 2], [max_entangled_ket(2),
                                      basis_ket([2, 2], 1)])
    report = additivity_gap_at_zero(sub, budget=100, seed=0)
    assert report.verdict == "no-gap"
    assert report.single_use_rank == 1


def test_inconclusive_when_certification_starved(e21):
    report = additivity_gap_at_zero(e21.payload.s0, budget=50, seed=0,
                                    ce_restarts=2)
    assert report.verdict == "inconclusive"


@pytest.fixture
def rank_searches(monkeypatch):
    """The input dimension of every rank search the test runs, in order."""
    dims = []
    search = zecap.renyi.min_output_rank_search

    def counting(channel, **kwargs):
        dims.append(channel.in_dim)
        return search(channel, **kwargs)

    monkeypatch.setattr(zecap.renyi, "min_output_rank_search", counting)
    return dims


def test_certified_complement_fixes_the_single_use_rank(e21, rank_searches):
    report = additivity_gap_at_zero(e21.payload.s0, budget=400, seed=0)
    assert report.complement_certificate.verdict == "certified-CE"
    # the floor d_B is the output dimension: only the two-use search runs
    assert rank_searches == [16]
    assert report.single_result is None
    assert report.single_use_rank == 4


def test_single_use_search_runs_without_a_certified_complement(e21, rank_searches):
    sub = Subspace.from_span([2, 2], [max_entangled_ket(2),
                                      basis_ket([2, 2], 1)])
    assert additivity_gap_at_zero(sub, budget=100, seed=0).single_use_rank == 1
    assert rank_searches == [2]
    starved = additivity_gap_at_zero(e21.payload.s0, budget=50, seed=0,
                                     ce_restarts=2)
    assert starved.single_result.best_rank == starved.single_use_rank
    assert rank_searches == [2, 4]


def _rank_one_subspace(case):
    if case == "em1:2":
        return make_em1(2).payload.s0
    return Subspace.from_span([2, 2], [max_entangled_ket(2), basis_ket([2, 2], 1)])


@pytest.mark.parametrize("case", ["rank-1", "em1:2"])
def test_single_use_rank_one_runs_no_two_use_search(case, rank_searches):
    # rank 1 at x makes the two-use rank at x (x) x exactly 1 * 1
    report = additivity_gap_at_zero(_rank_one_subspace(case), budget=800, seed=0)
    assert rank_searches == [2]
    assert report.single_use_rank == 1
    assert (report.verdict, report.two_use_rank, report.two_use_bits) == ("no-gap", 1, 0.0)
    assert report.two_use_result is None
    assert _rank_at_x_x(_rank_one_subspace(case), report.single_result.achiever) == 1


def _rank_at_x_x(subspace, x):
    """Output rank of two uses of the subspace channel at x (x) x."""
    two = tensor_power(make_cj_channel(subspace), 2)
    return spectrum_rank(_output_spectrum(two, np.kron(x, x)))


@pytest.fixture
def calls(monkeypatch):
    """The functions the rank search called, by name, in order: the random
    pool's draw and each L-BFGS run."""
    seen = []
    for name in ("keyed_haar_kets", "minimize"):
        original = getattr(zecap.renyi, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            seen.append((_name, args[0] if _name == "keyed_haar_kets" else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(zecap.renyi, name, recording)
    return seen


def test_decided_gap_draws_no_pool_and_runs_no_walk(e21, calls):
    report = additivity_gap_at_zero(e21.payload.s0, budget=5000, seed=0)
    assert calls == []
    assert report.verdict == "gap-found"
    assert report.two_use_rank == E21_TWO_USE_RANK
    assert report.two_use_result.tried_ranks == {}
    assert report.two_use_result.achiever.tobytes() == max_entangled_ket(4).tobytes()


@pytest.mark.parametrize("name", ["e21", "variant34"])
def test_stopping_at_the_floor_keeps_the_two_use_result(name, request):
    two = tensor_power(make_cj_channel(request.getfixturevalue(name).payload.s0), 2)
    full = min_output_rank_search(two, restarts=2000, seed=1, refine_per_rank=25)
    stopped = min_output_rank_search(two, restarts=2000, seed=1, refine_per_rank=25,
                                     stop_below=16)
    assert full.best_rank == stopped.best_rank == 15
    assert 14 in full.tried_ranks and stopped.tried_ranks == {}
    assert full.achiever.tobytes() == stopped.achiever.tobytes()
    assert full.output_spectrum.tobytes() == stopped.output_spectrum.tobytes()
    assert full.second_eigenvalue == stopped.second_eigenvalue


def test_rank_search_stops_at_the_first_stage_below_the_threshold(calls):
    # two uses of a channel that reaches rank 1: every seed has rank 4, the
    # random pool reaches 3, and the walk goes down to 2 and then 1
    sub = Subspace.from_span([2, 2], [max_entangled_ket(2), basis_ket([2, 2], 1)])
    two = tensor_power(make_cj_channel(sub), 2)
    full = min_output_rank_search(two, restarts=20, seed=0)
    assert (full.best_rank, sorted(full.tried_ranks)) == (1, [1, 2])
    by_pool = min_output_rank_search(two, restarts=20, seed=0, stop_below=4)
    assert (by_pool.best_rank, by_pool.tried_ranks) == (3, {})
    by_walk = min_output_rank_search(two, restarts=20, seed=0, stop_below=3)
    assert by_walk.best_rank == 2
    assert by_walk.tried_ranks == {2: full.tried_ranks[2]}
    # no seed decides either search, so each draws its pool once
    assert [a for name, a in calls if name == "keyed_haar_kets"] == [[4]] * 3


def test_an_uncertified_complement_runs_no_two_use_search(e21, rank_searches, calls):
    report = additivity_gap_at_zero(e21.payload.s0, budget=50, seed=0, ce_restarts=2)
    assert report.complement_certificate.verdict != "certified-CE"
    assert report.verdict == "inconclusive"
    # the single-use search alone, which draws its pool at input dimension 4
    assert rank_searches == [4]
    assert [a for name, a in calls if name == "keyed_haar_kets"] == [[4]]
    assert report.two_use_result is None
    # ranks multiply at x (x) x
    assert report.two_use_rank == report.single_use_rank ** 2 \
        == _rank_at_x_x(e21.payload.s0, report.single_result.achiever)


def test_rank_search_refuses_a_negative_seed(e21):
    with pytest.raises(ValueError, match="non-negative"):
        min_output_rank_search(identity_channel(), restarts=3, seed=-1)
    # here the structured seeds reach rank 15 < 16 and stop the search
    # before any draw; the seed is refused all the same
    two = tensor_power(make_cj_channel(e21.payload.s0), 2)
    assert min_output_rank_search(two, restarts=3, seed=0, stop_below=16).best_rank \
        == E21_TWO_USE_RANK
    with pytest.raises(ValueError, match="non-negative"):
        min_output_rank_search(two, restarts=3, seed=-1, stop_below=16)


def test_gap_accepts_a_complex_basis():
    # the rank floor needs no real S; this one-vector S gives rank 1 outputs
    sub = Subspace.from_span([2, 2], [basis_ket([2, 2], 0) * 1j
                                      + basis_ket([2, 2], 3)])
    report = additivity_gap_at_zero(sub, budget=10, seed=0)
    assert (report.verdict, report.single_use_rank, report.two_use_rank) == ("no-gap", 1, 1)


@pytest.mark.parametrize("conjugated", [True, False], ids=["conj-x", "x"])
def test_the_rank_floor_needs_no_real_subspace(conjugated):
    # an output of rank below d_B at x puts conj(x) (x) eta in the complement
    # of S, for a complex S as well; x (x) eta there forces no deficiency
    rng = np.random.default_rng(3)
    x, eta = haar_ket(3, rng), haar_ket(3, rng)
    product = np.kron(x.conj() if conjugated else x, eta)
    span = [v - np.vdot(product, v) * product for v in (haar_ket(9, rng) for _ in range(5))]
    channel = make_cj_channel(Subspace.from_span([3, 3], span))
    rho = apply_channel_to_ket(channel, x)
    rank = spectrum_rank(_output_spectrum(channel, x))
    if conjugated:
        assert rank < 3 and abs(np.vdot(eta, rho @ eta)) < 1e-12
    else:
        assert rank == 3


def test_gap_rejects_multipartite():
    sub = Subspace.from_span([2, 2, 2], [basis_ket([2, 2, 2], 0)])
    with pytest.raises(ValueError):
        additivity_gap_at_zero(sub, budget=10, seed=0)
