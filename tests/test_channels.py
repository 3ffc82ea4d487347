import numpy as np
import pytest

from conftest import basis_ket, permute_factors, random_density, tensor
from zecap.channels import (
    apply_channel,
    apply_channel_to_ket,
    check_trace_preserving,
    extend_trivial_parties,
    make_cj_channel,
    make_em1,
    tensor_power,
    to_kraus,
)
from zecap.linalg import (
    haar_ket,
    ket_from_terms,
    max_abs,
    max_entangled_ket,
    partial_trace,
)
from zecap.specio import channel_from_spec, describe_channel, make_builtin
from zecap.subspaces import Subspace


def test_e12_outputs(e12):
    alpha = max_entangled_ket(2)
    rho0 = apply_channel(e12, np.diag([1.0, 0.0]).astype(complex))
    assert max_abs(rho0 - np.outer(alpha, alpha.conj())) < 1e-12
    assert np.linalg.matrix_rank(rho0) == 1
    rho1 = apply_channel(e12, np.diag([0.0, 1.0]).astype(complex))
    w = np.linalg.eigvalsh(rho1)
    assert np.allclose(sorted(w), [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    # the two outputs are orthogonal
    assert abs(np.trace(rho0 @ rho1)) < 1e-12


def test_e21_output_on_span_vector(e21):
    psi1 = ket_from_terms([16], [(0, 1.0), (5, -1.0)]) / np.sqrt(2)
    out = apply_channel_to_ket(e21, psi1)
    assert max_abs(out - np.diag([1.0, 0.0])) < 1e-12


def test_e21_output_on_entangled_complement_state(e21):
    phi = max_entangled_ket(4)
    out = apply_channel_to_ket(e21, phi)
    assert max_abs(out - np.diag([0.0, 1.0])) < 1e-12


def test_e21_output_on_maximally_mixed(e21):
    out = apply_channel(e21, np.eye(16) / 16)
    assert max_abs(out - np.diag([0.5, 0.5])) < 1e-12


def test_e21_subspace_basis_outputs_exact(e21):
    for e in e21.payload.s0.basis:
        assert max_abs(apply_channel_to_ket(e21, e) - np.diag([1.0, 0.0])) < 1e-12
    for f in e21.payload.s1.basis:
        assert max_abs(apply_channel_to_ket(e21, f) - np.diag([0.0, 1.0])) < 1e-12


def test_e21_product_inputs_give_mixed_outputs(e21):
    rng = np.random.default_rng(0)
    for _ in range(25):
        psi = tensor(haar_ket(4, rng), haar_ket(4, rng))
        out = apply_channel_to_ket(e21, psi)
        w = np.linalg.eigvalsh(out)
        assert w[0] > 1e-6 and w[1] > 1e-6     # rank 2: genuinely mixed


def test_variant34_product_inputs_give_mixed_outputs(variant34):
    assert variant34.payload.s0.dim == 6
    assert variant34.payload.s1.dim == 6
    rng = np.random.default_rng(1)
    for _ in range(25):
        psi = tensor(haar_ket(3, rng), haar_ket(4, rng))
        w = np.linalg.eigvalsh(apply_channel_to_ket(variant34, psi))
        assert w[0] > 1e-6 and w[1] > 1e-6


def test_em1_dimensions():
    for m in (2, 3, 4):
        ch = make_em1(m)
        assert ch.payload.s0.dim == 2 ** (m - 1)
        assert ch.payload.s1.dim == 2 ** (m - 1)


def test_em1_m3_ghz_output(em13):
    ghz = ket_from_terms([8], [(0, 1.0), (7, 1.0)]) / np.sqrt(2)
    out = apply_channel_to_ket(em13, ghz)
    assert max_abs(out - np.diag([1.0, 0.0])) < 1e-12


def test_em1_m2_span():
    ch = make_em1(2)
    expected = Subspace.from_span([2, 2], [
        basis_ket([2, 2], 0) + basis_ket([2, 2], 3),
        basis_ket([2, 2], 1) - basis_ket([2, 2], 2),
    ])
    assert max_abs(ch.payload.s0.projector - expected.projector) < 1e-12


def test_em1_rejects_m1():
    with pytest.raises(ValueError):
        make_em1(1)


def test_trace_preserving_residuals(e21, e12, em13, variant34):
    for ch in (e21, e12, em13, variant34):
        assert check_trace_preserving(ch) < 1e-12


def test_to_kraus_reproduces_apply(e21, e12):
    rng = np.random.default_rng(2)
    for ch in (e21, e12):
        rho = random_density(ch.in_dim, rng)
        direct = apply_channel(ch, rho)
        ops = to_kraus(ch)
        via_kraus = sum(k @ rho @ k.conj().T for k in ops)
        assert max_abs(direct - via_kraus) < 1e-12


def test_output_positive_and_unit_trace(e21, e12, em13, em14, variant34):
    rng = np.random.default_rng(3)
    for ch in (e21, e12, em13, em14, variant34):
        for _ in range(5):
            rho = random_density(ch.in_dim, rng)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out)[0] > -1e-9


def test_apply_rejects_bad_inputs(e21):
    with pytest.raises(ValueError):
        apply_channel(e21, np.eye(4) / 4)            # wrong dimension
    bad = np.eye(16) / 16
    bad[0, 0] = -0.1
    bad[1, 1] += 0.1
    with pytest.raises(ValueError):
        apply_channel(e21, bad)                       # negative input


def test_tensor_power_identity_and_errors(e12):
    assert tensor_power(e12, 1) is e12
    with pytest.raises(ValueError):
        tensor_power(e12, 0)


def test_tensor_power_factorizes_on_products(e21, e12):
    rng = np.random.default_rng(4)
    for ch in (e21, e12):
        power = tensor_power(ch, 2)
        rho = random_density(ch.in_dim, rng)
        sigma = random_density(ch.in_dim, rng)
        joint = apply_channel(power, np.kron(rho, sigma))
        split = np.kron(apply_channel(ch, rho), apply_channel(ch, sigma))
        assert max_abs(joint - split) < 1e-10


def test_power_outcome_enumeration_matches_kraus_path(e21):
    # pure inputs are contracted use by use; cross-check them against the
    # explicit Kronecker expansion of the one-use stack on entangled inputs
    power = tensor_power(e21, 2)
    rng = np.random.default_rng(7)
    for _ in range(3):
        psi = haar_ket(256, rng)
        fast = apply_channel_to_ket(power, psi)
        ops = [np.kron(a, b) for a in to_kraus(e21) for b in to_kraus(e21)]
        slow = sum(np.outer(k @ psi, (k @ psi).conj()) for k in ops)
        assert max_abs(fast - slow) < 1e-12


def test_three_uses_match_the_explicit_kronecker_expansion(e21):
    one = make_cj_channel(e21.payload.s0)
    power = tensor_power(one, 3)
    # the one-use stack is all a power holds: no 8^3 = 512 operator expansion
    assert to_kraus(power).shape == (8, 4, 4)
    ops = to_kraus(one)
    words = [np.kron(np.kron(a, b), c) for a in ops for b in ops for c in ops]
    rng = np.random.default_rng(9)
    psi = haar_ket(64, rng)
    reference = sum(np.outer(k @ psi, (k @ psi).conj()) for k in words)
    assert max_abs(apply_channel_to_ket(power, psi) - reference) < 1e-12
    rho = random_density(64, rng)
    reference = sum(k @ rho @ k.conj().T for k in words)
    assert max_abs(apply_channel(power, rho) - reference) < 1e-12


def test_kraus_stack_is_write_protected(e21):
    power = tensor_power(e21, 2)
    assert to_kraus(power) is to_kraus(e21)
    with pytest.raises(ValueError):
        to_kraus(e21)[0, 0, 0] = 1.0


def test_extend_trivial_parties_behaviour(e21):
    ext = extend_trivial_parties(e21, [2], [2])
    assert ext.sender_dims == (4, 4, 2)
    assert ext.receiver_dims == (2, 2)
    rng = np.random.default_rng(5)
    rho = random_density(16, rng)
    sigma = random_density(2, rng)
    out = apply_channel(ext, np.kron(rho, sigma))
    base_out = apply_channel(e21, rho)
    expected = np.kron(base_out, np.diag([1.0, 0.0]))
    assert max_abs(out - expected) < 1e-10
    assert check_trace_preserving(ext) < 1e-9


def test_extension_preserves_output_gram(e21):
    ext = extend_trivial_parties(e21, [2], [2])
    rng = np.random.default_rng(6)
    inputs = [random_density(16, rng) for _ in range(3)]
    extra = random_density(2, rng)
    base_outs = [apply_channel(e21, r) for r in inputs]
    ext_outs = [apply_channel(ext, np.kron(r, extra)) for r in inputs]
    for i in range(3):
        for j in range(3):
            g1 = np.trace(base_outs[i] @ base_outs[j])
            g2 = np.trace(ext_outs[i] @ ext_outs[j])
            assert abs(g1 - g2) < 1e-10


# ---------------------------------------------------------------------------
# subspace channels and Choi matrices
# ---------------------------------------------------------------------------

def test_cj_channel_of_entangled_line_is_unitary_like():
    sub = Subspace.from_span([2, 2], [basis_ket([2, 2], 0) + basis_ket([2, 2], 3)])
    ch = make_cj_channel(sub)
    assert len(to_kraus(ch)) == 1
    assert check_trace_preserving(ch) < 1e-12        # single unitary-like Kraus
    out = apply_channel_to_ket(ch, haar_ket(2, np.random.default_rng(0)))
    assert np.linalg.matrix_rank(out, tol=1e-9) == 1


def test_cj_channel_frame_operator(e21):
    ch = make_cj_channel(e21.payload.s0)
    assert len(to_kraus(ch)) == 8
    scale = 1 / np.linalg.norm(to_kraus(ch)[0]) ** 2   # basis kets have unit norm
    frame = sum(k.conj().T @ k for k in to_kraus(ch)) * scale
    contraction = partial_trace(e21.payload.s0.projector, [4, 4], keep=[0]).T
    assert max_abs(frame - contraction) < 1e-10
    # the unscaled frame has trace 8 on a 4-dim space, so it is not the
    # identity; it happens to be exactly 2*I, so the documented scaling by
    # the top frame eigenvalue makes this particular channel trace preserving
    assert abs(np.trace(contraction).real - 8) < 1e-9
    assert max_abs(contraction - 2 * np.eye(4)) < 1e-10
    assert scale == pytest.approx(2.0, abs=1e-12)
    assert check_trace_preserving(ch) < 1e-12


def test_cj_channel_rejects_empty_and_multiparty():
    with pytest.raises(ValueError):
        make_cj_channel(Subspace.from_span([2, 2, 2], [basis_ket([2, 2, 2], 0)]))


def test_choi_of_subspace_channel_recovers_projector(e21):
    ch = make_cj_channel(e21.payload.s0)
    # the Choi matrix sum_K vec(K) vec(K)^dag, with K flattened row-major
    vecs = ch.kraus.reshape(len(ch.kraus), -1)
    choi = vecs.T @ vecs.conj()
    scale = 1 / np.linalg.norm(to_kraus(ch)[0]) ** 2   # basis kets have unit norm
    # Choi factors are (output, input); the source projector lives on
    # (input, output), so swap before comparing
    swapped = permute_factors(choi, [4, 4], [1, 0])
    assert max_abs(swapped - e21.payload.s0.projector / scale) < 1e-9


@pytest.mark.parametrize("name", ["e21", "variant34", "em1:2", "em1:3"])
def test_s1_is_the_complement_of_s0_to_the_bit(name):
    # `verify` reuses the ce suite's S1 certificate as the renyi suite's
    # certificate for s0.complement(), which needs the two to be one subspace
    builtin = make_builtin(name)
    for ch in (builtin, channel_from_spec(describe_channel(builtin))):
        pl = ch.payload
        comp = pl.s0.complement()
        assert np.array_equal(pl.s1.basis, comp.basis)
        assert np.array_equal(pl.s1.projector, comp.projector)


def _amp(r=(0, 1), s=(0, 1)):
    """The real amplitude r + s*sqrt(2) in spec form, every part written out."""
    zero = {"r": [0, 1], "s": [0, 1]}
    return {"re": {"r": list(r), "s": list(s)}, "im": zero}


def _cq_spec(ket0):
    return {"format": "zecap-channel/1", "name": "cq", "kind": "cq",
            "sender_dims": [2], "receiver_dims": [4],
            "outputs": [
                {"input": 0, "components": [{"weight": [1, 1], "ket": ket0}]},
                {"input": 1, "components": [
                    {"weight": [1, 1], "ket": [{"index": 3, "coeff": _amp((1, 1))}]}]}]}


@pytest.mark.parametrize("ket0", [
    # ((2 + sqrt2)/4, (2 - sqrt2)/4, 1/2): a rational and a sqrt(2) part at once
    [{"index": 0, "coeff": _amp((1, 2), (1, 4))},
     {"index": 1, "coeff": _amp((1, 2), (-1, 4))},
     {"index": 2, "coeff": _amp((1, 2))}],
    # a negative leading amplitude keeps its sign
    [{"index": 0, "coeff": _amp(s=(-1, 2))}, {"index": 2, "coeff": _amp(s=(1, 2))}],
])
def test_describe_returns_the_cq_outputs_it_was_built_from(ket0):
    spec = _cq_spec(ket0)
    ch = channel_from_spec(spec)
    assert check_trace_preserving(ch) < 1e-12
    described = describe_channel(ch)
    assert described["outputs"] == spec["outputs"]
    assert np.array_equal(channel_from_spec(described).kraus, ch.kraus)


def test_describe_refuses_channels_without_exact_data(e12, e21):
    from zecap.channels import MultiUserChannel
    for ch in (MultiUserChannel((2,), (2,), [np.eye(2, dtype=complex)]),
               tensor_power(e12, 2), extend_trivial_parties(e21, [2])):
        with pytest.raises(ValueError, match="can be described"):
            describe_channel(ch)
