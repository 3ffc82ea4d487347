import numpy as np
import pytest

from conftest import SPEC_CASES, basis_ket, case_channel, permute_factors, tensor, trace_distance
from zecap.channels import (
    apply_channel,
    apply_channel_to_ket,
    extend_trivial_parties,
    tensor_power,
)
from zecap.linalg import (
    dim_of,
    max_abs,
    max_entangled_ket,
)
from zecap.protocols import (
    build_two_use_code,
    capacity_lower_bound,
    certify_alpha_local_one,
    check_local_preparability,
    flag_distribution,
    privacy_check,
    slot_index,
    teleport_qubit,
    teleportation_decode,
    verify_orthogonal_outputs,
)
from zecap.specio import make_builtin
from zecap.subspaces import certify_completely_entangled

EXPECTED_SAME = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
EXPECTED_FLIP = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)


def test_slot_labels(e21):
    assert [slot_index(e21, s) for s in ("A", "B", "A'", "B'")] == [0, 1, 2, 3]
    assert [slot_index(e21, s) for s in (" b", "a'", 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        slot_index(e21, "C'")


@pytest.mark.parametrize("label", ["", "AB", "'A", "A'B", None])
def test_malformed_slot_labels_raise_value_error(e21, label):
    with pytest.raises(ValueError):
        slot_index(e21, label)


def test_two_use_code_is_locally_preparable(e21, em13):
    for ch in (e21, em13):
        for slot in range(2 * len(ch.sender_dims)):
            code = build_two_use_code(ch, slot)
            for psi in code.inputs:
                assert check_local_preparability(psi, code.dims,
                                                 code.sender_partition)


@pytest.mark.parametrize("case", ["e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5",
                                  "em1:6", *SPEC_CASES, "e21+trivial"])
def test_two_use_codewords_are_sign_flips_of_one_maximally_entangled_ket(case):
    ch = (extend_trivial_parties(make_builtin("e21"), [2], [2]) if case == "e21+trivial"
          else case_channel(case))
    m, total = len(ch.sender_dims), dim_of(ch.sender_dims)
    # the per-sender pairs in sender-major order (s, s'), regrouped use-major
    pairs = tensor(*(max_entangled_ket(d) for d in ch.sender_dims))
    regrouped = permute_factors(pairs, [d for d in ch.sender_dims for _ in range(2)],
                                [2 * s for s in range(m)] + [2 * s + 1 for s in range(m)])
    for slot in range(2 * m):
        code = build_two_use_code(ch, slot)
        psi0, psi1 = code.inputs
        assert max_abs(psi0 - regrouped) <= 1e-15
        assert np.all(psi0[psi0 != 0] == 1 / np.sqrt(total))
        # D = diag(+1, -1, +1, ...) written out on the slot's axis, with the
        # factors before and after it as identities
        left, right = dim_of(code.dims[:slot]), dim_of(code.dims[slot + 1:])
        d = np.diag([(-1.0) ** k for k in range(code.dims[slot])])
        assert np.array_equal(psi1, (d @ psi0.reshape(left, -1, right)).reshape(-1))


@pytest.mark.parametrize("case", ["e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5",
                                  "em1:6", *SPEC_CASES, "e21+trivial"])
def test_flipped_codewords_are_as_preparable_as_psi0(case):
    # the reference for `verify`, which checks psi0 alone: each flip is a
    # diagonal unitary inside one sender group and keeps every cut's
    # Schmidt coefficients
    ch = (extend_trivial_parties(make_builtin("e21"), [2], [2]) if case == "e21+trivial"
          else case_channel(case))
    code = build_two_use_code(ch, 0)
    psi0_ok = check_local_preparability(code.inputs[0], code.dims, code.sender_partition)
    for slot in range(2 * len(ch.sender_dims)):
        code = build_two_use_code(ch, slot)
        assert check_local_preparability(code.inputs[1], code.dims,
                                         code.sender_partition) == psi0_ok


def test_local_preparability_rejects_entangled_cut():
    alpha = max_entangled_ket(2)
    assert not check_local_preparability(alpha, [2, 2], [(0,), (1,)])
    assert check_local_preparability(basis_ket([2, 2], 0), [2, 2], [(0,), (1,)])
    # the two-use codeword is entangled across uses but product across senders
    phi = max_entangled_ket(4)
    psi = tensor(phi, phi)                       # (A, A', B, B') order
    assert check_local_preparability(psi, [4, 4, 4, 4], [(0, 1), (2, 3)])
    assert not check_local_preparability(psi, [4, 4, 4, 4], [(0, 3), (1, 2)])


def test_local_preparability_requires_cover():
    with pytest.raises(ValueError):
        check_local_preparability(basis_ket([2, 2], 0), [2, 2], [(0,)])


def test_local_preparability_takes_kets_only():
    ket = basis_ket([2, 2], 0)
    with pytest.raises(ValueError, match="expected a ket"):
        check_local_preparability(np.outer(ket, ket.conj()), [2, 2], [(0,), (1,)])


def test_two_use_outputs_all_slots(e21):
    power = tensor_power(e21, 2)
    for slot in ("A", "B", "A'", "B'"):
        code = build_two_use_code(e21, slot)
        out0 = apply_channel_to_ket(power, code.inputs[0])
        out1 = apply_channel_to_ket(power, code.inputs[1])
        assert max_abs(out0 - EXPECTED_SAME) < 1e-10
        assert max_abs(out1 - EXPECTED_FLIP) < 1e-10
        cert = verify_orthogonal_outputs(power, code)
        assert cert.orthogonal
        assert cert.decoder == "single-receiver-projective"
        assert max_abs(cert.overlaps - cert.overlaps.T) < 1e-12


@pytest.mark.parametrize("case", ["e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5",
                                  "em1:6", *SPEC_CASES])
def test_flips_on_either_use_of_a_sender_give_equal_outputs(case):
    # the reason `flag_distribution` gives slots s and s + m one distribution
    ch = case_channel(case)
    m, power = len(ch.sender_dims), tensor_power(ch, 2)
    for s in range(m):
        outs = [apply_channel_to_ket(power, build_two_use_code(ch, u).inputs[1])
                for u in (s, s + m)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(flag_distribution(ch, s + m), flag_distribution(ch, s))


@pytest.mark.parametrize("case", ["e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5",
                                  "em1:6", *SPEC_CASES, "e21+trivial"])
def test_flag_distribution_is_the_two_use_output_diagonal(case):
    # the Kraus route is the reference: each word |l><e| (x) |l'><e'| fills
    # one flag pair, so its off-diagonal entries are exact zeros, and its
    # diagonal summed over added receivers is the flag distribution
    ch = (extend_trivial_parties(make_builtin("e21"), [2], [2]) if case == "e21+trivial"
          else case_channel(case))
    m, power = len(ch.sender_dims), tensor_power(ch, 2)
    k = len(ch.receiver_dims)
    for slot in (None, *range(2 * m)):
        code = build_two_use_code(ch, slot or 0)
        out = apply_channel_to_ket(power, code.inputs[0 if slot is None else 1])
        assert not np.any(out - np.diag(np.diag(out)))
        diag = np.diag(out).real.reshape(ch.receiver_dims * 2)
        flags = diag.sum(axis=tuple(a for a in range(2 * k) if a not in (0, k)))
        p = flag_distribution(ch, slot)
        assert p.shape == (2, 2)
        assert max_abs(p - flags) <= 1e-15


def test_two_use_outputs_em1(em13, em14):
    for ch in (em13, em14):
        power = tensor_power(ch, 2)
        for slot in range(2 * len(ch.sender_dims)):
            code = build_two_use_code(ch, slot)
            out0 = apply_channel_to_ket(power, code.inputs[0])
            out1 = apply_channel_to_ket(power, code.inputs[1])
            assert max_abs(out0 - EXPECTED_SAME) < 1e-10
            assert max_abs(out1 - EXPECTED_FLIP) < 1e-10


def test_variant34_slot_b_transmits(variant34):
    power = tensor_power(variant34, 2)
    for slot in ("B", "B'"):
        code = build_two_use_code(variant34, slot)
        cert = verify_orthogonal_outputs(power, code)
        assert cert.orthogonal
    # the 3-dim party has no working code; the overlap is reported, not asserted
    code_a = build_two_use_code(variant34, "A")
    cert_a = verify_orthogonal_outputs(power, code_a)
    assert not cert_a.orthogonal
    assert cert_a.overlaps[0, 1] > 1e-3


def test_identical_codewords_not_orthogonal(e21):
    power = tensor_power(e21, 2)
    code = build_two_use_code(e21, "A")
    code.inputs[1] = code.inputs[0]
    cert = verify_orthogonal_outputs(power, code)
    assert not cert.orthogonal
    assert abs(cert.overlaps[0, 1] - 0.5) < 1e-10   # tr(out^2) of (|00>+|11>)/2


def test_orthogonality_invariant_under_relabeling(e21):
    power = tensor_power(e21, 2)
    code = build_two_use_code(e21, "B")
    swapped = build_two_use_code(e21, "B")
    swapped.inputs = [code.inputs[1], code.inputs[0]]
    a = verify_orthogonal_outputs(power, code)
    b = verify_orthogonal_outputs(power, swapped)
    assert a.orthogonal == b.orthogonal
    assert abs(a.overlaps[0, 1] - b.overlaps[1, 0]) < 1e-12


def test_alpha_local_one_certificates(e21, em13):
    for ch in (e21, em13):
        cert = certify_alpha_local_one(ch, restarts=120, seed=0)
        assert cert.alpha_local_one
        assert cert.s0_certificate.verdict == "certified-CE"
        assert cert.s1_certificate.verdict == "certified-CE"


def test_alpha_local_one_carries_over_s1_as_a_direct_search_finds_it(e21):
    # S1 = D S0 holds for e21, so S1's certificate is S0's carried over; a
    # direct search of S1 with the same restarts and seed finds the same overlap
    carried = certify_alpha_local_one(e21, restarts=120, seed=2).s1_certificate
    direct = certify_completely_entangled(e21.payload.s1, restarts=120, seed=2)
    assert abs(carried.max_overlap_found - direct.max_overlap_found) <= 1e-12
    assert (carried.verdict, carried.restarts, carried.seed) \
        == (direct.verdict, direct.restarts, direct.seed)


def test_alpha_local_fails_on_product_containing_span():
    from fractions import Fraction
    from zecap.channels import binary_projective_channel
    from zecap.exactnum import Coeff
    ch = binary_projective_channel((2, 2), [[(0, Coeff(Fraction(1)))]], (0, 1), name="bad")
    cert = certify_alpha_local_one(ch, restarts=40, seed=0)
    assert not cert.alpha_local_one


def test_alpha_local_monotone_under_extension(e21):
    ext = extend_trivial_parties(e21, [2], [2])
    cert = certify_alpha_local_one(ext, restarts=120, seed=0)
    assert cert.alpha_local_one
    assert "extension" in cert.notes


def test_alpha_local_wrong_kind(e12):
    with pytest.raises(ValueError):
        certify_alpha_local_one(e12)


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------

def test_teleport_identity_on_random_states():
    rng = np.random.default_rng(10)
    for _ in range(100):
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        rho = np.outer(g, g.conj()) / np.vdot(g, g).real
        assert trace_distance(teleport_qubit(rho), rho) < 1e-10


def test_teleportation_decoder_perfect(e12):
    power = tensor_power(e12, 2)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    probs = teleportation_decode(apply_channel(power, rho00))
    assert abs(probs[0] - 1.0) < 1e-10
    rho01 = np.zeros((4, 4), dtype=complex)
    rho01[1, 1] = 1.0
    probs = teleportation_decode(apply_channel(power, rho01))
    assert abs(probs[1] - 1.0) < 1e-10


def test_teleportation_certifies_two_receiver_code(e12):
    from zecap.protocols import basis_codebook
    power = tensor_power(e12, 2)
    code = basis_codebook(e12, 2, [(0, 0), (0, 1)])
    assert check_local_preparability(code.inputs[0], code.dims,
                                     code.sender_partition)
    cert = verify_orthogonal_outputs(power, code)
    assert cert.orthogonal
    assert cert.decoder == "teleportation-LOCC"
    # the certificate does not depend on how the codewords are labeled
    swapped = basis_codebook(e12, 2, [(0, 1), (0, 0)])
    cert2 = verify_orthogonal_outputs(power, swapped)
    assert cert2.orthogonal and cert2.decoder == "teleportation-LOCC"
    # identical second-use outputs cannot be told apart
    same = basis_codebook(e12, 2, [(0, 0), (0, 0)])
    cert3 = verify_orthogonal_outputs(power, same)
    assert not cert3.orthogonal and cert3.decoder == "none"


def test_teleportation_decoder_resource_warning(e12):
    rho = np.kron(np.eye(4) / 4, np.eye(4) / 4).astype(complex)
    with pytest.warns(UserWarning):
        teleportation_decode(rho)


def test_teleportation_decoder_shape_check():
    with pytest.raises(ValueError):
        teleportation_decode(np.eye(8) / 8)


# ---------------------------------------------------------------------------
# privacy
# ---------------------------------------------------------------------------

def test_privacy_e21(e21):
    ok, details = privacy_check(e21, ("A", "B"))
    assert ok
    assert details["output_difference"] < 1e-10


def test_privacy_em1_all_pairs(em13, em14):
    for ch in (em13, em14):
        m = len(ch.sender_dims)
        for i in range(m):
            for j in range(i + 1, m):
                ok, _ = privacy_check(ch, (i, j))
                assert ok


def test_privacy_broken_by_trivial_extension(e21):
    ext = extend_trivial_parties(e21, [2], [])
    ok, details = privacy_check(ext, (2, 0))
    assert not ok
    assert details["output_difference"] > 0.1


def test_privacy_needs_distinct_slots(e21):
    with pytest.raises(ValueError):
        privacy_check(e21, ("A", "A"))


def test_capacity_lower_bound():
    assert capacity_lower_bound(2, 2) == 0.5
    assert capacity_lower_bound(1, 1) == 0.0
    assert capacity_lower_bound(2, 4) == 1.0
    with pytest.raises(ValueError):
        capacity_lower_bound(2, 0)


def test_extension_keeps_two_use_transmission(e21):
    # criterion: adding ignored senders/receivers preserves the working code
    ext = extend_trivial_parties(e21, [2], [2])
    power = tensor_power(ext, 2)
    code = build_two_use_code(ext, "A")
    assert check_local_preparability(code.inputs[0], code.dims,
                                     code.sender_partition)
    cert = verify_orthogonal_outputs(power, code)
    assert cert.orthogonal
