"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Tolerances are pinned here and never derived from the code under test.
"""

import time

import numpy as np

from conftest import random_density, random_hermitian, trace_distance
from zecap.channels import (
    apply_channel,
    apply_channel_to_ket,
    check_trace_preserving,
    extend_trivial_parties,
    make_cj_channel,
    make_e12,
    make_e21,
    make_em1,
    make_variant34,
    tensor_power,
)
from zecap.cli import main as cli_main
from zecap.linalg import (
    max_abs,
    max_entangled_ket,
)
from zecap.protocols import (
    build_two_use_code,
    capacity_lower_bound,
    certify_alpha_local_one,
    check_local_preparability,
    privacy_check,
    teleport_qubit,
    teleportation_decode,
    verify_orthogonal_outputs,
)
from zecap.renyi import additivity_gap_at_zero, renyi_entropy, spectrum_rank
from zecap.subspaces import (
    certify_completely_entangled,
    exact_symmetry_checks,
    grid_product_overlap,
    symmetry_checks,
)

EXPECTED_SAME = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
EXPECTED_FLIP = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_1_projector_symmetries():
    started = time.perf_counter()
    e21 = make_e21()
    pl = e21.payload
    residuals = symmetry_checks(pl.s0, pl.s1, slots=[0, 1])
    exact = exact_symmetry_checks([4, 4], pl.exact_s0, slots=[0, 1])
    float_ok = max(residuals.values()) <= 1e-9 and residuals.keys() == exact.keys()
    exact_ok = all(exact.values()) and len(exact) == 12
    elapsed = time.perf_counter() - started
    _verdict(1, float_ok and exact_ok and elapsed < 1.0,
             f"float residuals <= 1e-9, exact identities all zero, "
             f"{elapsed:.2f}s")


def test_criterion_2_completely_entangled_certificates():
    started = time.perf_counter()
    results = []
    e21 = make_e21()
    for label, sub in (("S0", e21.payload.s0), ("S1", e21.payload.s1)):
        cert = certify_completely_entangled(sub, restarts=1000, seed=0,
                                            label=f"e21/{label}")
        results.append(cert.verdict == "certified-CE")
    v34 = make_variant34()
    for label, sub in (("S0", v34.payload.s0), ("S1", v34.payload.s1)):
        cert = certify_completely_entangled(sub, seed=0, label=f"v34/{label}")
        results.append(cert.verdict == "certified-CE")
    grid_checks = []
    for m, resolution in ((3, 14), (4, 8)):
        ch = make_em1(m)
        for label, sub in (("S0", ch.payload.s0), ("S1", ch.payload.s1)):
            cert = certify_completely_entangled(sub, restarts=200, seed=0,
                                                label=f"em1({m})/{label}")
            results.append(cert.verdict == "certified-CE")
            grid = grid_product_overlap(sub, resolution)
            grid_checks.append(abs(grid - cert.max_overlap_found) <= 0.05)
    elapsed = time.perf_counter() - started
    _verdict(2, all(results) and all(grid_checks) and elapsed < 60.0,
             f"8 certificates, {len(grid_checks)} grid cross-checks within "
             f"0.05, {elapsed:.1f}s")


def test_criterion_3_two_use_transmission():
    e21 = make_e21()
    power = tensor_power(e21, 2)
    ok = True
    for slot in ("A", "A'", "B", "B'"):
        code = build_two_use_code(e21, slot)
        out0 = apply_channel_to_ket(power, code.inputs[0])
        out1 = apply_channel_to_ket(power, code.inputs[1])
        ok &= max_abs(out0 - EXPECTED_SAME) <= 1e-10
        ok &= max_abs(out1 - EXPECTED_FLIP) <= 1e-10
        cert = verify_orthogonal_outputs(power, code)
        ok &= abs(cert.overlaps[0, 1]) <= 1e-10
        ok &= all(check_local_preparability(psi, code.dims,
                                            code.sender_partition)
                  for psi in code.inputs)
    ok &= capacity_lower_bound(2, 2) == 0.5
    _verdict(3, bool(ok), "expected output pair and orthogonality for all "
                          "four slots; rate bound 0.5")


def test_criterion_4_alpha_local_certificates():
    checks = []
    for ch in (make_e21(), make_variant34(), make_em1(3), make_em1(4)):
        cert = certify_alpha_local_one(ch, restarts=200, seed=0)
        checks.append(cert.alpha_local_one)
    # trivial-party extension: certificate carries over and the two-use code
    # still works, giving the same one-use/two-use contrast
    extended = extend_trivial_parties(make_e21(), [2], [2])
    cert = certify_alpha_local_one(extended, restarts=200, seed=0)
    checks.append(cert.alpha_local_one)
    power = tensor_power(extended, 2)
    code = build_two_use_code(extended, "A")
    cert2 = verify_orthogonal_outputs(power, code)
    checks.append(cert2.orthogonal)
    _verdict(4, all(checks),
             "one-shot no-transmission certificates for all constructions, "
             "preserved under trivial-party extension")


def test_criterion_5_teleportation_decoder():
    started = time.perf_counter()
    e12 = make_e12()
    power = tensor_power(e12, 2)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    rho01 = np.zeros((4, 4), dtype=complex)
    rho01[1, 1] = 1.0
    p0 = teleportation_decode(apply_channel(power, rho00))[0]
    p1 = teleportation_decode(apply_channel(power, rho01))[1]
    decode_ok = abs(p0 - 1.0) <= 1e-10 and abs(p1 - 1.0) <= 1e-10
    rng = np.random.default_rng(0)
    identity_ok = True
    for _ in range(100):
        rho = random_density(2, rng)
        identity_ok &= trace_distance(teleport_qubit(rho), rho) <= 1e-10
    elapsed = time.perf_counter() - started
    _verdict(5, decode_ok and bool(identity_ok) and elapsed < 1.0,
             f"perfect decoding of both codewords, identity on 100 random "
             f"states, {elapsed:.2f}s")


def test_criterion_6_privacy():
    e21 = make_e21()
    power = tensor_power(e21, 2)
    out_a = apply_channel_to_ket(power, build_two_use_code(e21, "A").inputs[1])
    out_b = apply_channel_to_ket(power, build_two_use_code(e21, "B").inputs[1])
    out_0 = apply_channel_to_ket(power, build_two_use_code(e21, "A").inputs[0])
    ok = max_abs(out_a - out_b) <= 1e-10
    ok &= abs(np.trace(out_a @ out_0)) <= 1e-10
    for m in (3, 4):
        ch = make_em1(m)
        for i in range(m):
            for j in range(i + 1, m):
                passed, _ = privacy_check(ch, (i, j))
                ok &= passed
    broken, details = privacy_check(extend_trivial_parties(e21, [2], []), (2, 0))
    ok &= not broken and details["output_difference"] > 0.1
    _verdict(6, bool(ok), "message slots indistinguishable to the other "
                          "sender; trivial extension breaks the property")


def test_criterion_7_renyi_gap(tmp_path):
    started = time.perf_counter()
    e21 = make_e21()
    report = additivity_gap_at_zero(e21.payload.s0, budget=5000, seed=0)
    ok = report.verdict == "gap-found"
    ok &= report.single_use_floor >= 2          # certified via the complement
    ok &= report.complement_certificate.verdict == "certified-CE"
    ok &= report.two_use_result is not None
    witness = report.two_use_result.achiever
    two = tensor_power(make_cj_channel(e21.payload.s0), 2)
    spectrum = np.clip(np.linalg.eigvalsh(apply_channel_to_ket(two, witness)),
                       0, None)[::-1]
    ok &= spectrum_rank(spectrum) == report.two_use_rank
    ok &= report.two_use_bits < 2 * report.single_use_bits
    variant = additivity_gap_at_zero(make_variant34().payload.s0, budget=1000,
                                     seed=0)
    ok &= variant.verdict == "gap-found"
    # budget exhaustion surfaces as a distinct exit code, never a silent pass
    out = tmp_path / "starved.json"
    code = cli_main(["renyi-gap", "--builtin", "e21", "--budget", "100",
                     "--restarts", "2", "--seed", "0", "--out", str(out)])
    ok &= code == 2
    elapsed = time.perf_counter() - started
    _verdict(7, bool(ok),
             f"gap certified for both subspace constructions with stored "
             f"witnesses; starved run exits inconclusive, {elapsed:.1f}s")
    assert elapsed < 600.0


def test_criterion_8_property_bundle():
    rng = np.random.default_rng(1)
    ok = True
    # projector idempotence / completeness
    e21 = make_e21()
    p0, p1 = e21.payload.s0.projector, e21.payload.s1.projector
    ok &= max_abs(p0 @ p0 - p0) <= 1e-10
    ok &= max_abs(p0 + p1 - np.eye(16)) <= 1e-10
    # channel trace preservation
    for ch in (e21, make_e12(), make_em1(3), make_variant34()):
        ok &= check_trace_preserving(ch) <= 1e-9
        rho = random_density(ch.in_dim, rng)
        out = apply_channel(ch, rho)
        ok &= abs(np.trace(out).real - 1.0) <= 1e-9
        ok &= np.linalg.eigvalsh(out)[0] >= -1e-9
    # entropy monotone in p, additive on product states
    orders = [0, 0.5, 1, 2, np.inf]
    for _ in range(20):
        rho = random_density(5, rng)
        vals = [renyi_entropy(rho, p) for p in orders]
        ok &= all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        sigma = random_density(3, rng)
        for p in orders:
            joint = renyi_entropy(np.kron(rho, sigma), p)
            ok &= abs(joint - renyi_entropy(rho, p) - renyi_entropy(sigma, p)) <= 1e-9
    # quadratic-form identity of the two-use codeword, 100 random pairs
    phi = max_entangled_ket(16)
    for _ in range(100):
        r1 = random_hermitian(16, rng)
        r2 = random_hermitian(16, rng)
        lhs = np.vdot(phi, np.kron(r1, r2) @ phi) * 16
        ok &= abs(lhs - np.trace(r1.T @ r2)) <= 1e-9
    _verdict(8, bool(ok), "module invariants hold at stated tolerances")
