import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import zecap.channels
import zecap.cli
import zecap.protocols
import zecap.specio
import zecap.subspaces
from conftest import (
    CONJUGATE_BUILTINS,
    SPEC_CASES,
    case_channel,
    case_source,
    locally_phased_e21_spec,
    variant34_slot_a_spec,
)
from zecap.cli import _GRID_RESOLUTIONS, main
from zecap.linalg import max_abs
from zecap.protocols import certify_alpha_local_one
from zecap.specio import Report, channel_from_spec, describe_channel, make_builtin
from zecap.subspaces import grid_product_overlap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAP_E21 = ["renyi-gap", "--builtin", "e21", "--budget", "5000"]


def run(args):
    return main(args)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_verify_e21_core_suites(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "e21",
                "--suite", "properties,ce,two-use,privacy",
                "--seed", "7", "--restarts", "120", "--out", str(out)])
    assert code == 0
    doc = read_report(out)
    assert doc["verdict"] == "pass"
    names = {c["name"] for c in doc["checks"]}
    assert "properties/exact/transpose[0]" in names
    assert "ce/alpha-local-one" in names
    assert "two-use/A'/orthogonal" in names
    assert "privacy/AB" in names


def test_verify_em1_suites(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "em1:3",
                "--suite", "properties,ce,two-use,privacy",
                "--seed", "3", "--restarts", "120", "--out", str(out)])
    assert code == 0
    assert read_report(out)["verdict"] == "pass"


@pytest.fixture
def searched(monkeypatch):
    """The seed of every product-state search the test runs, in order."""
    seeds = []
    search = zecap.subspaces.max_product_overlap

    def counting(subspace, **kwargs):
        seeds.append(kwargs["seed"])
        return search(subspace, **kwargs)

    monkeypatch.setattr(zecap.subspaces, "max_product_overlap", counting)
    return seeds


def test_verify_ce_searches_s0_once(tmp_path, searched):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "em1:4", "--suite", "ce", "--seed", "4",
                "--restarts", "100", "--out", str(out)])
    assert code == 0
    # the one-shot certificate's S0 search at seed 4 is the ce/S0 row, and
    # S1 = D S0 carries it over to the ce/S1 row
    assert searched == [4]
    names = [c["name"] for c in read_report(out)["checks"]]
    assert names == ["channel/trace-preserving", "ce/S0", "ce/S0/grid",
                     "ce/S1", "ce/S1/grid", "ce/alpha-local-one"]


def test_every_grid_resolution_is_even():
    # D_u adds pi to a grid phase, which is a grid step only at even resolution
    assert all(res % 2 == 0 for res in _GRID_RESOLUTIONS.values())


@pytest.mark.parametrize("builtin", ["em1:2", "em1:3", "em1:4"])
@pytest.mark.parametrize("from_spec", [False, True], ids=["builtin", "spec"])
def test_a_carried_over_s1_reports_s0s_grid_value(builtin, from_spec, tmp_path):
    if from_spec:
        path = tmp_path / "spec.json"
        assert run(["describe", builtin, "--out", str(path)]) == 0
        source = ["--spec", str(path)]
    else:
        source = ["--builtin", builtin]
    out = tmp_path / "report.json"
    run(["verify", *source, "--suite", "ce", "--restarts", "100", "--out", str(out)])
    checks = _checks(out)
    assert checks["ce/S1/grid"]["value"] == checks["ce/S0/grid"]["value"]
    # S1's own grid agrees to rounding
    payload = make_builtin(builtin).payload
    res = _GRID_RESOLUTIONS[2 * len(payload.s0.dims)]
    assert abs(checks["ce/S1/grid"]["value"] - grid_product_overlap(payload.s1, res)) <= 1e-12


@pytest.fixture
def gridded(monkeypatch):
    """The projector of every subspace the ce suite's grid oracle evaluates."""
    projectors = []
    grid = zecap.cli.grid_product_overlap

    def counting(subspace, resolution):
        projectors.append(subspace.projector)
        return grid(subspace, resolution)

    monkeypatch.setattr(zecap.cli, "grid_product_overlap", counting)
    return projectors


def test_verify_ce_evaluates_s1s_grid_only_without_s1_equal_to_d_s0(tmp_path, gridded):
    out = tmp_path / "report.json"
    assert run(["verify", "--builtin", "em1:3", "--suite", "ce", "--restarts", "100",
                "--out", str(out)]) == 0
    assert len(gridded) == 1
    assert np.array_equal(gridded[0], make_builtin("em1:3").payload.s0.projector)
    # S0 = span{|00> + |11>} has 1 of 4 dimensions, so S1 = D S0 cannot hold
    one = {"re": {"r": [1, 1]}}
    spec = {"format": "zecap-channel/1", "name": "bell-line", "kind": "binary-projective",
            "sender_dims": [2, 2], "receiver_dims": [2], "u_slots": [0],
            "s0_basis": [[{"index": 0, "coeff": one}, {"index": 3, "coeff": one}]]}
    gridded.clear()
    run(["verify", "--spec", _write_spec(tmp_path, spec), "--suite", "ce",
         "--restarts", "100", "--out", str(out)])
    payload = channel_from_spec(spec).payload
    assert len(gridded) == 2
    assert np.array_equal(gridded[1], payload.s1.projector)
    checks = _checks(out)
    assert checks["ce/S1/grid"]["value"] != checks["ce/S0/grid"]["value"]


def test_oversized_input_is_usage_error_before_allocation(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("spanning vectors built for an oversized channel")

    monkeypatch.setattr(zecap.channels, "em1_spanning_terms", refuse)
    monkeypatch.setattr(zecap.channels, "ket_from_terms", refuse)
    assert run(["verify", "--builtin", "em1:40", "--suite", "ce"]) == 3
    assert run(["describe", "em1:40"]) == 3
    # past the largest C ssize_t, where itertools.repeat overflows
    assert run(["describe", "em1:99999999999999999999"]) == 3
    assert run(["verify", "--builtin", "em1:99999999999999999999", "--suite", "ce"]) == 3
    spec = {"format": "zecap-channel/1", "kind": "binary-projective",
            "sender_dims": [1000, 1000], "receiver_dims": [2],
            "s0_basis": [[{"index": 0, "coeff": {}}]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    assert run(["verify", "--spec", str(path), "--suite", "properties"]) == 3


def test_verify_variant_slot_b_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "variant34", "--suite", "properties",
                "--slots", "B", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert read_report(out)["verdict"] == "pass"


def test_verify_variant_slot_a_fails(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "variant34", "--suite", "properties",
                "--slots", "A,B", "--seed", "1", "--out", str(out)])
    assert code == 1
    doc = read_report(out)
    assert doc["verdict"] == "fail"
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert any("@0" in name for name in failed)
    assert all("@1" not in name for name in failed)


def test_verify_e12_teleport(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--builtin", "e12", "--suite", "all",
                "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = read_report(out)
    assert doc["verdict"] == "pass"
    names = {c["name"] for c in doc["checks"]}
    assert "teleport/codeword-0" in names
    assumed = [c for c in doc["checks"]
               if c["name"] == "teleport/assumed-indistinguishable"]
    assert assumed and assumed[0]["informational"]


def test_the_teleport_suite_applies_and_decodes_each_codeword_once(tmp_path, monkeypatch):
    calls = []
    for module, name in [(zecap.channels, "apply_channel"), (zecap.cli, "apply_channel"),
                         (zecap.protocols, "apply_channel_to_ket"),
                         (zecap.cli, "teleportation_decode"),
                         (zecap.protocols, "teleportation_decode")]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    out = tmp_path / "report.json"
    assert run(["verify", "--builtin", "e12", "--suite", "teleport", "--out", str(out)]) == 0
    assert sorted(calls) == ["apply_channel_to_ket"] * 2 + ["teleportation_decode"] * 2
    checks = _checks(out)
    assert checks["teleport/locc-decoder"]["value"] == "teleportation-LOCC"
    assert all(checks[f"teleport/codeword-{k}"]["passed"] for k in (0, 1))


def test_verify_inapplicable_suite_is_usage_error(tmp_path):
    code = run(["verify", "--builtin", "e12", "--suite", "ce",
                "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_verify_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--builtin", "em1:3", "--suite", "properties,two-use",
            "--seed", "11"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_failed_row_outranks_an_undecided_suite(tmp_path):
    # e21 with |01> added to S0: S0 now holds a product state (ce/S0 fails)
    # while the gap run cannot certify its rank floor (renyi is undecided)
    spec = describe_channel(make_builtin("e21"))
    one = {"r": [1, 1], "s": [0, 1]}
    spec["s0_basis"].append([{"index": 1, "coeff": {"re": one}}])
    spec["subspace_dims"] = [9, 7]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    code = run(["verify", "--spec", str(path), "--suite", "ce,renyi", "--seed", "0",
                "--restarts", "100", "--budget", "200", "--out", str(out)])
    doc = read_report(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["ce/S0"]["value"] >= 1 - 1e-6 and not checks["ce/S0"]["passed"]
    assert checks["renyi/verdict"]["value"] == "inconclusive"
    assert (code, doc["verdict"]) == (1, "fail")


def test_ce_grid_on_a_one_dimensional_sender(tmp_path):
    # C^1 (x) C^3 holds only product states; the grid oracle runs (4 product
    # parameters) and must give the 1-dim party its one grid ket
    one = {"r": [1, 1], "s": [0, 1]}
    spec = {"format": "zecap-channel/1", "name": "one-by-three",
            "kind": "binary-projective", "sender_dims": [1, 3], "receiver_dims": [2],
            "u_slots": [1], "s0_basis": [[{"index": 0, "coeff": {"re": one}},
                                          {"index": 1, "coeff": {"im": one}}]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert run(["verify", "--spec", str(path), "--suite", "ce", "--restarts", "100",
                "--out", str(out)]) == 1
    checks = {c["name"]: c["value"] for c in read_report(out)["checks"]}
    assert checks["ce/S0"] >= 1 - 1e-6 and checks["ce/S0/grid"] >= 1 - 0.05


def test_one_sender_spec_reports_its_product_states(tmp_path):
    # every state of a single party is a product state: the ce rows fail with
    # overlap 1 in a report, not in a traceback
    unit = {"r": [1, 1], "s": [0, 1]}
    spec = {"format": "zecap-channel/1", "name": "one-sender",
            "kind": "binary-projective", "sender_dims": [2], "receiver_dims": [2],
            "u_slots": [0], "s0_basis": [[{"index": 0, "coeff": {"re": unit}}]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for suite in ("all", "ce"):
        out = tmp_path / f"{suite}.json"
        assert run(["verify", "--spec", str(path), "--suite", suite, "--seed", "0",
                    "--out", str(out)]) == 1
        doc = read_report(out)
        checks = {c["name"]: c for c in doc["checks"]}
        assert doc["verdict"] == "fail"
        for label in ("S0", "S1"):
            assert checks[f"ce/{label}"]["value"] == 1.0
            assert checks[f"ce/{label}"]["passed"] is False
        assert checks["ce/alpha-local-one"]["value"] is False


# sha256 of two whole reports, pinned when the gap search began to stop at
# its verdict; any later change to their bytes is a behaviour change to argue.
# `verify --spec e21` was re-pinned when 3- and 4-dim slot steps became
# closed form: its ce/S0 and ce/S1 values moved by 1e-15. Both `verify`
# entries were re-pinned when the rows no channel can change were dropped:
# e12's report lost teleport/identity and teleport/rate, e21's two-use/rate.
# em1:4's `verify` and variant34's `renyi-gap` (the ce-multiparty and second
# renyi-gap benchmark operations) were pinned before the uncertified gap
# runs stopped searching two-use ranks, which leaves both as they were.
# Both `verify` entries on flag channels were re-pinned when the two-use and
# privacy rows came from flag distributions instead of the two-use Kraus
# route: em1:4's two-use/*/orthogonal moved from 5.00468046766525e-34 to
# 5.00468046766524e-34 and e21's privacy/AB from 1.52930143400743e-32 to
# 1.52930143400742e-32, and no other byte moved
GOLDEN_DIGESTS = {
    "describe e12": "f78ba61dc79caf997559707f8b0554815065fd76fc94a151020749652cf9b4d1",
    "describe e21": "d6e18f20e93ced93be7fc9bd0d9d2fe570fbcab3d5916073a9d7827f65c13310",
    "renyi-gap e21": "881e3f283b7eac18681fe7d85014fea7ba70b8194050ef16519fa245f84c73fe",
    "renyi-gap variant34": "07ede4c30a4e47dfcf1388ac34490e6a7364c5c98d1ef14d8ab2d9de759fe439",
    "verify --builtin em1:4": "4ce04fbc684ae3d50a30e4dd6595b7fa3f8080585b18f479f69c79e2f088505c",
    "verify --builtin e12": "0d8129e00d33c19074aba7c7847accea7e0041d7b35280174226649dd54e955f",
    "verify --spec e21": "5f2c934de952f73d06d3d9e5047d59a0427e26a8fcb4baa68e6b23bc6605eeb1",
}


def test_golden_report_digests(tmp_path, capsys):
    spec = tmp_path / "e21.json"
    digests = {}
    for label, argv in (
            ("describe e12", ["describe", "e12"]),
            ("describe e21", ["describe", "e21", "--out", str(spec)]),
            ("renyi-gap e21", ["renyi-gap", "--builtin", "e21", "--budget", "5000",
                               "--seed", "0"]),
            ("renyi-gap variant34", ["renyi-gap", "--builtin", "variant34",
                                     "--budget", "5000", "--seed", "0"]),
            ("verify --builtin em1:4", ["verify", "--builtin", "em1:4", "--suite", "all",
                                        "--restarts", "100", "--seed", "0"]),
            ("verify --builtin e12", ["verify", "--builtin", "e12", "--seed", "0"]),
            ("verify --spec e21", ["verify", "--spec", str(spec), "--suite", "all",
                                   "--seed", "0"])):
        capsys.readouterr()
        assert run(argv) == 0
        text = spec.read_text() if "--out" in argv else capsys.readouterr().out
        digests[label] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_DIGESTS


# sha256 of `verify --spec em1:2 --suite all` at three seeds, pinned before
# the two-use rank search was skipped at single-use rank 1: the skip leaves
# every verify byte as it was
EM1_2_DIGESTS = {
    0: "8485260a62958cdfc2b3747b598d0d7f1e14e4ffa650bb3734d35a72fae083bc",
    1: "39087a619f11e779a0a8b5aed7bec6a4a00cfe12fbe870410126a1675184b791",
    7: "a1cfceda717474f5d9ab89fbb999ec14c7603e37eeaf4cdb3b1895cf845b0fde",
}


def test_skipping_em1_2s_two_use_search_keeps_its_reports(tmp_path, capsys):
    spec = tmp_path / "em1_2.json"
    assert run(["describe", "em1:2", "--out", str(spec)]) == 0
    digests = {}
    for seed in EM1_2_DIGESTS:
        capsys.readouterr()
        assert run(["verify", "--spec", str(spec), "--suite", "all", "--seed", str(seed)]) == 1
        digests[seed] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == EM1_2_DIGESTS


# exit code and sha256 of more `verify` reports, pinned before the float
# identity rows came from one table keyed like the exact rows: e21+01 and
# e21-last take the exact-projector route, and the float rows of the last two
# are ordered by their first listed slot; (source, --suite, --slots) at seed 0
VERIFY_DIGESTS = {
    ("variant34", "all", None):
        (0, "3a4dd37dfc43ffcc577458e7f3a5c321786ae91dc5c3a4ddcc99c0c27e030a63"),
    ("em1:3", "all", None):
        (0, "34b42aa2ad4bdd32f764629a06f84c570bc35e1882dea9c4cfb7e583eac83e6b"),
    ("em1:5", "all", None):
        (0, "5b807143dacb094727313cf357e0675722aa58a079d649d2e39dc4e3b65abd86"),
    ("e21-phased", "all", None):
        (1, "940ff40bb4af14e56830c02afeeb1726aee926c07b27fe0fa02f2ff0cf0b3bec"),
    ("e21+01", "all", None):
        (1, "deadb2a0d1916b43636cc7964528a5ed63949f962c936a7729b575d6b459c87c"),
    ("e21-last", "all", None):
        (1, "7eb2ea7e4f3ae4311e516beee7a4b95784a6223571a6ea1f0e1f52577004118e"),
    ("variant34@A", "all", None):
        (1, "b8fae12996d5ff568e62766e7c01bc51542211d9ca4e02c8abf7b6c2b2776c0d"),
    ("e21", "properties", "B,A"):
        (0, "42a58a23e4d8e3c29ad9ad3054fcce17b3396a179d584c3e181fa13eb86c86d6"),
    ("variant34", "properties", "B"):
        (0, "18e68a9711bd5e62fb6e3ed2a917d894efeae96c557676c22d924c14135965f3"),
}


@pytest.mark.parametrize("case, suite, slots", list(VERIFY_DIGESTS))
def test_verify_report_digests(case, suite, slots, tmp_path, capsys):
    argv = ["verify", *case_source(case, tmp_path), "--suite", suite, "--seed", "0"]
    capsys.readouterr()
    code = run(argv + (["--slots", slots] if slots else []))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == VERIFY_DIGESTS[case, suite, slots]


def test_renyi_gap_e21(tmp_path):
    out = tmp_path / "gap.json"
    code = run(["renyi-gap", "--builtin", "e21", "--budget", "300",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    doc = read_report(out)
    assert doc["verdict"] == "pass"
    assert doc["extra"]["single_use_floor"] == 4
    assert doc["extra"]["two_use_rank"] == 15
    assert len(doc["extra"]["witness"]) == 16


@pytest.mark.parametrize("args", [
    ["renyi-gap", "--budget", "-3"],
    ["renyi-gap", "--budget", "0"],
    ["verify", "--suite", "renyi", "--budget", "0"],
    ["verify", "--suite", "all", "--budget", "0"],
    ["renyi-gap", "--budget", "100001"],
    ["renyi-gap", "--budget", "100000000"],
    ["verify", "--suite", "renyi", "--budget", "100001"],
])
def test_budget_below_one_is_a_usage_error(args, tmp_path, capsys, searched):
    out = tmp_path / "report.json"
    assert run(args + ["--builtin", "e21", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: budget") and err.count("\n") == 1, err
    assert not out.exists()
    # refused before any suite runs
    assert searched == []


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["renyi-gap"]])
@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--restarts", "0"),
                                         ("--restarts", "-4"), ("--restarts", "5001"),
                                         ("--restarts", "5000000")])
def test_bad_seed_or_restarts_is_refused_before_any_suite(command, flag, value,
                                                          tmp_path, capsys, searched):
    out = tmp_path / "report.json"
    assert run(command + ["--builtin", "e21", flag, value, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1, err
    assert not out.exists()
    assert searched == []


@pytest.mark.parametrize("command", [["verify", "--suite", "all"], ["renyi-gap"]])
@pytest.mark.parametrize("value", ["abc", "-2", "1.5", ""])
def test_malformed_seed_env_is_a_usage_error(command, value, tmp_path, capsys,
                                             monkeypatch, searched):
    monkeypatch.setenv("ZECAP_SEED", value)
    out = tmp_path / "report.json"
    assert run(command + ["--builtin", "e21", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ZECAP_SEED must be") and err.count("\n") == 1, err
    assert not out.exists()
    assert searched == []


def _checks(path):
    return {c["name"]: c for c in read_report(path)["checks"]}


@pytest.mark.parametrize("suite, searches", [
    ("all", 1),
    ("renyi", 1),
    ("renyi,ce", 1),
    ("ce,renyi", 1),
])
def test_verify_searches_s1_once_for_ce_and_renyi(suite, searches, tmp_path, searched):
    # S0's complement is S1: the renyi suite's complement certificate and the
    # ce suite's S1 certificate are one certificate, whichever suite runs
    # first, and for e21 it is S0's search carried over by S1 = D S0
    out = tmp_path / "report.json"
    args = ["--builtin", "e21", "--seed", "5", "--restarts", "200", "--budget", "200"]
    assert run(["verify", "--suite", suite, *args, "--out", str(out)]) == 0
    assert searched == [5] * searches
    rows = _checks(out)
    for alone in suite.split(","):
        if alone == "all":
            continue
        path = tmp_path / f"{alone}.json"
        assert run(["verify", "--suite", alone, *args, "--out", str(path)]) == 0
        for name, row in _checks(path).items():
            assert rows[name] == row


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("case", [*CONJUGATE_BUILTINS, *SPEC_CASES])
def test_verify_all_searches_s1_only_when_s1_is_not_d_s0(case, tmp_path, searched):
    # with S1 = D S0 proved exactly, S0's search certifies S1 as well; the
    # other specs keep their separate S1 search
    run(["verify", *case_source(case, tmp_path), "--suite", "all", "--seed", "2",
         "--restarts", "100", "--budget", "200", "--out", str(tmp_path / "report.json")])
    searches = 2 if case in ("e21+01", "e21-last", "variant34@A") else 1
    assert searched == [2] * searches


@pytest.mark.parametrize("spec, searched_subspace", [
    (lambda: describe_channel(make_builtin("e21")), "s0"),
    (variant34_slot_a_spec, "s1"),
], ids=["e21", "variant34@A"])
def test_renyi_alone_searches_s0_when_s1_is_d_s0(spec, searched_subspace, tmp_path,
                                                monkeypatch):
    # with S1 = D S0 the renyi suite's complement certificate is S0's search
    # carried over, as under every other suite list; without it S1 is searched
    spec = spec()
    projectors = []
    search = zecap.subspaces.max_product_overlap

    def recording(subspace, **kwargs):
        projectors.append(subspace.projector)
        return search(subspace, **kwargs)

    monkeypatch.setattr(zecap.subspaces, "max_product_overlap", recording)
    run(["verify", "--spec", _write_spec(tmp_path, spec), "--suite", "renyi",
         "--restarts", "100", "--budget", "200", "--out", str(tmp_path / "report.json")])
    payload = channel_from_spec(spec).payload
    assert len(projectors) == 1
    assert np.array_equal(projectors[0], getattr(payload, searched_subspace).projector)


@pytest.mark.parametrize("case", ["e21", "variant34", "variant34@A"])
def test_ce_and_renyi_rows_do_not_depend_on_the_suite_order(case, tmp_path):
    source = case_source(case, tmp_path)
    rows = []
    for suite in ("all", "ce", "renyi", "ce,renyi", "renyi,ce"):
        out = tmp_path / "report.json"
        run(["verify", *source, "--suite", suite, "--seed", "6", "--restarts", "100",
             "--budget", "200", "--out", str(out)])
        rows.append({name: json.dumps(row) for name, row in _checks(out).items()
                     if name.startswith(("ce/", "renyi/"))})
    assert rows[1] and rows[2]
    assert rows[0] == rows[3] == rows[4] == {**rows[1], **rows[2]}


def test_renyi_gap_needs_two_senders(tmp_path):
    code = run(["renyi-gap", "--builtin", "em1:3",
                "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_renyi_gap_full_space_spec(tmp_path):
    unit = {"r": [1, 1], "s": [0, 1]}
    spec = {
        "format": "zecap-channel/1",
        "name": "full-span",
        "kind": "binary-projective",
        "sender_dims": [2, 2],
        "receiver_dims": [2],
        "u_slots": [0, 1],
        "s0_basis": [[{"index": i, "coeff": {"re": unit}}] for i in range(4)],
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "gap.json"
    code = run(["renyi-gap", "--spec", str(path), "--budget", "50",
                "--seed", "0", "--out", str(out)])
    assert code == 0
    doc = read_report(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["renyi/verdict"]["value"] == "no-gap"


def test_describe_builtins(tmp_path):
    for name, basis_count in [("e21", 8), ("em1:4", 8), ("variant34", 6)]:
        out = tmp_path / "spec.json"
        assert run(["describe", name, "--out", str(out)]) == 0
        doc = read_report(out)
        assert len(doc["s0_basis"]) == basis_count
    assert run(["describe", "e12", "--out", str(tmp_path / "e12.json")]) == 0
    doc = read_report(tmp_path / "e12.json")
    assert doc["kind"] == "cq"
    assert len(doc["outputs"]) == 2


def test_describe_unknown_builtin():
    assert run(["describe", "nonsense"]) == 3


def test_describe_roundtrip_through_file(tmp_path):
    spec_path = tmp_path / "e21.json"
    assert run(["describe", "e21", "--out", str(spec_path)]) == 0
    report = tmp_path / "report.json"
    code = run(["verify", "--spec", str(spec_path), "--suite", "properties",
                "--seed", "0", "--out", str(report)])
    assert code == 0
    original = make_builtin("e21")
    loaded = channel_from_spec(read_report(spec_path))
    assert max_abs(loaded.payload.s0.projector
                   - original.payload.s0.projector) < 1e-12


def write_locally_phased_e21(tmp_path):
    """e21 with a phase i on every s0_basis term whose A digit is 1."""
    spec_path = tmp_path / "e21.json"
    spec_path.write_text(json.dumps(locally_phased_e21_spec()))
    return spec_path


def test_locally_phased_spec_keeps_float_and_exact_verdicts_together(tmp_path):
    # a phase i on every term whose A digit is 1 is a local unitary on A:
    # the measurement stays complete and both subspaces stay product-free
    spec_path = write_locally_phased_e21(tmp_path)
    out = tmp_path / "report.json"
    run(["verify", "--spec", str(spec_path), "--suite", "properties",
         "--out", str(out)])
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    assert checks["channel/trace-preserving"]["value"] < 1e-12
    exact = [n for n in checks if n.startswith("properties/exact/")]
    assert len(exact) == 12
    for name in exact:
        float_name = name.replace("exact/", "")
        assert checks[name]["passed"] == checks[float_name]["passed"], name
    assert checks["properties/exact/conjugation[0]@0"]["passed"]
    code = run(["verify", "--spec", str(spec_path), "--suite", "ce",
                "--restarts", "100", "--out", str(out)])
    assert code == 0
    checks = {c["name"]: c for c in read_report(out)["checks"]}
    assert checks["ce/S0"]["passed"] and checks["ce/S1"]["passed"]


@pytest.mark.parametrize("case", [*CONJUGATE_BUILTINS, "em1:6", *SPEC_CASES])
@pytest.mark.parametrize("all_slots", [False, True], ids=["u_slots", "all-slots"])
def test_float_and_exact_property_rows_agree(case, all_slots, tmp_path):
    # every float projector residual passes exactly when its exact identity holds
    args = case_source(case, tmp_path)
    if all_slots:
        args += ["--slots", ",".join(chr(ord("A") + t)
                                     for t in range(len(case_channel(case).sender_dims)))]
    out = tmp_path / "report.json"
    run(["verify", *args, "--suite", "properties", "--out", str(out)])
    rows = {c["name"]: c["passed"] for c in read_report(out)["checks"]
            if c["name"].startswith("properties/")}
    exact = {n.replace("exact/", ""): ok for n, ok in rows.items() if "/exact/" in n}
    assert exact and exact == {n: ok for n, ok in rows.items() if "/exact/" not in n}


def test_default_suites_include_renyi_for_a_complex_s0(tmp_path):
    # the p = 0 rank floor needs no real S0, so `--suite all` runs renyi too;
    # the two-use code is fixed to the computational basis, which this local
    # phase breaks, so the verdict is fail
    spec_path = write_locally_phased_e21(tmp_path)
    out = tmp_path / "report.json"
    assert run(["verify", "--spec", str(spec_path), "--suite", "all",
                "--restarts", "100", "--out", str(out)]) == 1
    doc = read_report(out)
    assert "renyi" in doc["extra"]["suites"].split(",")
    checks = {c["name"]: c["value"] for c in doc["checks"]}
    assert [n for n in checks if n.startswith("renyi/")] == [
        "renyi/single-use-rank", "renyi/two-use-rank", "renyi/verdict"]
    assert checks["renyi/single-use-rank"] == 4
    # the complement is certified, but the computational-basis seeds miss
    # the rank-15 input that e21's maximally entangled seed is
    assert run(["renyi-gap", "--spec", str(spec_path), "--budget", "300",
                "--out", str(out)]) == 2
    doc = read_report(out)
    assert doc["extra"]["single_use_floor"] == 4
    assert {c["name"]: c["value"] for c in doc["checks"]}["renyi/verdict"] == "inconclusive"


def test_linearly_dependent_s0_basis_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "e21.json"
    assert run(["describe", "e21", "--out", str(spec_path)]) == 0
    spec = read_report(spec_path)
    # 9 vectors of rank 8; then 8 of rank 7, where 2k = total holds by count,
    # which the exact properties rows would take as dim S0
    appended = {**spec, "s0_basis": spec["s0_basis"] + spec["s0_basis"][:1]}
    replaced = {**spec, "s0_basis": spec["s0_basis"][:-1] + spec["s0_basis"][:1]}
    for bad in (appended, replaced):
        spec_path.write_text(json.dumps(bad))
        for suite in ("properties", "ce"):
            assert run(["verify", "--spec", str(spec_path), "--suite", suite]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: s0_basis") and err.count("\n") == 1


def run_python(*args):
    """Run a fresh interpreter on the checkout's sources."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          timeout=300)


# after the import, after a renyi-gap run and after em1:2's rank search
# (whose L-BFGS walk runs): the exit code and the scipy modules loaded
_SCIPY_PROBE = f"""
import contextlib, io, json, sys
import zecap, zecap.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy.optimize" or m.startswith("scipy.linalg"))

seen = [loaded()]
for argv in ({GAP_E21!r}, ["verify", "--builtin", "em1:2", "--suite", "renyi"]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([zecap.cli.main(argv), loaded()])
print(json.dumps(seen))
"""


def test_scipy_is_imported_only_when_the_walk_runs():
    proc = run_python("-c", _SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    imported, gap, walk = json.loads(proc.stdout)
    assert imported == []
    assert gap == [0, []]
    assert walk[0] == 1 and "scipy.optimize" in walk[1]


def test_python_dash_m_zecap_prints_the_cli_report(capsys):
    proc = run_python("-m", "zecap", *GAP_E21)
    assert proc.returncode == 0, proc.stderr
    assert run(GAP_E21) == 0
    assert proc.stdout == capsys.readouterr().out


def test_tracer_binds_every_traced_function(monkeypatch):
    # the benchmark's tracer patches functions by the names zecap modules
    # import them under; a rename or a new import must fail here
    bench = os.path.join(ROOT, "bench")
    monkeypatch.syspath_prepend(bench)
    importlib.import_module("tracer").check_targets()


def test_malformed_spec_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "zecap-channel/1", "kind": "mystery",
                               "sender_dims": [2], "receiver_dims": [2]}))
    code = run(["verify", "--spec", str(bad), "--suite", "properties"])
    assert code == 3


def test_missing_channel_argument_is_usage_error():
    assert run(["verify", "--suite", "properties"]) == 3


def test_two_use_checks_psi0_once(tmp_path, monkeypatch):
    # a slot's flipped codeword is psi0 up to a diagonal unitary inside one
    # sender group, so psi0's one check stands for em1:4's 8 slots (the
    # reference test in test_protocols checks every flipped codeword)
    checked = []
    check = zecap.cli.check_local_preparability

    def counting(state, dims, partition):
        checked.append(state)
        return check(state, dims, partition)

    monkeypatch.setattr(zecap.cli, "check_local_preparability", counting)
    out = tmp_path / "r.json"
    assert run(["verify", "--builtin", "em1:4", "--suite", "two-use", "--out", str(out)]) == 0
    assert len(checked) == 1
    local = [c for name, c in _checks(out).items() if name.endswith("/local")]
    assert len(local) == 8 and all(c["value"] is True for c in local)


@pytest.mark.parametrize("builtin, senders", [("e21", 2), ("em1:3", 3), ("em1:4", 4)])
def test_two_use_and_privacy_make_no_two_use_application(builtin, senders, tmp_path,
                                                         monkeypatch):
    # both suites read the flag distributions of psi0 and of one flip per
    # sender, slot s + m flipping the ket of slot s, made once for both
    # suites, and apply no channel
    applied, flagged = [], []
    apply, flags = zecap.protocols.apply_channel_to_ket, zecap.cli.flag_distribution

    def counting(channel, psi):
        applied.append(psi)
        return apply(channel, psi)

    def counting_flags(channel, slot=None):
        flagged.append(slot)
        return flags(channel, slot)

    monkeypatch.setattr(zecap.protocols, "apply_channel_to_ket", counting)
    monkeypatch.setattr(zecap.cli, "flag_distribution", counting_flags)
    out = tmp_path / "r.json"
    assert run(["verify", "--builtin", builtin, "--suite", "two-use,privacy",
                "--out", str(out)]) == 0
    assert applied == []
    assert flagged == [None, *range(senders)]
    assert len(_checks(out)) == 1 + 2 * 2 * senders + senders * (senders - 1) // 2
    # e12's teleport suite still applies the two-use channel to its two codewords
    assert run(["verify", "--builtin", "e12", "--suite", "teleport", "--out", str(out)]) == 0
    assert len(applied) == 2


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ZECAP_SEED", "123")
    out = tmp_path / "r.json"
    assert run(["verify", "--builtin", "em1:3", "--suite", "two-use",
                "--out", str(out)]) == 0
    assert read_report(out)["seed"] == 123


@pytest.mark.parametrize("suite, message", [
    ("teleport", "do not apply"), ("all", "no suite applies")])
def test_teleport_is_offered_only_to_channels_shaped_like_e12(tmp_path, capsys,
                                                              suite, message):
    # a trace-preserving cq channel from a qutrit to a qubit
    one = {"re": {"r": [1, 1]}}
    spec = {"format": "zecap-channel/1", "kind": "cq", "name": "qutrit",
            "sender_dims": [3], "receiver_dims": [2],
            "outputs": [{"input": k, "components": [
                {"weight": [1, 1], "ket": [{"index": k % 2, "coeff": one}]}]}
                for k in range(3)]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["verify", "--spec", str(path), "--suite", suite, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert not out.exists()


def _spec_with(tmp_path, builtin, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**describe_channel(make_builtin(builtin)), **fields}))
    return str(path)


E21_PROPERTIES = ["verify", "--builtin", "e21", "--suite", "properties"]


# argv, and whether the refusal comes before any suite runs; "{tmp}" is the
# test's temporary directory and "{spec}" a spec written there
@pytest.mark.parametrize("argv, before_suites", [
    pytest.param(E21_PROPERTIES + ["--slots", "AB"], True, id="slots-AB"),
    pytest.param(E21_PROPERTIES + ["--slots", "A,"], True, id="slots-A-comma"),
    pytest.param(E21_PROPERTIES + ["--slots", ","], True, id="slots-comma"),
    pytest.param(E21_PROPERTIES + ["--slots", ""], True, id="slots-empty"),
    pytest.param(E21_PROPERTIES + ["--slots", "A,A"], True, id="slots-repeated"),
    pytest.param(E21_PROPERTIES + ["--slots", "C"], True, id="slots-C"),
    pytest.param(["verify", "--builtin", "e21", "--suite", ""], True, id="suite-empty"),
    pytest.param(["verify", "--builtin", "e21", "--suite", ","], True, id="suite-comma"),
    pytest.param(["verify", "--builtin", "e21", "--suite", "ce,"], True, id="suite-ce-comma"),
    pytest.param(["verify", "--builtin", "e21", "--suite", "properties,properties"], True,
                 id="suite-repeated"),
    pytest.param(["verify", "--spec", "{spec}", "--suite", "properties"], True,
                 id="spec-u_slots-repeated"),
    pytest.param(["verify", "--spec", "{tmp}", "--suite", "all"], True, id="spec-directory"),
    pytest.param(["renyi-gap", "--spec", "{tmp}"], True, id="gap-spec-directory"),
    pytest.param(E21_PROPERTIES + ["--out", "{tmp}"], False, id="out-directory"),
])
def test_malformed_lists_and_unreadable_paths_are_usage_errors(argv, before_suites, tmp_path,
                                                               capsys, searched):
    spec = _spec_with(tmp_path, "em1:3", u_slots=[0, 0, 1])
    argv = [a.format(tmp=tmp_path, spec=spec) for a in argv]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if before_suites:
        assert searched == []


def test_a_slot_past_the_second_use_is_out_of_range(capsys, searched):
    capsys.readouterr()
    assert run(E21_PROPERTIES + ["--slots", "A''"]) == 3
    assert capsys.readouterr().err == "error: slot \"A''\" out of range for 2 senders, 2 uses\n"
    assert searched == []


def test_a_full_span_s0_leaves_an_empty_s1_that_is_certified(tmp_path):
    # S0 = C^2 (x) C^2 holds a product state, and S1 = {0} has overlap 0 on
    # both routes
    one = {"re": {"r": [1, 1]}}
    spec = _spec_with(tmp_path, "em1:2", name="full-span", subspace_dims=[4, 0],
                      s0_basis=[[{"index": i, "coeff": one}] for i in range(4)])
    out = tmp_path / "r.json"
    assert run(["verify", "--spec", spec, "--suite", "ce", "--seed", "0",
                "--out", str(out)]) == 1
    checks = _checks(out)
    assert (checks["ce/S0"]["value"], checks["ce/S0"]["passed"]) == (1.0, False)
    assert (checks["ce/S1"]["value"], checks["ce/S1"]["passed"]) == (0.0, True)
    assert checks["ce/S1/grid"]["value"] == 0.0


# json's parser recurses once per bracket and gives up on deep nesting with RecursionError
@pytest.mark.parametrize("content", [b"[" * 200_000 + b"]" * 200_000, b"{", b"", b"\xff\xfe\x80",
                                     b"[1, 2]"],
                         ids=["deeply-nested", "truncated", "empty", "not-utf8", "top-level-list"])
@pytest.mark.parametrize("command", ["verify", "renyi-gap"])
def test_a_spec_file_that_does_not_parse_is_named_in_one_line(command, content, tmp_path,
                                                              capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert run([command, "--spec", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: spec: ") and err.count("\n") == 1, err
    assert "format" not in err


@pytest.mark.parametrize("builtin, code, verdict", [
    ("e21", 2, "inconclusive"),          # 50 restarts certify nothing
    ("em1:2", 1, "fail"),                # but a product state found still refutes
])
def test_a_starved_ce_search_is_undecided_not_refuted(builtin, code, verdict, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--builtin", builtin, "--suite", "ce", "--restarts", "50",
                "--out", str(out)]) == code
    assert read_report(out)["verdict"] == verdict


@pytest.mark.parametrize("verdicts, passed", [
    (("certified-CE", "certified-CE"), True),
    (("certified-CE", "inconclusive"), None),
    (("inconclusive", "inconclusive"), None),
    (("inconclusive", "product-state-found"), False),
    (("product-state-found", "certified-CE"), False),
])
def test_alpha_local_one_row_fails_on_a_product_state_and_waits_on_a_short_search(
        e21, verdicts, passed):
    alpha = certify_alpha_local_one(e21, restarts=100)
    certs = [dataclasses.replace(c, verdict=v)
             for c, v in zip((alpha.s0_certificate, alpha.s1_certificate), verdicts)]
    alpha = dataclasses.replace(alpha, s0_certificate=certs[0], s1_certificate=certs[1],
                                alpha_local_one=all(c.certified for c in certs))
    report = Report(command="verify", channel="e21", seed=0)
    zecap.cli._suite_ce(e21, report, alpha)
    outcome = {"certified-CE": True, "inconclusive": None, "product-state-found": False}
    assert {c.name: c.passed for c in report.checks} == {
        "ce/S0": outcome[verdicts[0]], "ce/S1": outcome[verdicts[1]],
        "ce/alpha-local-one": passed}


def test_report_rows_are_unique_for_every_builtin(tmp_path):
    out = tmp_path / "report.json"
    for builtin in ("e12", "e21", "variant34", "em1:2", "em1:3", "em1:4", "em1:5", "em1:6"):
        runs = [["--suite", "all"]]
        if builtin != "e12":
            # A and A' are two slots of two uses, but one sender slot
            runs.append(["--suite", "properties,two-use", "--slots", "A,A'"])
        for extra in runs:
            run(["verify", "--builtin", builtin, "--restarts", "100", "--out", str(out)] + extra)
            names = [c["name"] for c in read_report(out)["checks"]]
            assert len(names) == len(set(names)), (builtin, extra, names)


@pytest.mark.parametrize("builtin", ["e12", "e21", "variant34", "em1:2", "em1:3",
                                     "em1:4", "em1:5", "em1:6"])
def test_reports_hold_no_row_that_no_channel_can_change(builtin, tmp_path):
    # the rate 1/2 and teleportation as the identity hold for every channel;
    # test_protocols and the acceptance tests check them, reports do not
    out = tmp_path / "r.json"
    assert run(["verify", "--builtin", builtin, "--seed", "0", "--out", str(out)]) in (0, 1)
    names = set(_checks(out))
    assert not names & {"two-use/rate", "teleport/rate", "teleport/identity"}
    assert any(n.startswith(("two-use/", "teleport/")) for n in names)


def test_parser_is_built_once_and_reused(capsys):
    assert zecap.cli.build_parser() is zecap.cli.build_parser()
    texts = []
    for _ in range(2):
        assert run(["verify", "--builtin", "em1:3", "--suite", "properties,two-use",
                    "--seed", "4"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0]
