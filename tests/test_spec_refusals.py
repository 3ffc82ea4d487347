"""`zecap-channel/1` specs from `describe`, edited.

Malformed specs get a one-line error and exit code 3; a well-formed edit
that leaves the channel unchanged verifies as the original does, and one
that changes the channel still gets a verdict: exit code 0, 1 or 2.
"""

import copy
import json
import tempfile
from fractions import Fraction

import numpy as np
import pytest

import zecap.channels
from zecap.cli import main
from zecap.linalg import dim_of, ket_from_terms
from zecap.specio import describe_channel, make_builtin

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

DESCRIBED = {name: describe_channel(make_builtin(name)) for name in ("e21", "e12")}
SUITE = {"e21": "properties", "e12": "teleport"}


def run_spec(doc, suite):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/spec.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return main(["verify", "--spec", path, "--suite", suite])


def _set(doc, key, value):
    doc[key] = value


def _first_weight(doc, value):
    doc["outputs"][1]["components"][0]["weight"] = value


def _unsized(doc):
    del doc["subspace_dims"]
    return doc


def _first_coeff(doc, r, s=(0, 1)):
    doc["s0_basis"][0][0]["coeff"]["re"] = {"r": r, "s": list(s)}


@pytest.mark.parametrize("name, edit, field", [
    ("e21", lambda d: d.pop("sender_dims"), "sender_dims"),
    ("e21", lambda d: d.pop("s0_basis"), "s0_basis"),
    ("e12", lambda d: d.pop("outputs"), "outputs"),
    ("e21", lambda d: _set(d, "sender_dims", "44"), "sender_dims"),
    ("e21", lambda d: _set(d, "u_slots", [7]), "u_slots"),
    ("e21", lambda d: _set(d, "receiver_dims", [3]), "receiver_dims"),
    ("e12", lambda d: _set(d, "sender_dims", [3]), "outputs"),
    ("e12", lambda d: _first_weight(d, [-1, 3]), "outputs"),
    ("e12", lambda d: _first_weight(d, [0, 1]), "outputs"),
    ("e12", lambda d: _set(d, "receiver_dims", [1000, 1000]), "receiver_dims"),
    ("e21", lambda d: _set(d, "subspace_dims", [3, 13]), "subspace_dims"),
    ("e21", lambda d: _set(d, "subspace_dims", [8.0, 8]), "subspace_dims"),
    ("e21", lambda d: _set(d, "subspace_dims", None), "subspace_dims"),
    ("e21", lambda d: _set(d, "name", None), "name"),
    ("e12", lambda d: _set(d, "name", {"a": 1}), "name"),
    ("e21", lambda d: _set(d, "name", 21), "name"),
    # a fraction past the largest float, or nonzero but rounding to 0.0, and
    # r + s sqrt(2) past the largest float
    ("e21", lambda d: _first_coeff(d, [10 ** 400, 1]), "s0_basis[0]"),
    ("e21", lambda d: _first_coeff(d, [1, 10 ** 400]), "s0_basis[0]"),
    ("e21", lambda d: _first_coeff(d, [10 ** 308, 1], [10 ** 308, 1]), "s0_basis[0]"),
    # a coefficient that fits a float, but the vector's norm does not
    ("e21", lambda d: _first_coeff(_unsized(d), [10 ** 300, 1]), "s0_basis[0]"),
    ("e21", lambda d: _first_coeff(_unsized(d), [10 ** 160, 1]), "s0_basis[0]"),
    ("e12", lambda d: _first_weight(d, [10 ** 400, 1]), "outputs[input 1]"),
    ("e12", lambda d: _first_weight(d, [1, 10 ** 400]), "outputs[input 1]"),
])
def test_malformed_field_is_named_in_one_line(name, edit, field, capsys):
    doc = copy.deepcopy(DESCRIBED[name])
    edit(doc)
    assert run_spec(doc, SUITE[name]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1, err


def _renamed(doc, old, new):
    doc = copy.deepcopy(doc)
    doc[new] = doc.pop(old)
    return doc


@pytest.mark.parametrize("doc, field", [
    # variant34's identities hold on slot B only: with its u_slots misspelt,
    # the default of every slot would fail each conjugation and twist row @0
    (_renamed(describe_channel(make_builtin("variant34")), "u_slots", "u_slot"), "u_slot"),
    ({**DESCRIBED["e12"], "u_slots": [0]}, "u_slots"),
    ({**DESCRIBED["e21"], "outputs": []}, "outputs"),
    ({**DESCRIBED["e21"], "Name": "e21", "comment": ""}, "Name"),
    ({"builtin": "e21", "seed": 3}, "seed"),
])
def test_unknown_field_is_refused(doc, field, capsys):
    assert run_spec(doc, "all") == 3
    assert capsys.readouterr().err == f"error: {field}: unknown field\n"


@pytest.mark.parametrize("builtin, suite", [
    *((b, "properties") for b in ("e21", "variant34", "em1:2", "em1:3", "em1:4",
                                  "em1:5", "em1:6")),
    ("e12", "teleport"),
])
def test_every_builtin_description_verifies(builtin, suite, capsys):
    """The spec checks accept what describe writes, subspace_dims and name included."""
    assert run_spec(describe_channel(make_builtin(builtin)), suite) == 0
    assert json.loads(capsys.readouterr().out)["channel"] == builtin


def test_spec_without_name_or_subspace_dims_is_custom(capsys):
    doc = copy.deepcopy(DESCRIBED["e21"])
    del doc["name"], doc["subspace_dims"]
    assert run_spec(doc, "properties") == 0
    assert json.loads(capsys.readouterr().out)["channel"] == "custom"


def test_oversized_cq_spec_is_refused_before_reading_outputs(monkeypatch):
    def refuse(*args):
        raise AssertionError("an output ket was built for an oversized spec")

    monkeypatch.setattr(zecap.channels, "ket_from_terms", refuse)
    doc = copy.deepcopy(DESCRIBED["e12"])
    doc["receiver_dims"] = [1000, 1000]
    assert run_spec(doc, "teleport") == 3


def _term_paths(doc):
    if "s0_basis" in doc:
        return doc["s0_basis"]
    return [c["ket"] for entry in doc["outputs"] for c in entry["components"]]


@st.composite
def mutated_descriptions(draw):
    """A described builtin with one malformed edit, and the suite to run."""
    name = draw(st.sampled_from(sorted(DESCRIBED)))
    doc = copy.deepcopy(DESCRIBED[name])
    total = 16 if name == "e21" else 4          # dimension the term indices address
    required = ["sender_dims", "receiver_dims", "s0_basis" if name == "e21" else "outputs"]
    edits = ["drop", "sender_dims", "zero-denominator", "term-index"]
    edits += ["u_slots", "receiver_dims"] if name == "e21" else ["inputs", "weight", "huge"]
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        doc.pop(draw(st.sampled_from(required)))
    elif edit == "sender_dims":
        doc["sender_dims"] = draw(st.sampled_from(
            ["44", 44, None, [], [0, 4], [4.0, 4], [4, "4"], [True, 4]]))
    elif edit in ("zero-denominator", "term-index"):
        terms = draw(st.sampled_from(_term_paths(doc)))
        term = terms[draw(st.integers(0, len(terms) - 1))]
        if edit == "term-index":
            term["index"] = draw(st.integers(total, 10 ** 6) | st.integers(-10 ** 6, -1))
        else:
            part = term["coeff"].setdefault(draw(st.sampled_from(["re", "im"])), {})
            part[draw(st.sampled_from(["r", "s"]))] = [draw(st.integers(-9, 9)), 0]
    elif edit == "u_slots":
        doc["u_slots"] = [draw(st.integers(2, 10 ** 6) | st.integers(-10 ** 6, -1))]
    elif edit == "receiver_dims":
        doc["receiver_dims"] = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)
                                    .filter(lambda dims: dims != [2]))
    elif edit == "inputs":
        doc["sender_dims"] = [draw(st.integers(1, 64).filter(lambda d: d != 2))]
    elif edit == "weight":
        entry = draw(st.sampled_from(doc["outputs"]))
        comp = draw(st.sampled_from(entry["components"]))
        comp["weight"] = [draw(st.integers(-9, 0)), draw(st.integers(1, 9))]
    else:
        doc["receiver_dims"] = draw(st.lists(st.integers(9, 10 ** 6), min_size=2,
                                             max_size=4))
    return doc, SUITE[name]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(mutated_descriptions())
def test_mutated_descriptions_exit_3_without_traceback(case):
    doc, suite = case
    assert run_spec(doc, suite) == 3


WELL_FORMED_SUITE = "properties,two-use,privacy"
E21_EXIT = run_spec(DESCRIBED["e21"], WELL_FORMED_SUITE)


def _negated(part):
    return {key: [-num, den] for key, (num, den) in part.items()}


def _times_unit(coeff, unit):
    """An exact coefficient (re + i im) times -1, i or -i."""
    re, im = coeff["re"], coeff["im"]
    return {"-1": {"re": _negated(re), "im": _negated(im)},
            "i": {"re": _negated(im), "im": re},
            "-i": {"re": im, "im": _negated(re)}}[unit]


@st.composite
def relabelled_e21(draw):
    """e21 described with S0 unchanged: its basis vectors reordered, the terms
    of each vector reordered, and one vector times an exact unit."""
    doc = copy.deepcopy(DESCRIBED["e21"])
    basis = [draw(st.permutations(vector))
             for vector in draw(st.permutations(doc["s0_basis"]))]
    k = draw(st.integers(0, len(basis) - 1))
    unit = draw(st.sampled_from(["-1", "i", "-i"]))
    basis[k] = [{"index": term["index"], "coeff": _times_unit(term["coeff"], unit)}
                for term in basis[k]]
    doc["s0_basis"] = basis
    return doc


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(relabelled_e21())
def test_relabelled_description_verifies_as_the_original(doc):
    assert run_spec(doc, WELL_FORMED_SUITE) == E21_EXIT


EDITABLE = {name: describe_channel(make_builtin(name)) for name in ("e21", "em1:3")}


def _amplitude(coeff):
    """Float value of an exact coefficient (r + s sqrt(2) per part)."""
    def part(p):
        return (float(Fraction(*p.get("r", [0, 1])))
                + float(Fraction(*p.get("s", [0, 1]))) * 2 ** 0.5)
    return complex(part(coeff.get("re", {})), part(coeff.get("im", {})))


def _scaled(coeff, factor):
    return {part: {key: [num * factor.numerator, den * factor.denominator]
                   for key, (num, den) in pairs.items()}
            for part, pairs in coeff.items()}


def _terms(total):
    pair = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(list)
    coeff = st.fixed_dictionaries({part: st.fixed_dictionaries({"r": pair, "s": pair})
                                   for part in ("re", "im")})
    return st.fixed_dictionaries({"index": st.integers(0, total - 1), "coeff": coeff})


@st.composite
def channel_changing_edits(draw):
    """e21 or em1:3 described, with S0 changed by one well-formed edit: a
    vector appended, dropped, rescaled by a rational, or given another term.
    The vectors stay independent and subspace_dims follows them."""
    doc = copy.deepcopy(EDITABLE[draw(st.sampled_from(sorted(EDITABLE)))])
    basis = doc["s0_basis"]
    total = dim_of(doc["sender_dims"])
    edit = draw(st.sampled_from(["append", "drop", "rescale", "add-term"]))
    if edit == "append":
        basis.append(draw(st.lists(_terms(total), min_size=1, max_size=3)))
    elif edit == "drop":
        basis.pop(draw(st.integers(0, len(basis) - 1)))
    elif edit == "rescale":
        factor = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 4)))
        vector = draw(st.sampled_from(basis))
        for term in vector:
            term["coeff"] = _scaled(term["coeff"], factor)
    else:
        draw(st.sampled_from(basis)).append(draw(_terms(total)))
    kets = [ket_from_terms([total], [(t["index"], _amplitude(t["coeff"])) for t in v])
            for v in basis]
    assume(np.linalg.matrix_rank(np.stack(kets)) == len(basis))
    doc["subspace_dims"] = [len(basis), total - len(basis)]
    return doc


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(channel_changing_edits())
def test_channel_changing_edit_gets_a_verdict(doc):
    assert run_spec(doc, WELL_FORMED_SUITE) in (0, 1, 2)
