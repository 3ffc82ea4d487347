"""JSON channel descriptions and deterministic verification reports.

Channel files carry exact coefficients in the form r + s*sqrt(2) per real and
imaginary part, with r and s as [numerator, denominator] pairs. Reading a
file parses and validates it and hands the exact data to the channel kind's
constructor in `channels`; describing a channel writes back the exact data
that constructor kept, so a description re-ingests bit-exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .channels import (
    MultiUserChannel,
    binary_projective_channel,
    check_input_dim,
    cq_channel,
    make_e12,
    make_e21,
    make_em1,
    make_variant34,
)
from .exactnum import Coeff, vector_terms
from .linalg import dim_of

SPEC_FORMAT = "zecap-channel/1"
REPORT_FORMAT = "zecap-report/1"
# the top-level fields of a spec, per channel kind, in the order
# `describe_channel` writes them; a spec may hold no others, so a misspelt
# optional field is refused, not ignored
_COMMON_FIELDS = ("format", "name", "kind", "sender_dims", "receiver_dims")
_SPEC_FIELDS = {"binary-projective": _COMMON_FIELDS + ("subspace_dims", "u_slots", "s0_basis"),
                "cq": _COMMON_FIELDS + ("outputs",)}
MAX_SENDER_PARTIES = 32     # two uses reshape n parties into 2n axes; numpy allows 64

def make_builtin(name: str) -> MultiUserChannel:
    """Channel for a builtin name: e12, e21, em1:<m>, variant34."""
    name = name.strip().lower()
    if name == "e12":
        return make_e12()
    if name == "e21":
        return make_e21()
    if name == "variant34":
        return make_variant34()
    if name.startswith("em1:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed family name {name!r}; use em1:<m>") from None
        return make_em1(m)
    raise ValueError(f"unknown builtin channel {name!r}")


# ---------------------------------------------------------------------------
# exact coefficient <-> JSON
# ---------------------------------------------------------------------------

def _frac_to_json(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _frac_from_json(pair: Any, where: str) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(x) is int for x in pair)):
        raise ValueError(f"{where}: {pair!r} is not a [numerator, denominator] pair")
    if pair[1] == 0:
        raise ValueError(f"{where}: zero denominator in exact coefficient")
    frac = Fraction(*pair)
    # float() raises past the largest float and gives 0.0 below the least
    if frac and not 2.0 ** -1074 <= abs(frac) <= sys.float_info.max:
        raise ValueError(f"{where}: a [numerator, denominator] pair outside the float range")
    return frac


def _coeff_to_json(c: Coeff) -> dict:
    return {
        "re": {"r": _frac_to_json(c.a), "s": _frac_to_json(c.b)},
        "im": {"r": _frac_to_json(c.c), "s": _frac_to_json(c.d)},
    }


def _coeff_from_json(obj: Any, where: str) -> Coeff:
    fracs = []
    for part in ("re", "im"):
        pair = obj.get(part, {}) if isinstance(obj, dict) else None
        if not isinstance(pair, dict):
            raise ValueError(f"{where}: coefficient {obj!r} is not a {{re, im}} object")
        _refuse_unknown_fields(pair, ("r", "s"), where)
        fracs += [_frac_from_json(pair.get(k, [0, 1]), where) for k in ("r", "s")]
    _refuse_unknown_fields(obj, ("re", "im"), where)
    coeff = Coeff(*fracs)
    if not np.isfinite(complex(coeff)):
        raise ValueError(f"{where}: coefficient r + s sqrt(2) outside the float range")
    return coeff


def _terms_to_json(terms: list[tuple[int, Coeff]]) -> list[dict]:
    return [{"index": idx, "coeff": _coeff_to_json(c)} for idx, c in terms]


def _terms_from_json(items: Any, total: int, where: str) -> list[tuple[int, Coeff]]:
    out = []
    for item in _list_field(items, where):
        idx = _field(item, "index", where)
        _refuse_unknown_fields(item, ("index", "coeff"), where)
        if type(idx) is not int or not 0 <= idx < total:
            raise ValueError(f"{where}: basis index {idx!r} out of range for "
                             f"dimension {total}")
        out.append((idx, _coeff_from_json(_field(item, "coeff", where), where)))
    return out


def _field(obj: Any, key: str, where: str = "") -> Any:
    """obj[key], or a ValueError naming the missing field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where + '.' if where else ''}{key}: missing from the spec")
    return obj[key]


def _list_field(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list, got {value!r}")
    return value


def _dims_field(spec: dict, key: str) -> tuple[int, ...]:
    dims = _list_field(_field(spec, key), key)
    if not dims or not all(type(d) is int and d >= 1 for d in dims):
        raise ValueError(f"{key}: expected a non-empty list of positive integers, "
                         f"got {dims!r}")
    return tuple(dims)


# ---------------------------------------------------------------------------
# channel <-> spec dict
# ---------------------------------------------------------------------------

def describe_channel(channel: MultiUserChannel) -> dict:
    """The exact data the channel was built from, as a JSON-ready spec that
    `channel_from_spec` re-ingests exactly."""
    pl, outputs = channel.payload, channel.cq_outputs
    if channel.uses != 1 or (pl is None and outputs is None) \
            or (pl is not None and len(channel.sender_dims) > len(pl.s0.dims)):
        raise ValueError("only channels built from exact data can be described, "
                         "not tensor powers or trivial-party extensions")
    kind = "cq" if pl is None else "binary-projective"
    fields: dict[str, Any] = {
        "format": SPEC_FORMAT,
        "name": channel.name,
        "kind": kind,
        "sender_dims": list(channel.sender_dims),
        "receiver_dims": list(channel.receiver_dims),
    }
    if pl is not None:
        fields["subspace_dims"] = [pl.s0.dim, pl.s1.dim]
        fields["u_slots"] = list(pl.u_slots)
        fields["s0_basis"] = [_terms_to_json(vector_terms(v))
                              for v in pl.exact_s0]
    else:
        fields["outputs"] = [
            {"input": k, "components": [{"weight": _frac_to_json(w),
                                         "ket": _terms_to_json(terms)}
                                        for w, terms in comps]}
            for k, comps in enumerate(outputs)]
    # written through _SPEC_FIELDS, the same list the refusal reads
    return {f: fields[f] for f in _SPEC_FIELDS[kind]}


def channel_from_spec(spec: dict) -> MultiUserChannel:
    """Build a channel from a parsed spec dict (or {'builtin': name}).

    Every field read is checked first; a malformed one raises a one-line
    ValueError that names it, and so does a field the spec's kind does not have.
    """
    if not isinstance(spec, dict):
        raise ValueError("spec: the top level must be a JSON object")
    if "builtin" in spec:
        _refuse_unknown_fields(spec, ("builtin",))
        return make_builtin(str(spec["builtin"]))
    fmt = spec.get("format")
    if fmt != SPEC_FORMAT:
        raise ValueError(f"unsupported spec format {fmt!r}")
    kind = spec.get("kind")
    if kind in _SPEC_FIELDS:
        _refuse_unknown_fields(spec, _SPEC_FIELDS[kind])
    name = spec.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError(f"name: expected a string, got {name!r}")
    sender_dims = _dims_field(spec, "sender_dims")
    if len(sender_dims) > MAX_SENDER_PARTIES:
        raise ValueError(f"sender_dims: {len(sender_dims)} parties, more than the "
                         f"{MAX_SENDER_PARTIES} that two uses can hold")
    receiver_dims = _dims_field(spec, "receiver_dims")
    if kind == "binary-projective":
        check_input_dim(sender_dims)
        if receiver_dims != (2,):
            raise ValueError(f"receiver_dims: a binary-projective channel emits "
                             f"one flag qubit, [2], not {list(receiver_dims)}")
        u_slots = _list_field(spec.get("u_slots", list(range(len(sender_dims)))),
                              "u_slots")
        if not u_slots:
            raise ValueError("u_slots: [] names no slot; name at least one")
        if not all(type(s) is int and 0 <= s < len(sender_dims) for s in u_slots):
            raise ValueError(f"u_slots: {u_slots!r} names a slot outside "
                             f"0..{len(sender_dims) - 1}")
        if len(set(u_slots)) < len(u_slots):
            raise ValueError(f"u_slots: {u_slots!r} names a slot twice")
        total = dim_of(sender_dims)
        vectors = _list_field(_field(spec, "s0_basis"), "s0_basis")
        term_lists = [_terms_from_json(v, total, f"s0_basis[{i}]")
                      for i, v in enumerate(vectors)]
        channel = binary_projective_channel(sender_dims, term_lists, u_slots, name)
        # optional, as describe writes it: [dim S0, dim S1] of the built channel
        dims, pl = spec.get("subspace_dims"), channel.payload
        if "subspace_dims" in spec and not (
                isinstance(dims, list) and all(type(d) is int for d in dims)
                and dims == [pl.s0.dim, pl.s1.dim]):
            raise ValueError(f"subspace_dims: {dims!r} is not [dim S0, dim S1] = "
                             f"[{pl.s0.dim}, {pl.s1.dim}] of s0_basis")
        return channel
    if kind == "cq":
        check_input_dim(sender_dims)
        check_input_dim(receiver_dims, "receiver_dims")
        n_in, n_out = dim_of(sender_dims), dim_of(receiver_dims)
        entries = _list_field(_field(spec, "outputs"), "outputs")
        inputs = [_field(e, "input", "outputs[]") for e in entries]
        if not all(type(k) is int for k in inputs) or sorted(inputs) != list(range(n_in)):
            raise ValueError(f"outputs: inputs {inputs!r} are not exactly 0..{n_in - 1}, "
                             "one per basis state of sender_dims")
        outputs = []
        for k, entry in sorted(zip(inputs, entries), key=lambda pair: pair[0]):
            where = f"outputs[input {k}].components"
            _refuse_unknown_fields(entry, ("input", "components"), f"outputs[input {k}]")
            outputs.append([])
            for comp in _list_field(_field(entry, "components", f"outputs[input {k}]"),
                                    where):
                weight = _frac_from_json(_field(comp, "weight", where), where)
                _refuse_unknown_fields(comp, ("weight", "ket"), where)
                if weight <= 0:
                    raise ValueError(f"{where}: weight {weight} is not positive")
                outputs[-1].append(
                    (weight, _terms_from_json(_field(comp, "ket", where), n_out, where)))
        if not any(outputs):
            raise ValueError("outputs: no output components given")
        return cq_channel(sender_dims, receiver_dims, outputs, name)
    raise ValueError(f"unsupported channel kind {kind!r} in spec")


def _refuse_unknown_fields(obj: dict, known: Sequence[str], where: str = "") -> None:
    """Refuse a key of obj outside `known`, named as `_field` names a missing one."""
    unknown = sorted(set(obj).difference(known))
    if unknown:
        raise ValueError(f"{where + '.' if where else ''}{unknown[0]}: unknown field")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    claim: str
    value: float | str | bool
    tolerance: float | None
    passed: bool | None        # None: its suite could not decide; written as false
    informational: bool = False


@dataclass
class Report:
    command: str
    channel: str
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)
    verdict: str = "pass"              # pass | fail | inconclusive
    extra: dict = field(default_factory=dict)

    def add(self, name: str, claim: str, value, tolerance=None,
            passed: bool | None = True, informational: bool = False) -> None:
        self.checks.append(CheckRecord(name, claim, value, tolerance, passed,
                                       informational))

    def finalize(self) -> None:
        """fail if a gating row failed, else inconclusive if one is undecided."""
        gating = [c.passed for c in self.checks if not c.informational]
        if any(p is not None and not p for p in gating):
            self.verdict = "fail"
        elif any(p is None for p in gating):
            self.verdict = "inconclusive"
        else:
            self.verdict = "pass"


def _format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.15g}")
    if isinstance(v, (list, tuple)):
        return [_format_value(x) for x in v]
    return v


def _version() -> str:
    from . import __version__
    return __version__


def report_to_json(report: Report) -> str:
    """Deterministic serialization: stable key order, 15-significant-digit floats."""
    doc = {
        "format": REPORT_FORMAT,
        "version": _version(),
        "command": report.command,
        "channel": report.channel,
        "seed": report.seed,
        "verdict": report.verdict,
        "checks": [
            {
                "name": c.name,
                "claim": c.claim,
                "value": _format_value(c.value),
                "tolerance": _format_value(c.tolerance) if c.tolerance is not None else None,
                "passed": bool(c.passed),
                "informational": bool(c.informational),
            }
            for c in report.checks
        ],
        "extra": {k: _format_value(v) for k, v in sorted(report.extra.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
