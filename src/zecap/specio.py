"""JSON channel descriptions and deterministic verification reports.

Channel files carry exact coefficients in the form r + s*sqrt(2) per real and
imaginary part, with r and s as [numerator, denominator] pairs, so a
description written by one run re-ingests bit-exactly in another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .channels import (
    BinaryProjectivePayload,
    CQPayload,
    MultiUserChannel,
    check_input_dim,
    make_e12,
    make_e21,
    make_em1,
    make_variant34,
    parity_phase,
)
from .exactnum import Coeff, exact_vector, vector_terms
from .linalg import dim_of, ket_from_terms
from .subspaces import Subspace

SPEC_FORMAT = "zecap-channel/1"
REPORT_FORMAT = "zecap-report/1"

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


def _frac_from_json(pair: Any) -> Fraction:
    num, den = int(pair[0]), int(pair[1])
    if den == 0:
        raise ValueError("zero denominator in exact coefficient")
    return Fraction(num, den)


def _coeff_to_json(c: Coeff) -> dict:
    return {
        "re": {"r": _frac_to_json(c.a), "s": _frac_to_json(c.b)},
        "im": {"r": _frac_to_json(c.c), "s": _frac_to_json(c.d)},
    }


def _coeff_from_json(obj: Any) -> Coeff:
    re = obj.get("re", {"r": [0, 1], "s": [0, 1]})
    im = obj.get("im", {"r": [0, 1], "s": [0, 1]})
    return Coeff(
        _frac_from_json(re.get("r", [0, 1])), _frac_from_json(re.get("s", [0, 1])),
        _frac_from_json(im.get("r", [0, 1])), _frac_from_json(im.get("s", [0, 1])),
    )


def _terms_to_json(terms: list[tuple[int, Coeff]]) -> list[dict]:
    return [{"index": idx, "coeff": _coeff_to_json(c)} for idx, c in terms]


def _terms_from_json(items: Any, total: int) -> list[tuple[int, Coeff]]:
    out = []
    for item in items:
        idx = int(item["index"])
        if not 0 <= idx < total:
            raise ValueError(f"basis index {idx} out of range for dimension {total}")
        out.append((idx, _coeff_from_json(item["coeff"])))
    return out


# ---------------------------------------------------------------------------
# channel <-> spec dict
# ---------------------------------------------------------------------------

def describe_channel(channel: MultiUserChannel) -> dict:
    """A JSON-ready description that `channel_from_spec` re-ingests exactly."""
    base: dict[str, Any] = {
        "format": SPEC_FORMAT,
        "name": channel.name,
        "kind": channel.kind,
        "sender_dims": list(channel.sender_dims),
        "receiver_dims": list(channel.receiver_dims),
    }
    if channel.kind == "binary-projective":
        pl = channel.payload
        if pl.exact_s0 is None:
            raise ValueError("channel carries no exact spanning data to describe")
        base["subspace_dims"] = [pl.s0.dim, pl.s1.dim]
        base["u_slots"] = list(pl.u_slots)
        base["s0_basis"] = [_terms_to_json(vector_terms(v))
                            for v in pl.exact_s0]
        return base
    if channel.kind == "cq":
        base["outputs"] = [_cq_output_to_json(k, rho)
                           for k, rho in enumerate(channel.payload.outputs)]
        return base
    raise ValueError(f"cannot describe channels of kind {channel.kind!r}")


def _cq_output_to_json(k: int, rho: np.ndarray) -> dict:
    """Eigen-decompose a cq output into rational weights and exact kets.

    Supports the shipped constructions, whose spectra are rational and whose
    eigenvectors have amplitudes in Q(sqrt(2)).
    """
    w, v = np.linalg.eigh(rho)
    comps = []
    for i in range(len(w))[::-1]:
        if w[i] < 1e-12:
            continue
        weight = Fraction(float(w[i])).limit_denominator(10 ** 6)
        if abs(float(weight) - float(w[i])) > 1e-10:
            raise ValueError(f"output spectrum entry {w[i]} is not rational")
        ket = v[:, i]
        # gauge: first significant amplitude real positive
        lead = next(j for j in range(len(ket)) if abs(ket[j]) > 1e-9)
        ket = ket * (abs(ket[lead]) / ket[lead])
        terms = []
        for j in range(len(ket)):
            if abs(ket[j]) < 1e-12:
                continue
            terms.append((j, _float_to_exact(complex(ket[j]))))
        comps.append({"weight": _frac_to_json(weight), "ket": _terms_to_json(terms)})
    return {"input": k, "components": comps}


def _float_to_exact(z: complex, max_den: int = 4096) -> Coeff:
    """Recognize a rational or a rational multiple of sqrt(2) in each part.

    Small denominators are preferred so that, e.g., 1/sqrt(2) resolves to
    (1/2)*sqrt(2) rather than a high Pell convergent. Covers the amplitudes
    occurring in the shipped constructions.
    """
    def part(x: float) -> tuple[Fraction, Fraction]:
        a = Fraction(x).limit_denominator(max_den)
        if abs(float(a) - x) < 1e-11:
            return a, Fraction(0)
        b = Fraction(x / 2 ** 0.5).limit_denominator(max_den)
        if abs(float(b) * 2 ** 0.5 - x) < 1e-11:
            return Fraction(0), b
        raise ValueError(f"{x} is not recognizably in Q(sqrt(2))")
    return Coeff(*part(z.real), *part(z.imag))


def channel_from_spec(spec: dict) -> MultiUserChannel:
    """Build a channel from a parsed spec dict (or {'builtin': name})."""
    if "builtin" in spec:
        return make_builtin(str(spec["builtin"]))
    fmt = spec.get("format")
    if fmt != SPEC_FORMAT:
        raise ValueError(f"unsupported spec format {fmt!r}")
    kind = spec.get("kind")
    sender_dims = tuple(int(d) for d in spec["sender_dims"])
    receiver_dims = tuple(int(d) for d in spec["receiver_dims"])
    if kind == "binary-projective":
        check_input_dim(sender_dims)
        total = dim_of(sender_dims)
        term_lists = [_terms_from_json(v, total) for v in spec["s0_basis"]]
        span = [ket_from_terms([total], [(i, complex(c)) for i, c in t])
                for t in term_lists]
        s0 = Subspace.from_span(sender_dims, span)
        if s0.dim < len(span):
            raise ValueError(f"s0_basis: {len(span)} vectors span only {s0.dim} "
                             "dimensions; give linearly independent vectors")
        s1 = s0.complement()
        u_slots = tuple(int(s) for s in spec.get("u_slots", range(len(sender_dims))))
        u_dim = sender_dims[u_slots[0]] if u_slots else sender_dims[0]
        payload = BinaryProjectivePayload(
            s0=s0, s1=s1, u=parity_phase(u_dim), u_slots=u_slots,
            exact_s0=[exact_vector(total, t) for t in term_lists])
        return MultiUserChannel(sender_dims, receiver_dims, "binary-projective",
                                payload, name=str(spec.get("name", "custom")))
    if kind == "cq":
        total_out = dim_of(receiver_dims)
        outputs = []
        for entry in sorted(spec["outputs"], key=lambda e: int(e["input"])):
            rho = np.zeros((total_out, total_out), dtype=complex)
            for comp in entry["components"]:
                weight = float(_frac_from_json(comp["weight"]))
                terms = _terms_from_json(comp["ket"], total_out)
                ket = ket_from_terms([total_out], [(i, complex(c)) for i, c in terms])
                rho += weight * np.outer(ket, ket.conj())
            outputs.append(rho)
        return MultiUserChannel(sender_dims, receiver_dims, "cq",
                                CQPayload(outputs), name=str(spec.get("name", "custom")))
    raise ValueError(f"unsupported channel kind {kind!r} in spec")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    claim: str
    value: float | str | bool
    tolerance: float | None
    passed: bool
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
            passed: bool = True, informational: bool = False) -> None:
        self.checks.append(CheckRecord(name, claim, value, tolerance, passed,
                                       informational))

    def finalize(self) -> None:
        if self.verdict == "inconclusive":
            return
        gating = [c for c in self.checks if not c.informational]
        self.verdict = "pass" if all(c.passed for c in gating) else "fail"


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
