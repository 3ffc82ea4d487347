"""Workload command lists, pinned outcomes and the per-operation check.

An operation is one `zecap` CLI invocation. Its outcome is the exit code,
the report `verdict`, the pinned headline values and the sha256 of the text
it wrote (the report for `verify`/`renyi-gap`, the spec for `describe`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

WORKLOADS = ("ce-multiparty", "renyi-gap", "portfolio")
PINNED_SEEDS = 16                 # run seed n uses workload seed n % 16
PORTFOLIO_BUILTINS = ("e12", "em1:2", "em1:3", "e21", "variant34", "em1:5")
RENYI_BUILTINS = ("e21", "variant34")

# headline value -> direction in which it may move without failing the op:
# "floor" values must not drop below the pinned one, "ceiling" values must
# not rise above it (a weaker search finds lower overlaps and higher ranks)
HEADLINES = {
    "ce/S0": "floor",
    "ce/S1": "floor",
    "renyi/single-use-rank": "floor",
    "renyi/two-use-rank": "ceiling",
    "extra/single_use_floor": "floor",
    "extra/two_use_rank": "ceiling",
}
# slack allowed on headline values, on the scale of the search's own
# precision: em1:4's winning restarts stop at max_sweeps with overlaps from
# 0.87499993 to 0.8749999999 across the pinned seeds (the true value is
# 0.875), so a change that lands 1e-8 lower has not weakened the search; a
# lower overlap than that, a higher rank or a flipped verdict still fails
HEADLINE_TOL = 1e-6

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass(frozen=True)
class Op:
    label: str                    # stable name, independent of file paths
    argv: tuple[str, ...]
    output: str | None = None     # file the command writes, if not stdout


@dataclass
class Outcome:
    exit: int | None              # None when the CLI raised
    verdict: str | None
    headline: dict[str, float] = field(default_factory=dict)
    sha256: str = ""

    def to_json(self) -> dict:
        return {"exit": self.exit, "verdict": self.verdict,
                "headline": dict(sorted(self.headline.items())),
                "sha256": self.sha256}


def workload_seed(seed: int) -> int:
    return seed % PINNED_SEEDS


def operations(workload: str, wseed: int, spec_dir: str) -> list[Op]:
    """The fixed command list of one pass; `wseed` goes to every --seed."""
    s = str(wseed)
    if workload == "ce-multiparty":
        # 100 restarts (the certification minimum) halves the pass, so two
        # passes fit a run; the straggler-bound searches are unchanged in kind
        return [Op("verify em1:4",
                   ("verify", "--builtin", "em1:4", "--suite", "all",
                    "--restarts", "100", "--seed", s))]
    if workload == "renyi-gap":
        return [Op(f"renyi-gap {b}",
                   ("renyi-gap", "--builtin", b, "--budget", "5000", "--seed", s))
                for b in RENYI_BUILTINS]
    if workload == "portfolio":
        ops = []
        for b in PORTFOLIO_BUILTINS:
            path = os.path.join(spec_dir, b.replace(":", "_") + ".json")
            ops.append(Op(f"describe {b}", ("describe", b, "--out", path), path))
            ops.append(Op(f"verify --spec {b}",
                          ("verify", "--spec", path, "--suite", "all", "--seed", s)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def outcome_of(op: Op, exit_code: int | None, stdout: str) -> Outcome:
    """Parse what one operation produced into the pinned fields."""
    if exit_code is None:
        return Outcome(None, None)
    if op.output is not None:
        with open(op.output, "rb") as fh:
            return Outcome(exit_code, None, sha256=hashlib.sha256(fh.read()).hexdigest())
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(exit_code, None, sha256=digest)
    headline = {}
    for check in report.get("checks", []):
        if check["name"] in HEADLINES:
            headline[check["name"]] = check["value"]
    for key, value in report.get("extra", {}).items():
        if f"extra/{key}" in HEADLINES:
            headline[f"extra/{key}"] = value
    return Outcome(exit_code, report.get("verdict"), headline, digest)


def mismatches(expected: dict, got: Outcome) -> list[str]:
    """Reasons the observed outcome fails the pinned one; empty means success."""
    out = []
    if got.exit != expected["exit"]:
        out.append(f"exit {got.exit} != {expected['exit']}")
    if got.verdict != expected["verdict"]:
        out.append(f"verdict {got.verdict!r} != {expected['verdict']!r}")
    for name, ref in expected["headline"].items():
        value = got.headline.get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            out.append(f"{name} missing")
        elif HEADLINES[name] == "floor" and value < ref - HEADLINE_TOL:
            out.append(f"{name} {value!r} < pinned {ref!r}")
        elif HEADLINES[name] == "ceiling" and value > ref + HEADLINE_TOL:
            out.append(f"{name} {value!r} > pinned {ref!r}")
    return out


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(pins: dict, workload: str, wseed: int) -> dict[str, dict]:
    return pins["workloads"][workload][str(wseed)]
