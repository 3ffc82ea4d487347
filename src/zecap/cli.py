"""Command-line surface: verify suites, additivity-gap runs, channel descriptions.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .channels import (
    TRACE_TOL,
    MultiUserChannel,
    apply_channel,  # no caller here; bench/tracer.py wraps this binding
    check_trace_preserving,
    tensor_power,
)
from .protocols import (
    DECODE_TOL,
    ORTHO_OVERLAP_TOL,
    AlphaLocalCertificate,
    basis_codebook,
    build_two_use_code,
    certify_alpha_local_one,
    check_local_preparability,
    flag_distribution,
    privacy_check,  # no caller here; bench/tracer.py wraps this binding
    privacy_verdict,
    slot_index,
    teleportation_decode,  # no caller here; bench/tracer.py wraps this binding
    verify_orthogonal_outputs,
)
from .renyi import additivity_gap_at_zero
from .specio import (
    Report,
    channel_from_spec,
    describe_channel,
    make_builtin,
    report_to_json,
)
from .subspaces import (
    DEFAULT_CE_GAP,
    SYMMETRY_TOL,
    certify_completely_entangled,  # no caller here; bench/tracer.py wraps this binding
    exact_symmetry_checks,
    grid_product_overlap,
    parity_conjugate_slot,
    symmetry_checks,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# largest --restarts and --budget accepted: each search's work grows with them
# and nothing else bounds it (at --budget 100000 the gap runs 500 L-BFGS
# starts per rank target)
MAX_RESTARTS = 5000
MAX_BUDGET = 100_000

ALL_SUITES = ("properties", "ce", "two-use", "teleport", "privacy", "renyi")

# grid-oracle resolutions for the product-parameter counts that stay gridable;
# all even, which `_suite_ce` needs to give a carried-over S1 S0's grid value
_GRID_RESOLUTIONS = {4: 40, 6: 14, 8: 8}
GRID_AGREEMENT_TOL = 0.05   # largest gap between the grid and search overlaps that agrees
# a ce row's outcome per certificate verdict: too few restarts decide nothing
_CE_OUTCOME = {"certified-CE": True, "product-state-found": False, "inconclusive": None}


def _load_channel(args) -> MultiUserChannel:
    if args.builtin and args.spec:
        raise ValueError("give either --builtin or --spec, not both")
    if args.builtin:
        return make_builtin(args.builtin)
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            try:    # not UTF-8 or not JSON; json.load recurses once per bracket
                spec = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"spec: {exc}") from None
        return channel_from_spec(spec)
    raise ValueError("one of --builtin or --spec is required")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when none is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: Report, out: str | None) -> int:
    """Write the report and return the exit code of its verdict."""
    _emit(report_to_json(report), out)
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _search_seed(args) -> int:
    """The seed, once --budget, --restarts, --seed and ZECAP_SEED can drive a search."""
    if not 1 <= args.budget <= MAX_BUDGET:
        raise ValueError(f"budget must be between 1 and {MAX_BUDGET}, got {args.budget}")
    if args.restarts is not None and not 1 <= args.restarts <= MAX_RESTARTS:
        raise ValueError(f"--restarts must be between 1 and {MAX_RESTARTS}, "
                         f"got {args.restarts}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    raw = os.environ.get("ZECAP_SEED", "0")
    if args.seed is None and not (raw.isascii() and raw.strip().isdigit()):
        raise ValueError(f"ZECAP_SEED must be a non-negative integer, got {raw!r}")
    return int(raw) if args.seed is None else args.seed


def _slot_labels(channel: MultiUserChannel) -> list[str]:
    return [chr(ord("A") + i) for i in range(len(channel.sender_dims))]


def _applicable_suites(channel: MultiUserChannel) -> list[str]:
    if channel.payload is None:
        # the teleport suite drives two uses of a channel shaped like e12
        shaped = (channel.sender_dims, channel.receiver_dims) == ((2,), (2, 2))
        return ["teleport"] if shaped else []
    suites = ["properties", "ce", "two-use"]
    if len(channel.sender_dims) >= 2 and len(set(channel.sender_dims)) == 1 \
            and len(channel.payload.u_slots) == len(channel.sender_dims):
        suites.append("privacy")
    if len(channel.sender_dims) == 2:
        suites.append("renyi")
    return suites


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_properties(channel, report: Report, slots: list[int] | None) -> None:
    pl = channel.payload
    use_slots = slots if slots is not None else list(pl.u_slots)
    checks = symmetry_checks(pl.s0, pl.s1, use_slots).checks
    # the slot-independent transpose/orthogonality rows go around the first slot's
    for check in sorted(checks, key=lambda c: c.slot not in (None, use_slots[0])):
        tag = f"@{check.slot}" if check.slot is not None else ""
        report.add(f"properties/{check.name}{tag}",
                   "projector symmetry residual (float)",
                   check.residual, SYMMETRY_TOL, check.passed)
    exact = exact_symmetry_checks(channel.sender_dims, pl.exact_s0, use_slots)
    for name, ok in exact.items():
        report.add(f"properties/exact/{name}",
                   "projector symmetry identity (exact field arithmetic)",
                   ok, None, ok)


def _suite_ce(channel, report: Report, alpha: AlphaLocalCertificate) -> None:
    pl = channel.payload
    res = _GRID_RESOLUTIONS.get(sum(2 * (d - 1) for d in channel.sender_dims))
    for label, sub, cert in (("S0", pl.s0, alpha.s0_certificate),
                             ("S1", pl.s1, alpha.s1_certificate)):
        report.add(f"ce/{label}", "no product state found in the subspace",
                   cert.max_overlap_found, 1.0 - DEFAULT_CE_GAP, _CE_OUTCOME[cert.verdict])
        if res is not None:
            # D_u shifts a grid phase by pi, a grid step at even resolution,
            # so a carried-over S1 has S0's grid maximum
            if label == "S0" or alpha.s1_slot is None:
                grid_val = grid_product_overlap(sub, res)
            agree = abs(grid_val - cert.max_overlap_found) <= GRID_AGREEMENT_TOL
            report.add(f"ce/{label}/grid",
                       f"grid oracle (resolution {res}) agrees with the "
                       f"alternating search within {GRID_AGREEMENT_TOL}",
                       grid_val, GRID_AGREEMENT_TOL, agree)
    # fails on a product state in either subspace, else waits on a search too short to certify
    outcomes = {_CE_OUTCOME[c.verdict] for c in (alpha.s0_certificate, alpha.s1_certificate)}
    report.add("ce/alpha-local-one", "single use cannot transmit any bit perfectly",
               alpha.alpha_local_one, None, min(outcomes, key=[False, None, True].index))


def _suite_two_use(channel, report: Report, slots: list[int] | None) -> None:
    m = len(channel.sender_dims)
    labels = _slot_labels(channel)
    wanted = slots if slots is not None else [s for s in range(2 * m)
                                              if (s % m) in channel.payload.u_slots]
    # codeword 1 is psi0 times `parity_signs` on one slot, a diagonal unitary
    # inside that slot's sender group, so every sender cut keeps psi0's
    # Schmidt coefficients, and psi0's one check stands for every slot
    code = build_two_use_code(channel, 0)
    prep_ok = check_local_preparability(code.inputs[0], code.dims, code.sender_partition)
    # the outputs are diag(p) of their flag distributions; s and s + m share one
    phi = flag_distribution(channel)
    flips = {u: flag_distribution(channel, u) for u in dict.fromkeys(s % m for s in wanted)}
    for s in wanted:
        label = labels[s % m] + ("'" if s >= m else "")
        report.add(f"two-use/{label}/local", "codewords are product across senders",
                   prep_ok, None, prep_ok)
        overlap = float(np.vdot(phi, flips[s % m]))
        report.add(f"two-use/{label}/orthogonal",
                   "two-use outputs for the two messages are orthogonal",
                   overlap, ORTHO_OVERLAP_TOL, overlap <= ORTHO_OVERLAP_TOL)


def _suite_teleport(channel, report: Report) -> None:
    power = tensor_power(channel, 2)
    # |00> and |01>, each applied and decoded once
    cert = verify_orthogonal_outputs(power, basis_codebook(channel, 2, [(0, 0), (0, 1)]))
    p_first, p_second = cert.decoded[0][0], cert.decoded[1][1]
    report.add("teleport/codeword-0", "decoder identifies the first codeword",
               1.0 - p_first, DECODE_TOL, abs(1.0 - p_first) <= DECODE_TOL)
    report.add("teleport/codeword-1", "decoder identifies the second codeword",
               1.0 - p_second, DECODE_TOL, abs(1.0 - p_second) <= DECODE_TOL)
    report.add("teleport/locc-decoder",
               "orthogonal outputs carry a constructive local decoder",
               cert.decoder, None, cert.decoder == "teleportation-LOCC")
    report.add("teleport/assumed-indistinguishable",
               "single-use outputs taken LOCC-indistinguishable (external fact, "
               "not verified here)", True, None, True, informational=True)


def _suite_privacy(channel, report: Report) -> None:
    m = len(channel.sender_dims)
    labels = _slot_labels(channel)
    phi = flag_distribution(channel)
    flips = [flag_distribution(channel, i) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            ok, details = privacy_verdict(phi, flips[i], flips[j])
            report.add(f"privacy/{labels[i]}{labels[j]}",
                       "the channel output does not reveal which sender signalled",
                       details["output_difference"], ORTHO_OVERLAP_TOL, ok)


def _suite_renyi(channel, report: Report, seed: int, budget: int,
                 ce_restarts: int | None, alpha: AlphaLocalCertificate | None) -> None:
    gap = additivity_gap_at_zero(channel.payload.s0, budget=budget, seed=seed,
                                 ce_restarts=ce_restarts,
                                 complement_certificate=alpha and alpha.s1_certificate)
    report.extra["renyi_gap"] = gap.verdict

    def outcome(ok: bool) -> bool | None:
        # an inconclusive gap run leaves the rows it did not pass undecided
        return None if gap.verdict == "inconclusive" and not ok else ok

    report.add("renyi/single-use-rank",
               "certified minimum single-use output rank",
               gap.single_use_floor, None, outcome(gap.single_use_floor >= 2))
    report.add("renyi/two-use-rank", "best two-use output rank found",
               gap.two_use_rank, None,
               outcome(gap.two_use_rank < gap.single_use_floor ** 2))
    report.add("renyi/verdict", "two uses beat twice the single-use bits",
               gap.verdict, None, outcome(gap.verdict == "gap-found"))


def cmd_verify(args) -> int:
    channel = _load_channel(args)
    seed = _search_seed(args)
    applicable = _applicable_suites(channel)
    if args.suite == "all":
        if not applicable:
            return _usage_error(f"no suite applies to {channel.name or 'this channel'}")
        suites = applicable
    else:
        suites = [s.strip() for s in args.suite.split(",")]
        if "" in suites:
            return _usage_error(f"--suite {args.suite!r} names an empty suite")
        unknown = [s for s in suites if s not in ALL_SUITES]
        if unknown:
            return _usage_error(f"unknown suite(s): {', '.join(unknown)}")
        if len(set(suites)) < len(suites):
            return _usage_error(f"--suite {args.suite!r} names a suite twice")
        not_applicable = [s for s in suites if s not in applicable]
        if not_applicable:
            return _usage_error(
                f"suite(s) {', '.join(not_applicable)} do not apply to "
                f"{channel.name or 'this channel'}")
    slots = None
    if args.slots is not None:
        slots = [slot_index(channel, s) for s in args.slots.split(",")]
        if len(set(slots)) < len(slots):
            return _usage_error(f"--slots {args.slots!r} names a slot twice")
    # the one-shot certificate gives the ce rows, and its S1 certificate is
    # the renyi suite's for the complement of S0; made once, before the suites,
    # and for renyi alone only when S1 = D S0 carries S0's search over
    pl = channel.payload
    alpha = None
    if "ce" in suites or "renyi" in suites and parity_conjugate_slot(
            pl.s0.dims, pl.exact_s0, pl.u_slots) is not None:
        alpha = certify_alpha_local_one(channel, restarts=args.restarts, seed=seed)
    report = Report(command="verify", channel=channel.name or "custom", seed=seed)
    report.extra["suites"] = ",".join(suites)
    tp = check_trace_preserving(channel)
    report.add("channel/trace-preserving", "completeness of the measurement/outputs",
               tp, TRACE_TOL, tp <= TRACE_TOL)
    for suite in suites:
        if suite == "properties":
            # A and A' are one sender slot to the projector identities
            _suite_properties(channel, report, list(dict.fromkeys(
                s % len(channel.sender_dims) for s in slots)) if slots else None)
        elif suite == "ce":
            _suite_ce(channel, report, alpha)
        elif suite == "two-use":
            _suite_two_use(channel, report, slots)
        elif suite == "teleport":
            _suite_teleport(channel, report)
        elif suite == "privacy":
            _suite_privacy(channel, report)
        elif suite == "renyi":
            _suite_renyi(channel, report, seed, args.budget, args.restarts, alpha)
    report.finalize()
    return _emit_report(report, args.out)


def cmd_renyi_gap(args) -> int:
    channel = _load_channel(args)
    seed = _search_seed(args)
    if channel.payload is None or len(channel.sender_dims) != 2:
        return _usage_error("the gap check needs a two-sender projective channel")
    report = Report(command="renyi-gap", channel=channel.name or "custom", seed=seed)
    gap = additivity_gap_at_zero(channel.payload.s0, budget=args.budget,
                                 seed=seed, ce_restarts=args.restarts)
    report.extra.update({
        "single_use_rank": gap.single_use_rank,
        "single_use_floor": gap.single_use_floor,
        "two_use_rank": gap.two_use_rank,
        "single_use_bits": gap.single_use_bits,
        "two_use_bits": gap.two_use_bits,
        "notes": gap.notes,
    })
    if gap.two_use_result is not None:
        report.extra["witness"] = [
            [float(f"{z.real:.15g}"), float(f"{z.imag:.15g}")]
            for z in gap.two_use_result.achiever
        ]
    report.add("renyi/complement-ce", "complement contains no product state",
               gap.complement_certificate.verdict if gap.complement_certificate else "n/a",
               None,
               gap.complement_certificate is None
               or gap.complement_certificate.verdict == "certified-CE")
    report.add("renyi/verdict", "two uses beat twice the single-use bits",
               gap.verdict, None, gap.verdict in ("gap-found", "no-gap"))
    report.verdict = {"gap-found": "pass", "no-gap": "pass"}.get(gap.verdict,
                                                                 "inconclusive")
    return _emit_report(report, args.out)


def cmd_describe(args) -> int:
    doc = describe_channel(make_builtin(args.name))
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error coding certificates for small multi-sender "
                    "quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--builtin", help="builtin channel: e12, e21, em1:<m>, variant34")
    common.add_argument("--spec", help="path to a JSON channel description")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for all randomized searches (default: "
                             "$ZECAP_SEED or 0)")
    common.add_argument("--out", help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run verification suites and emit a report")
    p_verify.add_argument("--suite", default="all",
                          help="comma list from: " + ",".join(ALL_SUITES) +
                               " (default: all applicable)")
    p_verify.add_argument("--slots", help="restrict slot-dependent checks to a comma "
                                          "list of distinct slots, each a sender "
                                          "letter or a letter and a prime, e.g. "
                                          "A,B or A,A',B,B'")
    p_verify.add_argument("--restarts", type=int, default=None,
                          help="restart budget for product-state searches")
    p_verify.add_argument("--budget", type=int, default=800,
                          help="cap on the p=0 gap suite's two-use rank search, "
                               "which stops once the gap is decided")
    p_verify.set_defaults(func=cmd_verify)

    p_gap = sub.add_parser("renyi-gap", parents=[common],
                           help="p=0 additivity gap for the channel's subspace")
    p_gap.add_argument("--budget", type=int, default=5000,
                       help="cap on the two-use rank search, which stops once "
                            "the gap is decided")
    p_gap.add_argument("--restarts", type=int, default=None,
                       help="restart budget for the complement certification")
    p_gap.set_defaults(func=cmd_renyi_gap)

    p_desc = sub.add_parser("describe", help="print a builtin channel as a spec file")
    p_desc.add_argument("name", help="e12, e21, em1:<m> or variant34")
    p_desc.add_argument("--out", help="write the JSON description here")
    p_desc.set_defaults(func=cmd_describe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage problems; normalize to the usage code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
