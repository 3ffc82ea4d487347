"""Layer tracing from outside the package: wrap public `zecap` functions.

Each target is a function (or method) of one `zecap` module. Modules import
each other's functions by name (`from .subspaces import ...`), so a wrapper
must replace the binding in every namespace that holds it; the table below
names those namespaces, and `check_targets` fails when one of them no longer
binds the function or when an unlisted namespace does. Nothing inside
`src/zecap` is modified on disk.

A span is (name, start, end, parent span, operation id). Spans and counters
stay in memory; `write_spans` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import prod
from typing import Callable


@dataclass(frozen=True)
class Target:
    span: str                     # span and metric prefix
    module: str                   # defining zecap module
    attr: str                     # attribute path inside it ("Cls.method")
    namespaces: tuple[str, ...]   # zecap modules binding the function by name
    params: tuple[str, ...] = ()  # parameters the counter hook reads
    hook: str = ""                # name of the counter hook below


TARGETS = (
    Target("cli.main", "cli", "main", ("cli",)),
    Target("specio.channel_from_spec", "specio", "channel_from_spec", ("cli", "specio")),
    Target("specio.describe_channel", "specio", "describe_channel", ("cli", "specio")),
    Target("specio.report_to_json", "specio", "report_to_json", ("cli", "specio"),
           hook="report_bytes"),
    Target("exactnum.exact_projector", "exactnum", "exact_projector",
           ("exactnum", "subspaces")),
    Target("exactnum.exact_matmul", "exactnum", "exact_matmul", ("exactnum", "subspaces")),
    Target("exactnum.exact_all_zero", "exactnum", "exact_all_zero", ("exactnum", "subspaces")),
    Target("subspaces.max_product_overlap", "subspaces", "max_product_overlap",
           ("subspaces",), ("subspace", "restarts", "seed"), "product_search"),
    Target("subspaces.certify_completely_entangled", "subspaces",
           "certify_completely_entangled", ("cli", "protocols", "renyi", "subspaces")),
    Target("subspaces.grid_product_overlap", "subspaces", "grid_product_overlap",
           ("cli", "subspaces"), ("subspace", "resolution"), "grid_points"),
    Target("subspaces.exact_symmetry_checks", "subspaces", "exact_symmetry_checks",
           ("cli", "subspaces"), hook="identities"),
    Target("subspaces.symmetry_checks", "subspaces", "symmetry_checks", ("cli", "subspaces")),
    Target("subspaces.Subspace.complement", "subspaces", "Subspace.complement", ("subspaces",)),
    Target("channels.apply_channel_to_ket", "channels", "apply_channel_to_ket",
           ("channels", "protocols", "renyi")),
    Target("channels.apply_channel", "channels", "apply_channel", ("channels", "cli")),
    Target("channels.check_trace_preserving", "channels", "check_trace_preserving",
           ("channels", "cli")),
    Target("channels.to_kraus", "channels", "to_kraus", ("channels", "renyi"),
           hook="kraus_size"),
    Target("renyi.additivity_gap_at_zero", "renyi", "additivity_gap_at_zero", ("cli", "renyi")),
    Target("renyi.min_output_rank_search", "renyi", "min_output_rank_search", ("renyi",),
           hook="rank_targets"),
    # scipy's optimizer as bound in zecap.renyi: one span per L-BFGS run
    Target("renyi.lbfgs", "renyi", "minimize", ("renyi",), hook="lbfgs"),
    Target("protocols.certify_alpha_local_one", "protocols", "certify_alpha_local_one",
           ("cli", "protocols")),
    Target("protocols.verify_orthogonal_outputs", "protocols", "verify_orthogonal_outputs",
           ("cli", "protocols")),
    Target("protocols.check_local_preparability", "protocols", "check_local_preparability",
           ("cli", "protocols")),
    Target("protocols.privacy_check", "protocols", "privacy_check", ("cli", "protocols")),
    Target("protocols.teleportation_decode", "protocols", "teleportation_decode",
           ("cli", "protocols")),
    Target("linalg.partial_trace", "linalg", "partial_trace",
           ("channels", "linalg", "protocols")),
    Target("linalg.gram_schmidt", "linalg", "gram_schmidt", ("linalg", "subspaces")),
)

# other module attributes the counter hooks read
REQUIRED = (("subspaces", "default_restarts"), ("renyi", "RANK_THRESHOLD_RATIO"))

# (metric, unit) in report order, as declared in the repo's BENCHMARK.json;
# "calls", "s" and "self_s" come from spans, everything else from counters.
# Every metric is reported on every workload, as 0 where the layer is not
# touched.
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
with open(BENCHMARK_JSON, "r", encoding="utf-8") as _fh:
    PER_LAYER = tuple((m["name"], m["unit"]) for m in json.load(_fh)["per_layer"])


class TracerError(RuntimeError):
    """A wrapped function moved, was renamed or gained an unlisted binding."""


def _module(name: str):
    return importlib.import_module(f"zecap.{name}")


def _resolve(target: Target):
    """(owner object, attribute name, original function) for a target."""
    owner = _module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def check_targets() -> None:
    """Raise TracerError unless every target is bound exactly where listed."""
    for mod, attr in REQUIRED:
        if not hasattr(_module(mod), attr):
            raise TracerError(f"zecap.{mod}.{attr} is gone")
    loaded = {name[len("zecap."):]: mod for name, mod in list(sys.modules.items())
              if name.startswith("zecap.")}
    for target in TARGETS:
        try:
            _, _, original = _resolve(target)
        except AttributeError as exc:
            raise TracerError(f"{target.span}: {exc}") from None
        missing = set(target.params) - set(inspect.signature(original).parameters)
        if missing:
            raise TracerError(f"{target.span} lost parameter(s) {sorted(missing)}")
        if "." in target.attr:
            continue              # methods are patched on their class only
        for ns in target.namespaces:
            if getattr(_module(ns), target.attr, None) is not original:
                raise TracerError(f"zecap.{ns} no longer binds {target.span}")
        extra = sorted(ns for ns, mod in loaded.items() if ns not in target.namespaces
                       and any(v is original for v in vars(mod).values()))
        if extra:
            raise TracerError(f"{target.span} is also bound in unlisted "
                              f"namespace(s) {extra}")


class Tracer:
    """Records spans and counters while installed; restores bindings on exit."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock               # span start and end times
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._seen_searches: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._first = 0

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        check_targets()
        for target in TARGETS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(target, original)
            owners = [owner] if "." in target.attr else \
                [_module(ns) for ns in target.namespaces]
            for o in owners:
                self._patches.append((o, attr, getattr(o, attr)))
                setattr(o, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        hook = getattr(self, f"_hook_{target.hook}") if target.hook else None
        sig = inspect.signature(fn) if target.params else None
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                hook(bound.arguments if bound else None, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-operation state ----------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen_searches.clear()

    def start_pass(self) -> None:
        """Counters restart per pass; spans accumulate for `write_spans`."""
        self._first = len(self.spans)
        self.counters.clear()

    # -- counter hooks ----------------------------------------------------

    def _hook_product_search(self, args, result) -> None:
        sub, restarts = args["subspace"], args["restarts"]
        if restarts is None:
            restarts = _module("subspaces").default_restarts(sub.dims)
        c = self.counters
        c["subspaces.max_product_overlap.restarts"] += restarts
        c["subspaces.max_product_overlap.best_sweeps"] += result.sweeps
        proj = hashlib.sha256(sub.projector.tobytes()).hexdigest()
        key = (proj, args["seed"], restarts)
        if key in self._seen_searches:
            c["subspaces.max_product_overlap.repeats"] += 1
        self._seen_searches.add(key)

    def _hook_grid_points(self, args, result) -> None:
        res = args["resolution"]
        self.counters["subspaces.grid_product_overlap.points"] += prod(
            (res + 1) ** (d - 1) * res ** (d - 1) for d in args["subspace"].dims)

    def _hook_identities(self, args, result) -> None:
        self.counters["subspaces.exact_symmetry_checks.identities"] += len(result)

    def _hook_kraus_size(self, args, result) -> None:
        # computed from array sizes: the largest Kraus set handed out
        c = self.counters
        c["channels.to_kraus.ops_max"] = max(c["channels.to_kraus.ops_max"], len(result))
        c["channels.to_kraus.bytes"] = max(c["channels.to_kraus.bytes"],
                                           sum(k.nbytes for k in result))

    def _hook_rank_targets(self, args, result) -> None:
        self.counters["renyi.rank_targets_tried"] += len(result.tried_ranks)

    def _hook_lbfgs(self, args, result) -> None:
        c = self.counters
        c["renyi.lbfgs.nfev"] += int(result.nfev)
        # the rank search accepts a target once the tail mass is this small
        if result.fun < _module("renyi").RANK_THRESHOLD_RATIO / 10:
            c["renyi.lbfgs.hits"] += 1

    def _hook_report_bytes(self, args, result) -> None:
        self.counters["specio.report_bytes"] += len(result.encode())

    # -- aggregation ------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters of the current pass."""
        first, spans = self._first, self.spans
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        child = [0.0] * (len(spans) - first)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= 0:
                child[parent - first] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans[first:]):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:          # recursion counts once, at the outermost call
                incl[name] += end - start
        c = self.counters
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            prefix, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[prefix]
            elif kind == "s":
                out[metric] = incl[prefix]
            elif kind == "self_s":
                out[metric] = self_s[prefix]
            else:
                out[metric] = c[metric]
        searches = calls["subspaces.max_product_overlap"]
        out["subspaces.max_product_overlap.repeat_ratio"] = (
            c["subspaces.max_product_overlap.repeats"] / searches if searches else 0.0)
        runs = calls["renyi.lbfgs"]
        out["renyi.lbfgs.runs"] = runs
        out["renyi.lbfgs.hit_ratio"] = c["renyi.lbfgs.hits"] / runs if runs else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
