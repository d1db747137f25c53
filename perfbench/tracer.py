"""In-memory span tracer around the public functions of the treelat layers.

Each traced function is replaced, under every module attribute that refers
to it, by a wrapper that records a span (name, start, end, parent, op).
Because the package's modules call each other through their module globals
(``cli.k0_rank``, ``homology.kernel_basis``, ``zlinalg.smith_normal_form``),
nested calls become child spans.  Spans are kept in memory; the arguments or
results that the work counters need are kept by reference and reduced only
after the run, so the counters cost nothing inside a span.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# The layer boundaries that are traced, by defining module: the functions
# whose spans a per-layer metric reads, directly or as children of a span
# whose self time is reported.  Per-entry helpers (sigma_act, h_image_index,
# ...) are left unwrapped: they run tens of thousands of times per analysis,
# so a span there would mostly measure the tracer.  Their cost shows up as
# the caller's self time.
TRACED = {
    "mozes": ("generate_mozes_complex",),
    "complex_model": ("load_complex", "validate_vht", "expand_directed_squares"),
    "tiling_system": ("build_tiling", "connectivity", "stacked_matrix", "k0_rank"),
    "zlinalg": (
        "smith_normal_form",
        "kernel_basis",
        "cokernel_invariants",
        "solve_exact",
        "hermite_row_basis",
        "lattice_membership",
    ),
    "homology": ("chain_maps", "homology_report", "verify_main_theorem"),
    "cli": ("analyze_document", "build_report"),
    "matio": ("write_triplets",),
}

# Spans that keep their first argument or their result for the counters.
_KEEP_ARG = {"zlinalg.smith_normal_form", "zlinalg.hermite_row_basis"}
_KEEP_RESULT = {"zlinalg.kernel_basis", "tiling_system.stacked_matrix", "matio.write_triplets"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "kept")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.kept = None


class Tracer:
    """Records spans while ``op`` is set; install() patches, restore() undoes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        keep_arg = name in _KEEP_ARG
        keep_result = name in _KEEP_RESULT
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep_arg:
                span.kept = args[0]
            elif keep_result:
                span.kept = result
            return result

        return traced

    def install(self, package: str = "treelat") -> None:
        if self._patches:  # installed already
            return
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"{package}.{module_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def dump(self) -> dict:
        """Spans as plain data: [name, start, end, parent index, op]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [
                    s.name,
                    round(s.start - t0, 7),
                    round(s.end - t0, 7),
                    None if s.parent is None else index[id(s.parent)],
                    s.op,
                ]
                for s in self.spans
            ],
        }


def _bits(vectors) -> int:
    return max((abs(x).bit_length() for vec in vectors for x in vec), default=0)


def op_counts(spans) -> dict:
    """Work counters of one operation's spans; these repeat exactly."""
    calls = defaultdict(int)
    snf_inputs, hermite_inputs, stacked_shapes = set(), set(), set()
    for s in spans:
        calls[s.name] += 1
        if s.name == "zlinalg.smith_normal_form":
            snf_inputs.add((s.kept.rows, s.kept.cols, s.kept.entries))
        elif s.name == "zlinalg.hermite_row_basis":
            hermite_inputs.add(tuple(tuple(v) for v in s.kept))
        elif s.name == "tiling_system.stacked_matrix":
            stacked_shapes.add((s.kept.rows, s.kept.cols))
    snf = [s.kept for s in spans if s.name == "zlinalg.smith_normal_form"]
    stacked = [s.kept for s in spans if s.name == "tiling_system.stacked_matrix"]
    return {
        "calls": dict(sorted(calls.items())),
        "snf_distinct": len(snf_inputs),
        "snf_stacked": sum((a.rows, a.cols) in stacked_shapes for a in snf),
        "snf_cells_max": max((a.rows * a.cols for a in snf), default=0),
        "hermite_distinct": len(hermite_inputs),
        "stacked_nnz": sum(sum(1 for row in m.entries for x in row if x) for m in stacked),
        "stacked_cells": sum(m.rows * m.cols for m in stacked),
        "kernel_coeff_bits_max": max(
            (_bits(s.kept) for s in spans if s.name == "zlinalg.kernel_basis"), default=0
        ),
        "export_bytes": sum(
            len(s.kept.encode()) for s in spans if s.name == "matio.write_triplets"
        ),
    }


def layer_metrics(spans, passes: int, timer) -> tuple[dict, dict]:
    """Per-layer figures per pass, and the counters of each operation.

    Spans with op "setup" count in full (one set-up builds one pass's
    documents); the rest are divided by ``passes``.  timer(start, end) gives
    a span's seconds outside the speed probe's slices and the slowdown there
    (SpeedProbe.time); a span's time is the one divided by the other.  Its
    self time is its seconds less its children's, divided by its own
    slowdown: children of one span run one after another on one thread, so
    that is the part of the span they cover, and it is never negative.
    """
    timed = {id(s): timer(s.start, s.end) for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] += timed[id(s)][0]
    total = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        w = 1.0 if s.op == "setup" else 1.0 / passes
        seconds, slowdown = timed[id(s)]
        total[s.name] += w * seconds / slowdown
        self_time[s.name] += w * (seconds - children[id(s)]) / slowdown

    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    counts = {op: op_counts(group) for op, group in by_op.items() if op != "setup"}

    def per_pass(key):
        return sum(c[key] for c in counts.values()) / passes

    def calls(name):
        return sum(c["calls"].get(name, 0) for c in counts.values()) / passes

    snf_calls = calls("zlinalg.smith_normal_form")
    hermite_calls = calls("zlinalg.hermite_row_basis")
    return {
        "mozes.generate_s": total["mozes.generate_mozes_complex"],
        "complex_model.load_s": total["complex_model.load_complex"],
        "complex_model.validate_s": total["complex_model.validate_vht"],
        "complex_model.expand_s": total["complex_model.expand_directed_squares"],
        "tiling_system.build_tiling_s": total["tiling_system.build_tiling"],
        "tiling_system.connectivity_s": total["tiling_system.connectivity"],
        "tiling_system.stacked_matrix_s": total["tiling_system.stacked_matrix"],
        "tiling_system.stacked_nnz": per_pass("stacked_nnz"),
        "tiling_system.stacked_cells": per_pass("stacked_cells"),
        "tiling_system.k0_rank_self_s": self_time["tiling_system.k0_rank"],
        "homology.chain_maps_s": total["homology.chain_maps"],
        "homology.homology_report_self_s": self_time["homology.homology_report"],
        "homology.verify_self_s": self_time["homology.verify_main_theorem"],
        "zlinalg.snf_calls": snf_calls,
        "zlinalg.snf_s": total["zlinalg.smith_normal_form"],
        "zlinalg.snf_cells_max": max((c["snf_cells_max"] for c in counts.values()), default=0),
        "zlinalg.snf_distinct_ratio": per_pass("snf_distinct") / snf_calls if snf_calls else 0.0,
        "zlinalg.snf_stacked_calls": per_pass("snf_stacked"),
        "zlinalg.hermite_calls": hermite_calls,
        "zlinalg.hermite_s": total["zlinalg.hermite_row_basis"],
        "zlinalg.membership_s": total["zlinalg.lattice_membership"],
        "zlinalg.hermite_distinct_ratio": (
            per_pass("hermite_distinct") / hermite_calls if hermite_calls else 0.0
        ),
        "zlinalg.solve_s": total["zlinalg.solve_exact"],
        "zlinalg.kernel_coeff_bits_max": max(
            (c["kernel_coeff_bits_max"] for c in counts.values()), default=0
        ),
        "cli.analyze_document_s": total["cli.analyze_document"],
        "cli.build_report_s": total["cli.build_report"],
        "matio.write_triplets_s": total["matio.write_triplets"],
        "matio.export_bytes": per_pass("export_bytes"),
    }, counts
