"""In-memory span recorder and the per-layer metrics computed from its spans.

The recorder wraps public functions at the module attributes the pipeline
calls through, so the library itself is unchanged and an untraced run pays
nothing.  A span holds a name, start, end, the span that caused it, the
operation id, and a few facts read off the call's arguments and result at
the same boundary (basis length, points returned, ...).  A span's self time
is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from permsplit import centralizer, cli, errors, perms, polynomial, solver, splitter, verify


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    error: str = None
    facts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn, facts=None):
        def call(*args, **kwargs):
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.op)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result

        return call

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


# -- facts recorded at each boundary -------------------------------------------------


def _orbitals_facts(args, kwargs, basis):
    gens = args[0]
    return {"schreier_generators": gens.degree * len(gens)}


def _groebner_facts(args, kwargs, basis):
    return {"polys": len(basis), "trivial": polynomial.is_trivial_basis(basis)}


def _zero_dim_facts(args, kwargs, points):
    asked = kwargs.get("precision", solver.DEFAULT_PRECISION)
    top = max((p.precision for p in points), default=asked)
    return {
        "points": len(points),
        "numeric": sum(not e for p in points for e in p.exact),
        "escalations": int(math.log2(top / asked)) if top > asked else 0,
    }


def _sqrt_facts(args, kwargs, root):
    return {"exact": root is not errors.UNREPRESENTABLE}


def _split_facts(args, kwargs, deco):
    return {
        "systems": len(deco.events),
        "dimensions": len({e.d for e in deco.events}),
        "inconsistent": sum(e.kind == "inconsistent" for e in deco.events),
        "useful": sum(e.extracted > 0 for e in deco.events),
        "slices": sum(e.kind == "slice" for e in deco.events),
    }


def _report_facts(args, kwargs, report):
    return {"checks": len(report.checks), "failed": len(report.failures())}


def _render_facts(args, kwargs, text):
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute, span name, facts): the boundaries the pipeline crosses
WRAPPED = (
    (perms, "parse_generator_text", "perms.parse", None),
    (centralizer, "orbit_with_tree", "perms.orbit", None),
    (centralizer, "compute_orbitals", "centralizer.orbitals", _orbitals_facts),
    (centralizer, "compute_structure_constants", "centralizer.constants", None),
    (splitter, "split_from_constants", "splitter.split", _split_facts),
    (splitter, "groebner_basis", "polynomial.groebner", _groebner_facts),
    (solver, "groebner_basis", "polynomial.groebner", _groebner_facts),
    (splitter, "solve_zero_dimensional", "solver.zero_dim", _zero_dim_facts),
    (solver, "solve_zero_dimensional", "solver.zero_dim", _zero_dim_facts),
    (splitter, "particular_solution_on_slice", "solver.slice", None),
    (solver, "sqrt_if_nice", "exactfield.sqrt", _sqrt_facts),
    (splitter, "build_orthogonality_system", "splitter.orthogonality_forms", None),
    (splitter, "build_orthogonality_system_right", "splitter.orthogonality_forms", None),
    (splitter, "algebra_product", "splitter.algebra_product", None),
    (verify, "algebra_product", "verify.algebra_product", None),
    (verify, "verify_family_algebraic", "verify.algebraic", _report_facts),
    (verify, "verify_matrix_level", "verify.matrix", _report_facts),
    (cli, "render_decomposition_text", "cli.render", _render_facts),
)


@contextmanager
def traced(recorder):
    """Wrap every boundary in WRAPPED for the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
    try:
        for (mod, attr, name, facts), (_, _, fn) in zip(WRAPPED, saved):
            setattr(mod, attr, recorder.wrap(name, fn, facts))
        yield recorder
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# -- per-layer metrics -------------------------------------------------------------------


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans):
    """Counts, busy times and self times per layer, keyed by metric name.

    Values are (value, unit) pairs.  Times sum over every span of the name;
    a ``_self_s`` time excludes the span's direct children.
    """
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.duration
            children[s.parent].append(i)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def each(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name):
        return sum(s.duration for s in each(name))

    def self_time(name):
        return sum(spans[i].duration - child_time[i] for i in by_name.get(name, ()))

    def fact(name, key):
        return sum(s.facts.get(key, 0) for s in each(name))

    groebner = each("polynomial.groebner")
    slices = by_name.get("solver.slice", ())
    # a slice runs one Groebner basis of its system, then one per attempt
    attempts = sum(
        sum(spans[c].name == "polynomial.groebner" for c in children[i]) - 1
        for i in slices
    )
    solved_slices = sum(spans[i].error is None for i in slices)
    sqrt_calls = len(each("exactfield.sqrt"))
    systems = fact("splitter.split", "systems")

    return {
        "perms.parse_s": (total("perms.parse"), "s"),
        "perms.orbit_s": (total("perms.orbit"), "s"),
        "centralizer.orbitals_s": (total("centralizer.orbitals"), "s"),
        "centralizer.constants_s": (total("centralizer.constants"), "s"),
        "centralizer.schreier_generators": (fact("centralizer.orbitals", "schreier_generators"), "count"),
        "splitter.split_s": (total("splitter.split"), "s"),
        "splitter.self_s": (self_time("splitter.split"), "s"),
        "splitter.systems": (systems, "count"),
        "splitter.dimensions_scanned": (fact("splitter.split", "dimensions"), "count"),
        "splitter.inconsistent_systems": (fact("splitter.split", "inconsistent"), "count"),
        "splitter.useful_system_ratio": (_ratio(fact("splitter.split", "useful"), systems), "ratio"),
        "splitter.slices": (fact("splitter.split", "slices"), "count"),
        "splitter.orthogonality_forms_s": (total("splitter.orthogonality_forms"), "s"),
        "splitter.algebra_products": (len(each("splitter.algebra_product")), "count"),
        "polynomial.groebner_calls": (len(groebner), "count"),
        "polynomial.groebner_s": (total("polynomial.groebner"), "s"),
        "polynomial.groebner_trivial_ratio": (_ratio(fact("polynomial.groebner", "trivial"), len(groebner)), "ratio"),
        "polynomial.groebner_basis_polys": (fact("polynomial.groebner", "polys"), "count"),
        "polynomial.groebner_failed": (sum(s.error == "ResourceLimit" for s in groebner), "count"),
        "solver.zero_dim_calls": (len(each("solver.zero_dim")), "count"),
        "solver.zero_dim_self_s": (self_time("solver.zero_dim"), "s"),
        "solver.points": (fact("solver.zero_dim", "points"), "count"),
        "solver.numeric_coordinates": (fact("solver.zero_dim", "numeric"), "count"),
        "solver.precision_escalations": (fact("solver.zero_dim", "escalations"), "count"),
        "solver.slice_calls": (len(slices), "count"),
        "solver.slice_self_s": (self_time("solver.slice"), "s"),
        "solver.slice_attempts_per_solution": (_ratio(attempts, solved_slices), "ratio"),
        "exactfield.sqrt_calls": (sqrt_calls, "count"),
        "exactfield.sqrt_exact_ratio": (_ratio(fact("exactfield.sqrt", "exact"), sqrt_calls), "ratio"),
        "verify.algebraic_s": (total("verify.algebraic"), "s"),
        "verify.algebraic_checks": (fact("verify.algebraic", "checks"), "count"),
        "verify.matrix_s": (total("verify.matrix"), "s"),
        "verify.matrix_checks": (fact("verify.matrix", "checks"), "count"),
        "verify.failed_checks": (fact("verify.algebraic", "failed") + fact("verify.matrix", "failed"), "count"),
        "cli.render_s": (total("cli.render"), "s"),
        "cli.report_bytes": (fact("cli.render", "bytes"), "count"),
    }
