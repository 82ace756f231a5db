"""Command-line front end and the report formats it owns.

Exit codes: 0 success, 1 parse error, 2 intransitive action, 3 resource
limit, 4 internal invariant violation (any other error of the package), 5
verification failure.  Reports are byte-identical for identical inputs;
timing lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import mpmath

from .centralizer import compute_orbitals, compute_structure_constants
from .errors import (
    IntransitiveAction,
    InvariantViolation,
    MatrixCapExceeded,
    ParseError,
    PermsplitError,
    ResourceLimit,
    SliceExhausted,
)
from .exactfield import (
    ComplexBall,
    FieldElement,
    field_element_from_json,
    field_element_to_json,
    parse_field_element,
    render_field_element,
)
from .perms import parse_generators
from .solver import DEFAULT_PRECISION, MAX_PRECISION
from .splitter import (
    PROVENANCES,
    Decomposition,
    Projector,
    SplitConfig,
    split_from_constants,
)
from .verify import compare_to_reference, verify_family_algebraic, verify_matrix_level

__all__ = [
    "main",
    "render_analyze_text",
    "analyze_to_json",
    "render_decomposition_text",
    "parse_decomposition_text",
    "decomposition_to_json",
    "decomposition_from_json",
]


# -- analyze report -------------------------------------------------------------


def render_analyze_text(basis, consts=None):
    lengths = ", ".join(str(x) for x in basis.lengths_in_order())
    lines = [f"Rank: {basis.rank}. Suborbit lengths: {lengths}"]
    lines.append(f"Degree: {basis.degree}")
    sym = [f"A{r}" for r in range(1, basis.rank + 1) if basis.symmetric[r]]
    lines.append("Symmetric: " + (", ".join(sym) if sym else "none"))
    pairs = []
    for r in range(1, basis.rank + 1):
        rs = int(basis.transpose_of[r])
        if rs > r:
            pairs.append(f"(A{r}, A{rs})")
    lines.append("Transpose pairs: " + (", ".join(pairs) if pairs else "none"))
    if consts is not None:
        lines.append(
            "Commutative: " + ("yes" if consts.is_commutative() else "no")
        )
    return "\n".join(lines) + "\n"


def analyze_to_json(basis, consts=None, include_tensor=False):
    obj = {
        "degree": basis.degree,
        "rank": basis.rank,
        "suborbit_lengths": basis.lengths_in_order(),
        "suborbit_representatives": [
            int(basis.suborbit_representative[r]) for r in range(1, basis.rank + 1)
        ],
        "symmetric": [bool(basis.symmetric[r]) for r in range(1, basis.rank + 1)],
        "transpose_of": [
            int(basis.transpose_of[r]) for r in range(1, basis.rank + 1)
        ],
    }
    if consts is not None:
        obj["commutative"] = consts.is_commutative()
        if include_tensor:
            rank = consts.rank
            obj["structure_constants"] = [
                [[consts.c(p, q, r) for r in range(1, rank + 1)]
                 for q in range(1, rank + 1)]
                for p in range(1, rank + 1)
            ]
    return obj


# -- decomposition report ---------------------------------------------------------


def _decomposition_line(deco):
    """``10 ≅ 1 ⊕ 4 ⊕ 5`` with multiplicity blocks parenthesized and the
    second member of a conjugate pair marked with ``~``."""
    parts = []
    i = 0
    projs = deco.projectors
    while i < len(projs):
        p = projs[i]
        if p.block is not None:
            j = i
            while j < len(projs) and projs[j].block == p.block:
                j += 1
            inner = " ⊕ ".join(str(projs[k].dimension) for k in range(i, j))
            parts.append(f"({inner})")
            i = j
        else:
            parts.append(_dim_mark(projs, i))
            i += 1
    return f"{deco.degree} ≅ " + " ⊕ ".join(parts)


def _dim_mark(projs, i):
    p = projs[i]
    mark = "~" if (p.conjugate_of is not None and p.conjugate_of < i) else ""
    return f"{p.dimension}{mark}"


def _appendix_line(p, index):
    """Human-facing factored form: ``B[2] = 2/5*(A1 - 2/3*A2 + 1/6*A3)``."""
    if not p.exact:
        return f"# B[{index}] d={p.dimension} has numeric coordinates"
    b1 = p.coefficients[0]
    chunks = []
    for r, c in enumerate(p.coefficients, start=1):
        ratio = c / b1
        if ratio.is_zero():
            continue
        if ratio == 1:
            body, neg = f"A{r}", False
        elif ratio.is_rational():
            q = ratio.rational_value()
            neg = q < 0
            body = f"A{r}" if abs(q) == 1 else f"{abs(q)}*A{r}"
        else:
            neg = False
            body = f"({render_field_element(ratio, factored=False)})*A{r}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return f"# B[{index}] = {render_field_element(b1)}*({' '.join(chunks)})"


def _ball_to_strings(ball, precision):
    digits = max(int(precision * 0.302) + 8, 24)
    with mpmath.workprec(precision + 24):
        re = mpmath.nstr(ball.mid.real, digits, strip_zeros=False)
        im = mpmath.nstr(ball.mid.imag, digits, strip_zeros=False)
        rad = mpmath.nstr(ball.rad, 8)
    return re, im, rad


def _ball_from_strings(re, im, rad, precision):
    """The inverse of ``_ball_to_strings``."""
    with mpmath.workprec(precision + 24):
        return ComplexBall(mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)), mpmath.mpf(rad))


def render_decomposition_text(deco):
    out = []
    out.append(f"Degree: {deco.degree}")
    out.append(f"Rank: {deco.rank}")
    out.append(
        "Suborbit lengths: " + ", ".join(str(x) for x in deco.suborbit_lengths)
    )
    out.append("Decomposition: " + _decomposition_line(deco))
    out.append("")
    for m, p in enumerate(deco.projectors, start=1):
        out.append(_appendix_line(p, m))
        out.append(f"projector {m}")
        out.append(f"dimension {p.dimension}")
        out.append(f"exact {'true' if p.exact else 'false'}")
        out.append(f"provenance {p.provenance}")
        out.append(f"block {p.block if p.block is not None else '-'}")
        out.append(
            f"conjugate-of {p.conjugate_of + 1 if p.conjugate_of is not None else '-'}"
        )
        for r, c in enumerate(p.coefficients, start=1):
            if isinstance(c, FieldElement):
                out.append(f"coeff {r} {render_field_element(c)}")
            else:
                re, im, rad = _ball_to_strings(c, p.precision)
                out.append(f"coeff {r} numeric {re} {im} {rad} {p.precision}")
        out.append("end")
        out.append("")
    for note in deco.notes:
        out.append(f"# note: {note}")
    return "\n".join(out).rstrip() + "\n"


def parse_decomposition_text(text):
    """The inverse of ``render_decomposition_text``; ParseError, with the
    line number, on a malformed line or projector block."""
    degree = rank = lineno = None
    lengths = []
    projectors = []
    conjugate_lines = []
    current = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("Degree:"):
                degree = int(line.split(":", 1)[1])
            elif line.startswith("Rank:"):
                rank = int(line.split(":", 1)[1])
            elif line.startswith("Suborbit lengths:"):
                lengths = [int(t) for t in line.split(":", 1)[1].split(",")]
            elif line.startswith("Decomposition:"):
                continue
            elif line.startswith("projector"):
                if current is not None:
                    raise ParseError("projector before the open block's end", lineno)
                if rank is None:
                    raise ParseError("projector before the Rank header", lineno)
                current = {"coeffs": {}}
            elif line == "end":
                if current is None:
                    raise ParseError("end without projector", lineno)
                projectors.append(_projector_from_record(current, rank, lineno))
                conjugate_lines.append(current.get("conjugate_line"))
                current = None
            elif current is not None:
                key, _, rest = line.partition(" ")
                rest = rest.strip()
                if key == "dimension":
                    current["dimension"] = int(rest)
                elif key == "exact":
                    if rest not in ("true", "false"):
                        raise ParseError(f"exact must be true or false, not {rest!r}", lineno)
                    current["exact"] = rest == "true"
                elif key == "provenance":
                    current["provenance"] = rest
                elif key == "block":
                    current["block"] = None if rest == "-" else int(rest)
                elif key == "conjugate-of":
                    current["conjugate_of"] = None if rest == "-" else int(rest) - 1
                    current["conjugate_line"] = lineno
                elif key == "coeff":
                    r, _, txt = rest.partition(" ")
                    r = int(r)
                    if not 1 <= r <= rank:
                        raise ParseError(f"coeff {r} outside 1..{rank}", lineno)
                    if r in current["coeffs"]:
                        raise ParseError(f"repeated coeff {r}", lineno)
                    current["coeffs"][r] = _parse_coefficient(txt.strip())
                else:
                    raise ParseError(f"unknown projector field {key!r}", lineno)
            else:
                raise ParseError(f"unexpected line {line!r}", lineno)
    except (ArithmeticError, ValueError) as e:
        raise ParseError(f"malformed line: {e}", lineno) from e
    if current is not None:
        raise ParseError("projector without end", lineno)
    if degree is None or rank is None:
        raise ParseError("missing Degree/Rank headers")
    _check_conjugates(projectors, conjugate_lines)
    return Decomposition(
        degree=degree,
        rank=rank,
        projectors=projectors,
        suborbit_lengths=lengths,
    )


def _parse_coefficient(txt):
    """(value, precision) of a ``coeff`` field; precision None when exact."""
    if txt.startswith("numeric "):
        _, re, im, rad, prec = txt.split()
        prec = _checked_precision(int(prec))
        return _ball_from_strings(re, im, rad, prec), prec
    return parse_field_element(txt), None


def _checked_precision(prec):
    """A precision in bits, of ``--precision`` or of a numeric coefficient;
    ValueError unless it is an integer in 53..MAX_PRECISION.  Enclosures
    start from double precision, so fewer bits cannot hold one, and the
    solver escalates no further than MAX_PRECISION."""
    # type(x) is int, because a bool is an int to isinstance
    if type(prec) is not int or not 53 <= prec <= MAX_PRECISION:
        raise ValueError(f"precision {prec!r} is not an integer in 53..{MAX_PRECISION}")
    return prec


def _check_conjugates(projectors, lines):
    """ParseError, naming the line when ``lines`` holds it, unless every
    conjugate of a projector is a projector of the family that names it back."""
    for i, p in enumerate(projectors):
        j = p.conjugate_of
        if j is None:
            continue
        if not 0 <= j < len(projectors):
            raise ParseError(
                f"projector {i + 1}: conjugate {j + 1} outside 1..{len(projectors)}", lines[i]
            )
        if projectors[j].conjugate_of != i:
            raise ParseError(
                f"projector {i + 1}: conjugate {j + 1} does not name {i + 1} back", lines[i]
            )


def _projector_from_record(rec, rank, lineno=None):
    """One projector block's fields as a Projector; ParseError when a
    coefficient is missing, the exact flag disagrees with their types, the
    provenance is not a word of ``PROVENANCES``, or a field has the wrong
    type."""
    coeffs = []
    precision = DEFAULT_PRECISION
    for r in range(1, rank + 1):
        if r not in rec["coeffs"]:
            raise ParseError(f"missing coeff {r}", lineno)
        value, prec = rec["coeffs"][r]
        precision = prec or precision
        coeffs.append(value)
    if "dimension" not in rec:
        raise ParseError("missing dimension", lineno)
    # type(x) is int, because a bool is an int to isinstance
    if type(rec["dimension"]) is not int or rec["dimension"] < 1:
        raise ParseError(f"dimension {rec['dimension']!r} is not a positive integer", lineno)
    for key in ("block", "conjugate_of"):
        if rec.get(key) is not None and type(rec[key]) is not int:
            raise ParseError(f"{key} {rec[key]!r} is not an integer", lineno)
    provenance = rec.get("provenance", "uniqueSolution")
    if provenance not in PROVENANCES:
        raise ParseError(f"provenance {provenance!r} is not one of {', '.join(PROVENANCES)}", lineno)
    exact = all(isinstance(c, FieldElement) for c in coeffs)
    if rec.get("exact", True) != exact:
        raise ParseError(f"exact {str(not exact).lower()} disagrees with the coefficients", lineno)
    return Projector(
        coefficients=tuple(coeffs),
        dimension=rec["dimension"],
        provenance=provenance,
        precision=precision,
        block=rec.get("block"),
        conjugate_of=rec.get("conjugate_of"),
    )


def decomposition_to_json(deco):
    projs = []
    for p in deco.projectors:
        coeffs = []
        for c in p.coefficients:
            if isinstance(c, FieldElement):
                coeffs.append(field_element_to_json(c))
            else:
                re, im, rad = _ball_to_strings(c, p.precision)
                coeffs.append(
                    {"numeric": {"re": re, "im": im, "rad": rad, "precision": p.precision}}
                )
        projs.append(
            {
                "dimension": p.dimension,
                "exact": p.exact,
                "provenance": p.provenance,
                "block": p.block,
                "conjugate_of": p.conjugate_of,
                "coefficients": coeffs,
            }
        )
    return {
        "format": "permsplit.decomposition.v1",
        "degree": deco.degree,
        "rank": deco.rank,
        "suborbit_lengths": list(deco.suborbit_lengths),
        "decomposition": _decomposition_line(deco),
        "projectors": projs,
        "notes": list(deco.notes),
    }


def decomposition_from_json(obj):
    """The inverse of ``decomposition_to_json``; ParseError on a missing or
    malformed field."""
    try:
        rank = obj["rank"]
        if not all(type(x) is int for x in (obj["degree"], rank, *obj["suborbit_lengths"])):
            raise ParseError("degree, rank and suborbit lengths must be integers")
        projectors = []
        for rec in obj["projectors"]:
            if len(rec["coefficients"]) != rank:
                raise ParseError(f"{len(rec['coefficients'])} coefficients for rank {rank}")
            coeffs = {}
            for r, c in enumerate(rec["coefficients"], start=1):
                if "numeric" in c:
                    nv = c["numeric"]
                    prec = _checked_precision(nv.get("precision", DEFAULT_PRECISION))
                    coeffs[r] = _ball_from_strings(nv["re"], nv["im"], nv["rad"], prec), prec
                else:
                    coeffs[r] = field_element_from_json(c), None
            projectors.append(
                _projector_from_record(dict(rec, coeffs=coeffs, exact=rec["exact"]), rank)
            )
        _check_conjugates(projectors, [None] * len(projectors))
        return Decomposition(
            degree=obj["degree"],
            rank=rank,
            projectors=projectors,
            suborbit_lengths=list(obj["suborbit_lengths"]),
            notes=list(obj.get("notes", [])),
        )
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        raise ParseError(f"malformed decomposition JSON: {e!r}") from e


def load_decomposition(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(e.msg, e.lineno) from e
        return decomposition_from_json(obj)
    return parse_decomposition_text(text)


# -- command implementations ----------------------------------------------------------


def _config_from_args(args):
    """The SplitConfig of the options ``split_from_constants`` reads."""
    return SplitConfig(precision=args.precision)


def _wants_json(args):
    return args.format == "json" or getattr(args, "json", False)


def cmd_analyze(args):
    t0 = time.perf_counter()
    gens = parse_generators(args.file)
    basis = compute_orbitals(gens, rank_cap=args.rank_cap)
    consts = None
    if args.tensor or args.constants:
        consts = compute_structure_constants(gens, basis)
    elapsed = time.perf_counter() - t0
    if _wants_json(args):
        obj = analyze_to_json(basis, consts, include_tensor=args.tensor)
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_analyze_text(basis, consts))
    print(f"time analyze: {elapsed:.3f} s", file=sys.stderr)
    return 0


def cmd_split(args):
    t0 = time.perf_counter()
    gens = parse_generators(args.file)
    basis = compute_orbitals(gens, rank_cap=args.rank_cap)
    consts = compute_structure_constants(gens, basis)
    t_analyze = time.perf_counter() - t0
    config = _config_from_args(args)
    deco = split_from_constants(basis, consts, config)
    t_split = time.perf_counter() - t0 - t_analyze
    if args.verify == "matrix":
        mreport = verify_matrix_level(
            gens, basis, deco, matrix_cap=args.matrix_cap, precision=config.precision
        )
        for line in mreport.lines():
            print(line, file=sys.stderr)
        if not mreport.passed:
            raise InvariantViolation("matrix-level verification failed")
    if _wants_json(args):
        print(json.dumps(decomposition_to_json(deco), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_decomposition_text(deco))
    print(f"time analyze: {t_analyze:.3f} s", file=sys.stderr)
    print(f"time split: {t_split:.3f} s", file=sys.stderr)
    return 0


def cmd_verify(args):
    gens = parse_generators(args.file)
    ref = load_decomposition(args.decomposition)
    basis = compute_orbitals(gens, rank_cap=args.rank_cap)
    consts = compute_structure_constants(gens, basis)
    config = _config_from_args(args)
    deco = split_from_constants(basis, consts, config)
    report = compare_to_reference(deco, ref)
    algebraic = verify_family_algebraic(consts, ref, precision=config.precision)
    for line in report.lines() + algebraic.lines():
        print(line)
    if report.passed and algebraic.passed:
        print("verification: OK")
        return 0
    print("verification: FAILED")
    return 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="permsplit",
        description=(
            "Split a transitive permutation representation into irreducible "
            "projectors over an exact radical tower."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SplitConfig()

    def inputs(p, *names):
        for name in names:
            p.add_argument(name)
        p.add_argument("--rank-cap", type=int, default=defaults.rank_cap, dest="rank_cap")

    def output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--json", action="store_true", help="shorthand for --format json")

    def bits(text):
        try:
            return _checked_precision(int(text))
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from e

    pa = sub.add_parser("analyze", help="rank, suborbit lengths, basis structure")
    inputs(pa, "file")
    output(pa)
    pa.add_argument("--tensor", action="store_true",
                    help="include the full structure-constant tensor (json)")
    pa.add_argument("--constants", action="store_true",
                    help="compute structure constants for the commutativity line")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("split", help="compute the full projector decomposition")
    inputs(ps, "file")
    output(ps)
    ps.add_argument("--precision", type=bits, default=defaults.precision)
    ps.add_argument("--verify", choices=("none", "matrix"), default="none")
    ps.add_argument("--matrix-cap", type=int, default=defaults.matrix_cap, dest="matrix_cap")
    ps.set_defaults(func=cmd_split)

    pv = sub.add_parser("verify", help="compare a decomposition file against a fresh run")
    inputs(pv, "file", "decomposition")
    pv.add_argument("--precision", type=bits, default=defaults.precision)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except IntransitiveAction as e:
        print(f"intransitive: {e}; orbit of 1 = {sorted(e.orbit)}", file=sys.stderr)
        return 2
    except (ResourceLimit, MatrixCapExceeded, SliceExhausted) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except PermsplitError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
