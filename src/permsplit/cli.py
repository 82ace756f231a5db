"""Command-line front end and the report formats it owns.

A decomposition report is one record, declared once in ``_HEADERS`` and
``_FIELDS``: both writers write it, both readers fill it, and one validator
refuses the same reports in text and in JSON.

Exit codes: 0 success, 1 parse error, 2 intransitive action, 3 resource
limit, 4 internal invariant violation (any other error of the package), 5
verification failure.  Reports are byte-identical for identical inputs;
timing lines go to stderr.  Every sum in a report, a coefficient or a
``# B[k]`` line, is written by ``exactfield.signed_sum``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

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
    mpmath,
    parse_field_element,
    render_field_element,
    signed_sum,
)
from .perms import parse_generators, read_input
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
    sym = [f"A{r + 1}" for r, yes in enumerate(basis.symmetric.tolist()) if yes]
    lines.append("Symmetric: " + (", ".join(sym) if sym else "none"))
    pairs = [
        f"(A{r + 1}, A{rs + 1})" for r, rs in enumerate(basis.transpose_of.tolist()) if rs > r
    ]
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
        "suborbit_representatives": basis.suborbit_representative.tolist(),
        "symmetric": basis.symmetric.tolist(),
        "transpose_of": (basis.transpose_of + 1).tolist(),
    }
    if consts is not None:
        obj["commutative"] = consts.is_commutative()
        if include_tensor:
            obj["structure_constants"] = consts.tensor.tolist()
    return obj


# -- decomposition report ---------------------------------------------------------


def _decomposition_line(deco):
    """``10 ≅ 1 ⊕ 4 ⊕ 5`` with multiplicity blocks parenthesized and the
    second member of a conjugate pair marked with ``~``: one group per run
    of projectors with the same ``block``, a mark per projector outside a
    block."""
    parts = []
    for block, run in itertools.groupby(enumerate(deco.projectors), key=lambda ip: ip[1].block):
        if block is None:
            for i, p in run:
                second = p.conjugate_of is not None and p.conjugate_of < i
                parts.append(f"{p.dimension}{'~' if second else ''}")
        else:
            parts.append("(" + " ⊕ ".join(str(p.dimension) for _, p in run) + ")")
    return f"{deco.degree} ≅ " + " ⊕ ".join(parts)


def _appendix_line(p, index):
    """Human-facing factored form: ``B[2] = 2/5*(A1 - 2/3*A2 + 1/6*A3)``;
    unfactored when b_1 is 0, which only a report read can hold (b_1 = d/N)."""
    if not p.exact:
        return f"# B[{index}] d={p.dimension} has numeric coordinates"
    terms = [(c, f"A{r}") for r, c in enumerate(p.coefficients, start=1)]
    b1 = p.coefficients[0]
    if not b1:
        return f"# B[{index}] = {signed_sum(terms)}"
    ratios = signed_sum((c / b1, a) for c, a in terms)
    return f"# B[{index}] = {render_field_element(b1)}*({ratios})"


RADIUS_DIGITS = 8


def _midpoint_digits(precision):
    """Significant digits of each printed midpoint component at ``precision``
    bits."""
    return max(int(precision * 0.302) + 8, 24)


def _ball_to_strings(ball, precision):
    digits = _midpoint_digits(precision)
    with mpmath.workprec(precision + 24):
        re = mpmath.nstr(ball.mid.real, digits, strip_zeros=False)
        im = mpmath.nstr(ball.mid.imag, digits, strip_zeros=False)
        rad = mpmath.nstr(ball.rad, RADIUS_DIGITS)
    return re, im, rad


def _last_digit(text, digits):
    """One unit in the last of ``digits`` significant digits of the printed
    number ``text``; rounded to nearest, it lies within half of it of the
    value printed."""
    value = Decimal(text)
    return Fraction(0) if value.is_zero() else Fraction(10) ** (value.adjusted() - digits + 1)


def _ball_from_strings(re, im, rad, precision):
    """The inverse of ``_ball_to_strings``: a ball that contains the ball
    written.  Each printed number is rounded to nearest and the midpoint is
    read into binary, so the radius grows by the last printed digit of the
    radius and of each midpoint component, and by the midpoint's binary
    rounding; the sum is exact and rounded up once."""
    if Fraction(rad) < 0:
        raise ValueError(f"negative radius {rad}")
    digits = _midpoint_digits(precision)
    with mpmath.workprec(precision + 24):
        mid = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
        bound = Fraction(rad) + _last_digit(rad, RADIUS_DIGITS)
        for text, part in ((re, mid.real), (im, mid.imag)):
            read = Fraction(*mpmath.libmp.to_rational(part._mpf_))
            bound += _last_digit(text, digits) + abs(read - Fraction(text))
        up = mpmath.libmp.from_rational(bound.numerator, bound.denominator, precision + 24, "u")
        return ComplexBall(mid, mpmath.mp.make_mpf(up))


def _flag(text):
    """``true`` or ``false`` as a bool; ValueError on any other text."""
    if text not in ("true", "false"):
        raise ValueError(f"exact must be true or false, not {text!r}")
    return text == "true"


def _is_int(x):
    # type(x) is int, because a bool is an int to isinstance
    return type(x) is int


class _Field(NamedTuple):
    """One line of a report: a header, ``Text key: value``, or a field of a
    projector block, ``text-key value``."""

    text: str  # the key of its text line
    record: str  # its key in the record, which is its JSON key
    write: Callable  # its value as text
    read: Callable  # its value from text; ValueError when malformed
    kind: str = None  # what a value must be, for the validator's refusal
    valid: Callable = None  # whether a value is that


# The report, declared once.  Both writers write ``_record(deco)`` through
# these tables; both readers fill such a record, and
# ``_decomposition_from_record`` checks it and turns it into a Decomposition.
_HEADERS = (
    _Field("Degree", "degree", str, int, "an integer", _is_int),
    _Field("Rank", "rank", str, int, "an integer", _is_int),
    _Field(
        "Suborbit lengths", "suborbit_lengths",
        lambda v: ", ".join(map(str, v)), lambda t: [int(x) for x in t.split(",")],
        "a list of integers", lambda v: type(v) is list and all(map(_is_int, v)),
    ),
    # optional; when present it must be the line the projectors give
    _Field("Decomposition", "decomposition", str, str.strip),
)
_FIELDS = (
    _Field("dimension", "dimension", str, int, "a positive integer",
           lambda v: _is_int(v) and v >= 1),
    _Field("exact", "exact", lambda v: "true" if v else "false", _flag, "a boolean",
           lambda v: type(v) is bool),
    _Field("provenance", "provenance", str, str, f"one of {', '.join(PROVENANCES)}",
           lambda v: v in PROVENANCES),
    _Field("block", "block", lambda v: "-" if v is None else str(v),
           lambda t: None if t == "-" else int(t), "an integer",
           lambda v: v is None or _is_int(v)),
    _Field("conjugate-of", "conjugate_of", lambda v: "-" if v is None else str(v + 1),
           lambda t: None if t == "-" else int(t) - 1, "an integer",
           lambda v: v is None or _is_int(v)),
)
_HEADER_OF = {f.text: f for f in _HEADERS}
_FIELD_OF = {f.text: f for f in _FIELDS}


def _record(deco):
    """``deco`` as the report's record, keyed as the JSON report: the headers,
    and per projector its fields and one (value, precision) pair per
    coefficient, the precision None on an exact value."""
    projectors = [
        dict({f.record: getattr(p, f.record) for f in _FIELDS}, coefficients=[
            (c, None if isinstance(c, FieldElement) else p.precision) for c in p.coefficients
        ])
        for p in deco.projectors
    ]
    return {
        "degree": deco.degree,
        "rank": deco.rank,
        "suborbit_lengths": list(deco.suborbit_lengths),
        "decomposition": _decomposition_line(deco),
        "projectors": projectors,
    }


def render_decomposition_text(deco):
    rec = _record(deco)
    out = [f"{f.text}: {f.write(rec[f.record])}" for f in _HEADERS]
    out.append("")
    for m, (p, q) in enumerate(zip(deco.projectors, rec["projectors"]), start=1):
        out += [_appendix_line(p, m), f"projector {m}"]
        out += [f"{f.text} {f.write(q[f.record])}" for f in _FIELDS]
        for r, (c, prec) in enumerate(q["coefficients"], start=1):
            if prec is None:
                out.append(f"coeff {r} {render_field_element(c)}")
            else:
                re, im, rad = _ball_to_strings(c, prec)
                out.append(f"coeff {r} numeric {re} {im} {rad} {prec}")
        out += ["end", ""]
    return "\n".join(out).rstrip() + "\n"


def parse_decomposition_text(text):
    """The inverse of ``render_decomposition_text``: the lines fill the
    report's record, which ``_decomposition_from_record`` checks.  ParseError,
    with the line number, on a header line, or a field line of one block,
    that appears twice, a ``projector`` line inside an open block, before
    the Rank header or other than ``projector n`` for the next number n, an
    ``end`` outside a block or with a coefficient missing, a ``coeff r``
    outside ``1..rank`` or repeated, an unknown field, any other line, or a
    value that does not read."""
    rec, lines = {"projectors": []}, {}
    block = lineno = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, colon, value = line.partition(":")
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if colon and head in _HEADER_OF:
                f = _HEADER_OF[head]
                if f.record in rec:
                    raise ParseError(f"repeated {head} line", lineno)
                rec[f.record], lines[f.record] = f.read(value), lineno
            elif line.startswith("projector"):
                if block is not None:
                    raise ParseError("projector before the open block's end", lineno)
                if "rank" not in rec:
                    raise ParseError("projector before the Rank header", lineno)
                number = len(rec["projectors"]) + 1
                if line != f"projector {number}":
                    raise ParseError(f"{line!r} is not 'projector {number}'", lineno)
                block, coeffs = {}, {}
            elif line == "end":
                if block is None:
                    raise ParseError("end without projector", lineno)
                missing = [r for r in range(1, rec["rank"] + 1) if r not in coeffs]
                if missing:
                    raise ParseError(f"missing coeff {missing[0]}", lineno)
                block["coefficients"] = [coeffs[r] for r in sorted(coeffs)]
                lines[len(rec["projectors"]), "end"] = lineno
                rec["projectors"].append(block)
                block = None
            elif block is not None and key == "coeff":
                r, _, txt = rest.partition(" ")
                r = int(r)
                if not 1 <= r <= rec["rank"]:
                    raise ParseError(f"coeff {r} outside 1..{rec['rank']}", lineno)
                if r in coeffs:
                    raise ParseError(f"repeated coeff {r}", lineno)
                coeffs[r] = _parse_coefficient(txt.strip())
            elif block is not None and key in _FIELD_OF:
                f = _FIELD_OF[key]
                if f.record in block:
                    raise ParseError(f"repeated {key} line", lineno)
                block[f.record] = f.read(rest)
                lines[len(rec["projectors"]), f.record] = lineno
            elif block is not None:
                raise ParseError(f"unknown projector field {key!r}", lineno)
            else:
                raise ParseError(f"unexpected line {line!r}", lineno)
    except (ArithmeticError, ValueError) as e:
        raise ParseError(f"malformed line: {e}", lineno) from e
    if block is not None:
        raise ParseError("projector without end", lineno)
    return _decomposition_from_record(rec, lines)


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
    if not _is_int(prec) or not 53 <= prec <= MAX_PRECISION:
        raise ValueError(f"precision {prec!r} is not an integer in 53..{MAX_PRECISION}")
    return prec


def _values(rec, fields, line):
    """The values of ``fields`` in the record ``rec``; ParseError, naming
    ``line``, when one is missing or is not of its kind."""
    for f in fields:
        if f.record not in rec:
            raise ParseError(f"missing {f.record}", line)
        if not f.valid(rec[f.record]):
            raise ParseError(f"{f.record} {rec[f.record]!r} is not {f.kind}", line)
    return [rec[f.record] for f in fields]


def _decomposition_from_record(rec, lines):
    """The Decomposition of a report's record, for both readers; ParseError
    when a header but the Decomposition line, or a field, is missing or not
    of its kind, a projector has not ``rank`` coefficients or its exact flag
    disagrees with their types, a conjugate is the projector itself or not a
    projector that names it back, or the Decomposition line, when present,
    is not the one the projectors give.  ``lines`` holds the text reader's
    line numbers, of a header by its record key and of a field or a block's
    ``end`` by (projector index, key): a refusal names the conjugate-of
    line, the Decomposition line, or else the block's end, when it is
    known."""
    degree, rank, lengths = _values(rec, _HEADERS[:3], None)
    projectors = []
    for i, q in enumerate(rec["projectors"]):
        end = lines.get((i, "end"))
        dimension, exact, provenance, block, conjugate_of = _values(q, _FIELDS, end)
        coeffs = q["coefficients"]
        if len(coeffs) != rank:
            raise ParseError(f"{len(coeffs)} coefficients for rank {rank}", end)
        if exact != all(isinstance(c, FieldElement) for c, _ in coeffs):
            raise ParseError(f"exact {str(exact).lower()} disagrees with the coefficients", end)
        precision = next((prec for _, prec in reversed(coeffs) if prec), DEFAULT_PRECISION)
        projectors.append(Projector(
            coefficients=tuple(c for c, _ in coeffs), dimension=dimension,
            provenance=provenance, precision=precision, block=block, conjugate_of=conjugate_of,
        ))
    for i, p in enumerate(projectors):
        j, line = p.conjugate_of, lines.get((i, "conjugate_of"))
        if j is None:
            continue
        where = f"projector {i + 1}: conjugate {j + 1}"
        if not 0 <= j < len(projectors):
            raise ParseError(f"{where} outside 1..{len(projectors)}", line)
        if j == i:
            raise ParseError(f"{where} is the projector itself", line)
        if projectors[j].conjugate_of != i:
            raise ParseError(f"{where} does not name {i + 1} back", line)
    deco = Decomposition(
        degree=degree, rank=rank, projectors=projectors, suborbit_lengths=list(lengths)
    )
    read, expected = rec.get("decomposition"), _decomposition_line(deco)
    if read is not None and read != expected:
        message = f"decomposition {read!r}, but the projectors give {expected!r}"
        raise ParseError(message, lines.get("decomposition"))
    return deco


JSON_FORMAT = "permsplit.decomposition.v1"


def decomposition_to_json(deco):
    rec = _record(deco)
    for q in rec["projectors"]:
        q["coefficients"] = [
            field_element_to_json(c) if prec is None else
            {"numeric": dict(zip(("re", "im", "rad"), _ball_to_strings(c, prec)), precision=prec)}
            for c, prec in q["coefficients"]
        ]
    # format v1 keeps the key, always empty now, which the reader ignores
    return {"format": JSON_FORMAT, **rec, "notes": []}


def decomposition_from_json(obj):
    """The inverse of ``decomposition_to_json``: its record, with each
    coefficient read, checked by ``_decomposition_from_record``.  ParseError
    also on a ``format`` other than JSON_FORMAT and on a malformed value."""
    try:
        if obj["format"] != JSON_FORMAT:
            raise ParseError(f"format {obj['format']!r} is not {JSON_FORMAT}")
        projectors = [
            dict(q, coefficients=[_coefficient_from_json(c) for c in q["coefficients"]])
            for q in obj["projectors"]
        ]
        return _decomposition_from_record(dict(obj, projectors=projectors), {})
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        raise ParseError(f"malformed decomposition JSON: {e!r}") from e


def _coefficient_from_json(c):
    """(value, precision) of a JSON coefficient; precision None when exact.
    A numeric one must carry its precision, as its text line must."""
    if "numeric" not in c:
        return field_element_from_json(c), None
    nv = c["numeric"]
    prec = _checked_precision(nv["precision"])
    return _ball_from_strings(nv["re"], nv["im"], nv["rad"], prec), prec


def _unique_keys(pairs):
    """A JSON object as a dict; ParseError when a key appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def load_decomposition(path):
    text = read_input(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
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
    # the reference is certified in this action's algebra, which only a
    # reference of the same degree and rank lives in
    if (ref.degree, ref.rank) == (deco.degree, deco.rank):
        report.checks += verify_family_algebraic(consts, ref, precision=config.precision).checks
    for line in report.lines():
        print(line)
    if report.passed:
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
    except IntransitiveAction as e:
        print(f"intransitive: {e}; orbit of 1 = {sorted(e.orbit)}", file=sys.stderr)
        return 2
    except (ResourceLimit, MatrixCapExceeded, SliceExhausted, MemoryError) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except PermsplitError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
