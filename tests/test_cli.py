import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from permsplit import NotZeroDimensional, SplitConfig, cli, polynomial, solver, splitter
from permsplit.cli import (
    decomposition_from_json,
    decomposition_to_json,
    main,
    parse_decomposition_text,
    render_decomposition_text,
)
from permsplit import split
from permsplit.centralizer import compute_orbitals, compute_structure_constants
from permsplit.errors import (
    IncompleteDecomposition,
    IntransitiveAction,
    InvariantViolation,
    MatrixCapExceeded,
    ParseError,
    PermsplitError,
    ResourceLimit,
    SliceExhausted,
)
from permsplit.exactfield import ComplexBall
from permsplit.verify import (
    VerificationReport,
    _vanishes,
    compare_to_reference,
    verify_family_algebraic,
    verify_matrix_level,
)
from conftest import (
    CORPUS,
    alternating,
    corpus_split,
    cyclic,
    duplicate_first_projector,
    groebner_split,
    petersen,
    regular_action,
    symmetric,
)
import golay

S3_TEXT = "degree 3\ngen (1,2,3)\ngen (1,2)\n"
C5_TEXT = "degree 5\ngen (1,2,3,4,5)\n"
PETERSEN_TEXT = None


def gens_file(tmp_path, name, gens):
    """A generator file of ``gens``, one image list per generator."""
    lines = [f"degree {gens.degree}"]
    for g in gens.generators:
        lines.append("gen " + " ".join(str(x) for x in g.images()))
    path = tmp_path / f"{name}.gens"
    path.write_text("\n".join(lines) + "\n")
    return path


def petersen_file(tmp_path):
    return gens_file(tmp_path, "petersen", petersen())


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "permsplit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestAnalyze:
    def test_text_first_line(self, tmp_path):
        path = petersen_file(tmp_path)
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "Rank: 3. Suborbit lengths: 1, 3, 6"
        assert "time analyze:" in err

    def test_json(self, tmp_path):
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        code, out, _ = run_cli(["analyze", str(path), "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["rank"] == 2
        assert obj["suborbit_lengths"] == [1, 2]
        assert obj["degree"] == 3

    def test_tensor(self, tmp_path):
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        code, out, _ = run_cli(["analyze", str(path), "--json", "--tensor"])
        obj = json.loads(out)
        c = obj["structure_constants"]
        assert c[1][1][0] == 2  # C_22^1
        assert c[1][1][1] == 1  # C_22^2
        # the whole tensor, entry by entry, of a noncommutative action
        gens = regular_action(symmetric(3))
        path = gens_file(tmp_path, "s3reg", gens)
        code, out, _ = run_cli(["analyze", str(path), "--json", "--tensor"])
        assert code == 0
        obj = json.loads(out)
        assert obj["commutative"] is False
        consts = compute_structure_constants(gens, compute_orbitals(gens))
        rank = consts.rank
        assert obj["structure_constants"] == [
            [[consts.c(p, q, r) for r in range(1, rank + 1)] for q in range(1, rank + 1)]
            for p in range(1, rank + 1)
        ]

    def test_intransitive_exit_2(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("degree 3\ngen (1,2)\n")
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 2
        assert "[1, 2]" in err  # names the orbit of point 1

    def test_transpose_pairs_and_commutativity_lines(self, tmp_path, capsys):
        """C5's shifts by k and -k are transposes of each other; with
        ``--constants`` the last line says whether the algebra commutes,
        which regular S3's does not."""
        c5 = tmp_path / "c5.gens"
        c5.write_text(C5_TEXT)
        s3 = gens_file(tmp_path, "s3reg", regular_action(symmetric(3)))
        assert main(["analyze", str(c5)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "Transpose pairs: (A2, A3), (A4, A5)"
        assert main(["analyze", str(c5), "--constants"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "Transpose pairs: (A2, A3), (A4, A5)", "Commutative: yes",
        ]
        assert main(["analyze", str(s3), "--constants"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "Transpose pairs: (A5, A6)", "Commutative: no",
        ]

    def test_parse_error_exit_1(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("degree 3\ngen (1,2,2)\n")
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_1(self):
        code, _, _ = run_cli(["analyze", "/nonexistent/nope.gens"])
        assert code == 1


class TestSplitCommand:
    def test_petersen_text(self, tmp_path):
        path = petersen_file(tmp_path)
        code, out, err = run_cli(["split", str(path)])
        assert code == 0
        assert "Decomposition: 10 ≅ 1 ⊕ 4 ⊕ 5" in out
        assert "B[2] = 2/5*(A1 - 2/3*A2 + 1/6*A3)" in out
        assert "time split:" in err

    def test_s3_regular_multiplicity_marking(self, tmp_path):
        path = gens_file(tmp_path, "s3reg", regular_action(symmetric(3)))
        code, out, _ = run_cli(["split", str(path)])
        assert code == 0
        assert "6 ≅ 1 ⊕ 1 ⊕ (2 ⊕ 2)" in out

    def test_c4_json_gaussian(self, tmp_path):
        path = tmp_path / "c4.gens"
        path.write_text("degree 4\ngen 2 3 4 1\n")
        code, out, _ = run_cli(["split", str(path), "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert len(obj["projectors"]) == 4
        rads = {
            t["rad"]
            for p in obj["projectors"]
            for c in p["coefficients"]
            for t in c["terms"]
        }
        assert rads <= {1, -1}

    def test_byte_identical_reports(self, tmp_path):
        path = petersen_file(tmp_path)
        code1, out1, _ = run_cli(["split", str(path)])
        code2, out2, _ = run_cli(["split", str(path)])
        assert code1 == code2 == 0
        assert out1
        assert out1 == out2

    def test_defaults_are_split_config(self):
        args = cli._build_parser().parse_args(["split", "FILE"])
        assert cli._config_from_args(args) == SplitConfig()

    def test_other_permsplit_error_exit_4(self, tmp_path, monkeypatch, capsys):
        def raise_not_zero_dimensional(*args, **kwargs):
            raise NotZeroDimensional("positive-dimensional system")

        monkeypatch.setattr(cli, "split_from_constants", raise_not_zero_dimensional)
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        assert main(["split", str(path)]) == 4
        assert "positive-dimensional system" in capsys.readouterr().err

    def test_matrix_verify_flag(self, tmp_path):
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        code, out, err = run_cli(["split", str(path), "--verify", "matrix"])
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "PASS  invariance L[s(i), s(j)] = L[i, j] for all generators"
        assert "PASS  primitivity B[1]" in lines

    def test_matrix_verify_numeric_coordinates(self, tmp_path):
        """C5 keeps its quartic coordinates numeric; the matrix route
        certifies them through enclosures, primitivity included."""
        path = tmp_path / "c5.gens"
        path.write_text("degree 5\ngen (1,2,3,4,5)\n")
        code, out, err = run_cli(["split", str(path), "--verify", "matrix"])
        assert code == 0
        lines = err.splitlines()
        assert "PASS  completeness sum(B) = A1" in lines
        assert [f"PASS  primitivity B[{m}]" in lines for m in range(1, 6)] == [True] * 5

    def test_failed_matrix_verify_exit_4(self, tmp_path, monkeypatch, capsys):
        """A matrix-level report with a failed check prints its lines and
        no decomposition, and ends as an invariant violation."""
        def one_check_fails(*args, **kwargs):
            report = VerificationReport()
            report.add("planted check", False)
            return report

        monkeypatch.setattr(cli, "verify_matrix_level", one_check_fails)
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        assert main(["split", str(path), "--verify", "matrix"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "FAIL  planted check",
            "internal invariant violation: matrix-level verification failed",
        ]

    @pytest.mark.parametrize("value", ["10", "52", "abc"])
    def test_precision_below_double_is_a_usage_error(self, tmp_path, value):
        """Enclosures start from double precision; fewer bits are refused
        by argparse (exit 2, usage on stderr) instead of ending in a
        traceback."""
        path = tmp_path / "c9.gens"
        path.write_text("degree 9\ngen (1,2,3,4,5,6,7,8,9)\n")
        code, out, err = run_cli(["split", str(path), "--precision", value])
        assert code == 2
        assert out == ""
        assert "usage:" in err and "argument --precision" in err
        assert "Traceback" not in err

    def test_precision_above_the_solver_cap_is_a_usage_error(self, tmp_path, capsys):
        """The solver escalates no further than MAX_PRECISION bits, so more
        cannot be asked for."""
        path = tmp_path / "c5.gens"
        path.write_text(C5_TEXT)
        with pytest.raises(SystemExit) as exit_info:
            main(["split", str(path), "--precision", str(2 * solver.MAX_PRECISION)])
        assert exit_info.value.code == 2
        assert "argument --precision" in capsys.readouterr().err
        assert main(["split", str(path), "--precision", str(solver.MAX_PRECISION)]) == 0

    def test_resource_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        """The Groebner pair cap is a module constant; one pair is too few
        for C5, whose exact idempotents leave four dimensions to the
        dimension loop."""
        path = tmp_path / "c5.gens"
        path.write_text("degree 5\ngen (1,2,3,4,5)\n")
        monkeypatch.setattr(polynomial, "MAX_PAIRS", 1)
        assert main(["split", str(path)]) == 3
        assert "Groebner pair cap 1 exceeded" in capsys.readouterr().err

    def test_slice_exhausted_exit_3(self, tmp_path, monkeypatch, capsys):
        """Regular S3 through the dimension loop alone slices at d = 2; with
        no numeric projector accepted, running out of slice attempts is a
        resource limit."""
        def exhausted(*args, **kwargs):
            raise SliceExhausted("no particular solution within 8 slice attempts")

        path = gens_file(tmp_path, "s3reg", regular_action(symmetric(3)))
        monkeypatch.setattr(splitter, "_split_linear", lambda *args: [])
        monkeypatch.setattr(splitter, "particular_solution_on_slice", exhausted)
        assert main(["split", str(path)]) == 3
        assert capsys.readouterr().err.startswith("resource limit: no particular solution")

    @pytest.mark.parametrize("command", ["analyze", "split"])
    def test_refused_allocation_exit_3(self, tmp_path, capsys, command):
        """A degree of 10^15 makes the first permutation ask for 7.11 PiB,
        more than any x86-64 address space, so the allocator refuses it at
        once; the refusal is a resource limit, not a traceback."""
        path = tmp_path / "huge.gens"
        path.write_text("degree 1000000000000000\ngen (1,2)\n")
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err.startswith("resource limit: Unable to allocate 7.11 PiB")

    @pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["split", "verify"])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, capsys, command, unreadable):
        """A directory, or a file that is not UTF-8, given as the generator
        file of split or the decomposition file of verify."""
        bad = tmp_path / "bad"
        if unreadable == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe\x00")
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        args = ["split", str(bad)] if command == "split" else ["verify", str(path), str(bad)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert "Traceback" not in captured.err

    def test_broken_pipe_is_not_a_parse_error(self, tmp_path, monkeypatch):
        """Only reading the input files is a parse error; a reader that
        closes stdout early is not."""
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)

        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "render_decomposition_text", closed)
        with pytest.raises(BrokenPipeError):
            main(["split", str(path)])

    def test_generator_file_named_like_a_keyword(self, tmp_path, monkeypatch, capsys):
        """The file argument is always a path, even one that starts with
        "degree"."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "degree3.gens").write_text(S3_TEXT)
        assert main(["split", "degree3.gens"]) == 0
        assert "Decomposition: 3 ≅ 1 ⊕ 2" in capsys.readouterr().out

    @pytest.mark.parametrize("option", [
        ["--format", "json"], ["--json"], ["--matrix-cap", "10"],
    ], ids=["format", "json", "matrix-cap"])
    def test_report_options_belong_to_split(self, tmp_path, capsys, option):
        """split prints a report and may verify matrices; verify does
        neither, so the options are a usage error there (exit 2)."""
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        assert main(["split", str(path), *option]) == 0
        ref = tmp_path / "s3.deco"
        ref.write_text(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", str(path), str(ref), *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_uncertified_family_exit_4(self, tmp_path, monkeypatch, capsys):
        duplicate_first_projector(monkeypatch)
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        assert main(["split", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "orthogonality B[1]*B[2]" in captured.err


class TestRoundTrips:
    @pytest.mark.parametrize("builder", [symmetric(3), cyclic(4), petersen()],
                             ids=["s3", "c4", "petersen"])
    def test_text_roundtrip(self, builder):
        deco = split(builder)
        text = render_decomposition_text(deco)
        back = parse_decomposition_text(text)
        assert back.degree == deco.degree
        assert back.rank == deco.rank
        assert back.suborbit_lengths == deco.suborbit_lengths
        assert [p.coefficients for p in back.projectors] == [
            p.coefficients for p in deco.projectors
        ]
        assert [p.dimension for p in back.projectors] == [
            p.dimension for p in deco.projectors
        ]

    @pytest.mark.parametrize("builder", [symmetric(3), cyclic(4), petersen()],
                             ids=["s3", "c4", "petersen"])
    def test_json_roundtrip(self, builder):
        deco = split(builder)
        obj = json.loads(json.dumps(decomposition_to_json(deco)))
        back = decomposition_from_json(obj)
        assert [p.coefficients for p in back.projectors] == [
            p.coefficients for p in deco.projectors
        ]

    def test_text_and_json_agree(self):
        deco = split(petersen())
        t = parse_decomposition_text(render_decomposition_text(deco))
        j = decomposition_from_json(decomposition_to_json(deco))
        assert [p.coefficients for p in t.projectors] == [
            p.coefficients for p in j.projectors
        ]

    def test_older_notes_are_read_past(self):
        """Reports of earlier releases could carry notes: a ``# note:`` line
        reads as a comment and a JSON ``notes`` list is ignored."""
        deco = split(symmetric(3))
        note = "d=2: slice attempts exhausted against numeric projectors"
        text = render_decomposition_text(deco).replace("\n\n", f"\n# note: {note}\n\n")
        obj = decomposition_to_json(deco)
        obj["notes"] = [note]
        for back in parse_decomposition_text(text), decomposition_from_json(obj):
            assert [(p.coefficients, p.dimension) for p in back.projectors] == [
                (p.coefficients, p.dimension) for p in deco.projectors
            ]

    def test_numeric_coefficients_roundtrip(self):
        import mpmath

        deco = split(cyclic(5))
        assert not deco.exact_only()
        text = render_decomposition_text(deco)
        back = parse_decomposition_text(text)
        for p, q in zip(deco.projectors, back.projectors):
            assert p.exact == q.exact
            for c, d in zip(p.coefficients, q.coefficients):
                if hasattr(c, "mid"):
                    assert abs(c.mid - d.mid) < mpmath.mpf(10) ** -30
                else:
                    assert c == d


def test_ball_read_back_in_the_example_contains_the_ball_written():
    """Mid 1/3 and radius 1.23456781e-40 at 128 bits: the radius prints as
    1.2345678e-40, and mid + radius must still lie in the ball read."""
    with mpmath.workprec(152):
        ball = ComplexBall(mpmath.mpf(1) / 3, mpmath.mpf("1.23456781e-40"))
    re, im, rad = cli._ball_to_strings(ball, 128)
    assert rad == "1.2345678e-40"
    back = cli._ball_from_strings(re, im, rad, 128)
    with mpmath.workprec(600):
        assert abs(ball.mid + ball.rad - back.mid) <= back.rad


@given(st.integers(53, 2048), st.data())
@settings(max_examples=60, deadline=None)
def test_ball_read_back_contains_the_ball_written(precision, data):
    """For random balls at precisions 53..2048, every point of the ball
    written lies in the ball read back, checked at a higher precision."""
    def number(bits, low, high):
        man = data.draw(st.integers(-(2**bits) + 1, 2**bits - 1))
        return mpmath.ldexp(man, data.draw(st.integers(low, high)))

    with mpmath.workprec(precision):
        ball = ComplexBall(
            mpmath.mpc(number(precision, -precision - 300, 300), number(precision, -precision - 300, 300)),
            abs(number(precision, -2 * precision - 300, 0)),
        )
    back = cli._ball_from_strings(*cli._ball_to_strings(ball, precision), precision)
    with mpmath.workprec(4 * precision + 200):
        assert abs(ball.mid - back.mid) + ball.rad <= back.rad
        assert back.rad <= _read_back_radius_bound(ball, precision)


def _read_back_radius_bound(ball, precision):
    """The radius written plus the rounding terms of the reader: the radius
    printed to 8 digits and its last digit, and per midpoint component its
    last printed digit and its binary rounding, with room for the final
    rounding up."""
    step = mpmath.mpf(10) ** (1 - cli._midpoint_digits(precision)) + mpmath.ldexp(1, -precision - 20)
    return ball.rad * (1 + mpmath.mpf("2e-7")) + 2 * step * (abs(ball.mid.real) + abs(ball.mid.imag))


@pytest.mark.parametrize("mid", [-mpmath.mpf(1) / 3, mpmath.mpc(-1, -2) / 7, mpmath.mpc(0, -5) / 3])
def test_ball_read_back_with_a_negative_midpoint_keeps_its_radius(mid):
    """A negative midpoint component is read with its sign, so the radius
    grows only by the rounding terms, not by twice the component."""
    with mpmath.workprec(152):
        ball = ComplexBall(mpmath.mpc(mid), mpmath.mpf("1.23456781e-40"))
    back = cli._ball_from_strings(*cli._ball_to_strings(ball, 128), 128)
    with mpmath.workprec(600):
        assert abs(ball.mid - back.mid) + ball.rad <= back.rad
        assert back.rad <= _read_back_radius_bound(ball, 128)


class TestVerifyCommand:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_numeric_report_roundtrip_exit_0(self, tmp_path, fmt):
        """C5's natural report has numeric coefficients with negative
        midpoint components; read back, it verifies."""
        path = tmp_path / "c5.gens"
        path.write_text(C5_TEXT)
        code, out, _ = run_cli(["split", str(path)] + (["--json"] if fmt == "json" else []))
        assert code == 0
        assert (" numeric " if fmt == "text" else '"numeric"') in out
        deco_path = tmp_path / "c5.deco"
        deco_path.write_text(out)
        code, out, _ = run_cli(["verify", str(path), str(deco_path)])
        assert code == 0
        assert "verification: OK" in out

    def test_self_roundtrip_exit_0(self, tmp_path):
        path = petersen_file(tmp_path)
        code, out, _ = run_cli(["split", str(path)])
        deco_path = tmp_path / "petersen.deco"
        deco_path.write_text(out)
        code, out, _ = run_cli(["verify", str(path), str(deco_path)])
        assert code == 0
        assert "verification: OK" in out

    def test_json_reference_accepted(self, tmp_path):
        path = petersen_file(tmp_path)
        code, out, _ = run_cli(["split", str(path), "--json"])
        deco_path = tmp_path / "petersen.json"
        deco_path.write_text(out)
        code, out, _ = run_cli(["verify", str(path), str(deco_path)])
        assert code == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["S3_regular", "D4_regular", "Q8_regular"])
    def test_groebner_route_reference_accepted(self, tmp_path, capsys, name, fmt):
        """The dimension loop alone picks other primitive idempotents inside
        the k = 2 block than ``split`` does, as the reports of earlier releases
        did; the block is compared by its sum, so such a reference verifies."""
        gens = dict(CORPUS)[name]
        path = tmp_path / "action.gens"
        path.write_text(f"degree {gens.degree}\n" + "".join(
            "gen " + " ".join(map(str, g.images())) + "\n" for g in gens.generators
        ))
        reference = groebner_split(name)
        assert render_decomposition_text(reference) != render_decomposition_text(
            corpus_split(name)
        )
        ref = tmp_path / "reference"
        if fmt == "json":
            ref.write_text(json.dumps(decomposition_to_json(reference)))
        else:
            ref.write_text(render_decomposition_text(reference))
        assert main(["verify", str(path), str(ref)]) == 0
        out = capsys.readouterr().out
        assert "PASS  block d=2 (projectors " in out and "verification: OK" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("action, other", [
        (S3_TEXT, cyclic(4)), ("degree 4\ngen (1,2,3,4)\n", symmetric(3)),
    ], ids=["larger-rank-reference", "smaller-rank-reference"])
    def test_reference_of_another_rank_fails_on_its_frame(
        self, tmp_path, capsys, action, other, fmt
    ):
        """A reference of another degree and rank does not live in this
        action's algebra, so it is not certified there: the frame line is
        the only check, with exit 5 and no traceback."""
        path = tmp_path / "action.gens"
        path.write_text(action)
        reference = split(other)
        ref = tmp_path / "reference"
        if fmt == "json":
            ref.write_text(json.dumps(decomposition_to_json(reference)))
        else:
            ref.write_text(render_decomposition_text(reference))
        assert main(["verify", str(path), str(ref)]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("FAIL  frame (degree, rank) agreement  [computed (")
        assert lines[1] == "verification: FAILED"

    def test_corrupted_coefficient_exit_5(self, tmp_path):
        path = petersen_file(tmp_path)
        code, out, _ = run_cli(["split", str(path)])
        corrupted = out.replace("coeff 2 -4/15", "coeff 2 4/15")
        assert corrupted != out
        deco_path = tmp_path / "bad.deco"
        deco_path.write_text(corrupted)
        code, out, _ = run_cli(["verify", str(path), str(deco_path)])
        assert code == 5
        assert "FAIL" in out

    def test_other_suborbit_lengths_fail_exit_5(self, tmp_path, capsys):
        """A reference of the same degree and rank whose suborbit lengths
        differ fails on its lengths, and no projector is matched."""
        path = petersen_file(tmp_path)
        text = render_decomposition_text(split(petersen()))
        ref = tmp_path / "reference"
        ref.write_text(text.replace("Suborbit lengths: 1, 3, 6", "Suborbit lengths: 1, 6, 3"))
        assert main(["verify", str(path), str(ref)]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["PASS  frame (degree, rank) agreement",
                             "FAIL  suborbit lengths agreement"]
        assert not any(" match" in line for line in lines)
        assert lines[-1] == "verification: FAILED"


# sha256 of the text report of every corpus action.  Reports are
# byte-identical for the same input, so a change that moves any of these
# changes what permsplit prints for that action.
CORPUS_REPORT_SHA256 = {
    "C4_regular": "ea3222c0901a664413f53cbc11b0d17382af38b9e1681b6df1090501a78d186d",
    "C5_natural": "fb447e42bcb34ae338556d601403dbdd00b934abe271706ed2a1d87a1950cc85",
    "C6_natural": "d7ebe46c2a174c52b3c8e98a298692f36b79682ebbb052c16d414f9c48388e11",
    "C7_natural": "73ee222e6493904f04fc1c38bdad1d4584c9ba030cb2f5940ae4a81b9705a187",
    "C8_natural": "96a66d656f13b3e31f61e90544c2d5ab4b1f707d8750040048a13bf716aba2fb",
    "C9_natural": "c485ff9577d06b744a9fcf9c89e9b92de22d6872e3d0efa462c0c9d6a7f603be",
    "D4_natural": "1a08fbd511ed3f9708c555ecdc3f85f0627f8dbab11197dc7cbd13beb9a4e546",
    "D5_natural": "6180994932cbdc719b1abcdf1d7f5232043d6fbbeb65611b0ab73e40e6cb4d29",
    "D6_natural": "f1d655f4d1098cda193fd835c7fc63e737e2b607a3ea7beac472ee9c59d2beb5",
    "D7_natural": "72f376e880f1fb5cb466fc991ce2c3f69f56dffca7e92103da79ce80670f3c05",
    "S3_natural": "aa867a9a0abc68e9231c80e3c01bf23a77d0ee1101758fa2539a89e75f870bad",
    "S4_natural": "74d49b7b0af230578fab1c474a98589f940e619db5aac4d28474073c20e18a50",
    "A4_natural": "74d49b7b0af230578fab1c474a98589f940e619db5aac4d28474073c20e18a50",
    "A5_natural": "41258f1f04c93acca1587f2c20b41e9cc9fb3db34c3ed2b6ae5563c354d3147e",
    "S4_pairs": "b8db04993570ae825826a90fb15eb82232ed1fb2ff99dd100e07146c3d13a1f4",
    "A4_pairs": "11b06108f5f8500b205628994f74246ce657050e87efb24753dc1289b9036e61",
    "A5_petersen": "0f66525366421969eb31354b30074e0df51fe47819950203c2dd68747605be5e",
    "S3_regular": "a69b384d2b3a6e2a05938634cd7c1d1eb75d5815ffb22fb40777eae69dc708a0",
    "D4_regular": "5f396ba077e2ab08e810dd546facb8c8b4f42e28da33ccb6254ad66798f35b53",
    "Q8_regular": "3d211a296a80e23ecf709b0938d83bb2f6a0f18e9b8886c95c03fed6770b6ab7",
    "V4_regular": "033a72be94ad578afee7e30e85891b4fea849080b1b79a9fb69fa6f9c35b3974",
    "F21_natural": "1e32139c64e010ebd63b26f45394d4b3d05e5f534acd4c97bde2f8b1b410379c",
    "C2wrC3": "11b06108f5f8500b205628994f74246ce657050e87efb24753dc1289b9036e61",
    "S3wrC2": "8393d5c29bfbb6ec34cf682e01cb6f7c776a258c67c21818c05d2bcbd5fd370a",
    "C3wrC2": "4a2f5c8499fff7013f2e3b621aae2c7ed7cd8bab1ad9c8f4b2f93218fd3c3541",
}


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_corpus_report_is_pinned(name):
    text = render_decomposition_text(corpus_split(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_REPORT_SHA256[name]


# sha256 of the JSON report, of the ``verify_matrix_level`` lines and of the
# text report of the dimension loop alone (``groebner_split``), for every
# corpus action: the outputs that a change inside the dimension loop or its
# kernel must leave as they are.
CORPUS_OUTPUT_SHA256 = {
    "C4_regular": (
        "5c6cfcc5a02be2f8bff37ce962857fdeaaf6b223b0f6ebbbc5735aa6b995d1d0",
        "7406e40f6473a5227c149611eec1cbbc057f98a668f69a92563dbbc787d0a3e2",
        "ea3222c0901a664413f53cbc11b0d17382af38b9e1681b6df1090501a78d186d",
    ),
    "C5_natural": (
        "70afcc54f290380e2f02c8447cc429683c58b43eb35b48b885e136d100790d86",
        "11687fc6bf5caa31745a8205d4f5acdf3f024fba7a698b019d1c8bdb584f0c20",
        "fc89d9516df325323d56f20dc37eaaf72a0a543d7aa2ed2218d2e14e9b593c45",
    ),
    "C6_natural": (
        "f5968a48c7c356a0d56efcc58dae00d170f5b4ffbfc1a1f97abb3db17c2218dd",
        "96ccd4c37bd1d9e37050979f94687d309b8c90be060bb00651a5f04b1d70844f",
        "d7ebe46c2a174c52b3c8e98a298692f36b79682ebbb052c16d414f9c48388e11",
    ),
    "C7_natural": (
        "91cd3a19ce10d129e7814d7d25d6cc55b2036361510fef5d3fa0e044daecdfcd",
        "206ce3a80792e361160cd180f1bcd9d2b543444f3b880620c64c5627590d71aa",
        "c6b5b26bff9bcf31f3b29349277d1fc5fe369ebed035a547f0a1ecdd74b59103",
    ),
    "C8_natural": (
        "575a1ae5a26b7272a362554f5fbebc82118ebf6411259e223ddf422e5a48c236",
        "c54c27151e50a4e730f9bdaf2ceca36de7a2be5486ffaaf5c7b4b01a87639169",
        "2801a0bcb4d350e8ee81918d3536dec4f20f313990986cde05501c7074ab34e5",
    ),
    "C9_natural": (
        "cb89ac4818bafc57cf43887cb16129e4cd38c3d536206b2bdeea6a035319c34c",
        "6ca715e75ec0ba22618c555898453d4a50024d3d7696361664a210141307d4f1",
        "fc1de7057dea00880868cf224f5dd04836c09fc736225f3e67a36b819a2d62fb",
    ),
    "D4_natural": (
        "1551ee11361b6d1122bcf2600bb201048da130260527fd2829f0c32ff5790575",
        "c75eb0f82e630c523c432a99a073e4be44a83310da59acbefaa258e4aafb4961",
        "1a08fbd511ed3f9708c555ecdc3f85f0627f8dbab11197dc7cbd13beb9a4e546",
    ),
    "D5_natural": (
        "5405c973774e12a9ecd0c3ba0076b5248ac0a22ae114380344eb989da794fe5b",
        "50a61e933934bf8298fbb24c7ca5a3c7520884e83e493cb755a5ec7ed950cd26",
        "6180994932cbdc719b1abcdf1d7f5232043d6fbbeb65611b0ab73e40e6cb4d29",
    ),
    "D6_natural": (
        "5ef1e383d844275af31c41283454274917d08683ea538952baa85a9f61340438",
        "0231307046ac23f97645e9d7bb8752a73cbb1f6bb3642aafef7fada8c4b20c81",
        "f1d655f4d1098cda193fd835c7fc63e737e2b607a3ea7beac472ee9c59d2beb5",
    ),
    "D7_natural": (
        "52c061f55bd4a61b1262a0a98172248f11d492cb74855c8ee7341f7baf3ec4ef",
        "605c9da4ae1c3c3b43179a8d33550bf254d110194b6f888a79793ded806d35f9",
        "72f376e880f1fb5cb466fc991ce2c3f69f56dffca7e92103da79ce80670f3c05",
    ),
    "S3_natural": (
        "19cfc529bd0e12b9856e14b1fe4af11a77baaa2485d442d8405fa75f7a497503",
        "8d3d010392064efd258d17477158c6e510a86d983272727a2538c92f91ff3d63",
        "aa867a9a0abc68e9231c80e3c01bf23a77d0ee1101758fa2539a89e75f870bad",
    ),
    "S4_natural": (
        "9daff1eb9446e4995855e63549f1dc439c795a34effb981343c63486aa32110a",
        "d24ea38fea485920c70581db1fd86aeeeccc1e120cd7f127798f7fd021586b5b",
        "74d49b7b0af230578fab1c474a98589f940e619db5aac4d28474073c20e18a50",
    ),
    "A4_natural": (
        "9daff1eb9446e4995855e63549f1dc439c795a34effb981343c63486aa32110a",
        "d24ea38fea485920c70581db1fd86aeeeccc1e120cd7f127798f7fd021586b5b",
        "74d49b7b0af230578fab1c474a98589f940e619db5aac4d28474073c20e18a50",
    ),
    "A5_natural": (
        "8a5f9a9c0202740cc254e35b62fca038142115f2863c511f0c2ffee0b64d420e",
        "c11b8bd7480a0e0480d04e5bdba656f35043dabc9f4c432621891a9cadb05ad5",
        "41258f1f04c93acca1587f2c20b41e9cc9fb3db34c3ed2b6ae5563c354d3147e",
    ),
    "S4_pairs": (
        "2cc1fdc5e6d57ff3da79ab907e9c1401a1230f92a168ae0e9390f830e2daeacb",
        "1d520276bdf1c3e5011a1d5a3a7988335871bb2b3e835ff5ed12bc37081daad1",
        "b8db04993570ae825826a90fb15eb82232ed1fb2ff99dd100e07146c3d13a1f4",
    ),
    "A4_pairs": (
        "e57f4d9890d374fc992e44f28138a818748c972d68343cde2f3ea9563a5be5d7",
        "c9382280c7b065e043a5a8fe99c1f9df0117c0e6016cbbbea70e501aacbedc19",
        "11b06108f5f8500b205628994f74246ce657050e87efb24753dc1289b9036e61",
    ),
    "A5_petersen": (
        "2b6f7aa8cde781d8e8545d3e3c7051938bac6abc45b93017366603a39cad92a0",
        "41cdebd1caabc66aaab0479156ad4cc00d9168abe2daa0add51692b41d2217cf",
        "0f66525366421969eb31354b30074e0df51fe47819950203c2dd68747605be5e",
    ),
    "S3_regular": (
        "9fc80bc16e0f0114189d102fada1a42b6de330df8f24fc6bc52442cc4fbeae9c",
        "0231307046ac23f97645e9d7bb8752a73cbb1f6bb3642aafef7fada8c4b20c81",
        "3b98b4d5b336b76201834388e7a5be39cc4a675ebedf1a39cd9cb36c519ef31e",
    ),
    "D4_regular": (
        "b76390bb4b03b8933a5f78ff291782885b033d3faa37d15a53a51feb094a311d",
        "1119e7a67dc7cd9715c35a77669723b15eb3a56ab1ec5b5f705d9a1ba82c9f56",
        "dadeaf3c03df604ad8648c0b78900b0a6d3dcc8fa9004081b32c2ea15df6e5fb",
    ),
    "Q8_regular": (
        "50cc8f99eeb4a4523dc6df39b9e99172646f244b4df673be19e8892fe372865f",
        "1119e7a67dc7cd9715c35a77669723b15eb3a56ab1ec5b5f705d9a1ba82c9f56",
        "0522c07ebef636874411e1e06a6753684fbdb126263764d69a01ee7198faccff",
    ),
    "V4_regular": (
        "6537c7bba0b7730b63abe846b3ae10469c70696e5bfdb3b80f091046069a49b1",
        "7406e40f6473a5227c149611eec1cbbc057f98a668f69a92563dbbc787d0a3e2",
        "033a72be94ad578afee7e30e85891b4fea849080b1b79a9fb69fa6f9c35b3974",
    ),
    "F21_natural": (
        "942bf8a88f28a70804efae62eab953181b183bdbaa530cc05d311e5ca2c31d00",
        "24b5c764d8881d9d99208c4c1eba30758462f03f7cab1643e818c3892a7c1119",
        "1e32139c64e010ebd63b26f45394d4b3d05e5f534acd4c97bde2f8b1b410379c",
    ),
    "C2wrC3": (
        "e57f4d9890d374fc992e44f28138a818748c972d68343cde2f3ea9563a5be5d7",
        "c9382280c7b065e043a5a8fe99c1f9df0117c0e6016cbbbea70e501aacbedc19",
        "11b06108f5f8500b205628994f74246ce657050e87efb24753dc1289b9036e61",
    ),
    "S3wrC2": (
        "5b02ec40ff89f7824460118215d159db20bfd3aacdec50ccee2d78a3e43f632e",
        "63e64310a6ac68a31527d662b82c9d51fe6f17274399811c9b867127c7b5ccbb",
        "8393d5c29bfbb6ec34cf682e01cb6f7c776a258c67c21818c05d2bcbd5fd370a",
    ),
    "C3wrC2": (
        "d2a9158e6159a1bf9f9af9f97669d2295f53921222012f1a1ca34151442a6215",
        "0231307046ac23f97645e9d7bb8752a73cbb1f6bb3642aafef7fada8c4b20c81",
        "4a2f5c8499fff7013f2e3b621aae2c7ed7cd8bab1ad9c8f4b2f93218fd3c3541",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_corpus_outputs_are_pinned(name):
    deco = corpus_split(name)
    gens = dict(CORPUS)[name]
    report = json.dumps(decomposition_to_json(deco), indent=2, sort_keys=True)
    matrix = "\n".join(verify_matrix_level(gens, compute_orbitals(gens), deco).lines())
    loop = render_decomposition_text(groebner_split(name))
    got = (_sha256(report), _sha256(matrix), _sha256(loop))
    assert got == CORPUS_OUTPUT_SHA256[name]


# sha256 of the ``verify_family_algebraic`` lines of every corpus split, taken
# when every orthogonality line still came from multiplying its pair: the
# lines that the orthogonality theorem derives for an exact family are
# byte-identical to the multiplied ones.
CORPUS_CERTIFICATE_SHA256 = {
    "C4_regular": "20a1b9bfda9e394dda92a0bdf7e8782f689e8cdb2953c55d7d9b28abfe727cff",
    "C5_natural": "fa4b2f3298c384b52c7626a712accea44c74b4d9833bec406b0064ac0e736599",
    "C6_natural": "1a3f983458533accc9f5e7730cd2b4cc67889879a94f02ef7881c3e1cac33c2f",
    "C7_natural": "03aac1e88087eab0f594a339c527e638e24d48f81ebb9e91ceb7d95ecd65bc43",
    "C8_natural": "48cd5d0543411353a90f10d38826321c225684780fc345783c3a5cb3b5db5f92",
    "C9_natural": "5d4c92d146a6093de26ef73c53b8283d4077979f226af04539c02274602e3c32",
    "D4_natural": "f919774c202b286e6cd3d486005ed25b9a566699d9d2158b09d495eb84eafaac",
    "D5_natural": "873f92986c7548ff7a75110e274f031be43199c74e0f78666457e932f1b5c257",
    "D6_natural": "d0f70551b6119bfaa8f64b183f880b879f588ca8d29904e4e24f4d9a40bf0119",
    "D7_natural": "eb8871a72f9a6402df3d54da0e1237e09f6323ae8fce47dec2adee4cc82213fe",
    "S3_natural": "9a779c47ac0071af9da752a69b7e2b65e285a839456b0c4b8033d7f602934bd7",
    "S4_natural": "1e823a7db568eeaad02e3ade571f1c40f37cbcc7308f72f102b1bdcf6cf9dd78",
    "A4_natural": "1e823a7db568eeaad02e3ade571f1c40f37cbcc7308f72f102b1bdcf6cf9dd78",
    "A5_natural": "aff89f984c2bf5d38fc668a3e2444196bd38279c47017046c2b6e0446f0e76d6",
    "S4_pairs": "474b79f071514e86c06886305e4b8024887206995fa04b9cac5ab996b528d2a4",
    "A4_pairs": "394556a794d51ff8f6402a75c98c38493585f75a4b24b1a578c416cf97ed9752",
    "A5_petersen": "7b656099f0066d66a14ba746ab20e727c1bdadc6207059cbd6f863048e1492b2",
    "S3_regular": "d0f70551b6119bfaa8f64b183f880b879f588ca8d29904e4e24f4d9a40bf0119",
    "D4_regular": "9d206df127627fbb2f82c3c5276a05db563c48a970f478f2e27c2301d804624b",
    "Q8_regular": "9d206df127627fbb2f82c3c5276a05db563c48a970f478f2e27c2301d804624b",
    "V4_regular": "20a1b9bfda9e394dda92a0bdf7e8782f689e8cdb2953c55d7d9b28abfe727cff",
    "F21_natural": "c116c8cf75ff735d30cd24f5550bbba2e46228879c867b0203f6970b8ea8bd52",
    "C2wrC3": "394556a794d51ff8f6402a75c98c38493585f75a4b24b1a578c416cf97ed9752",
    "S3wrC2": "8b1a1ea3747ac63367e7a90c7e2c1e944646940da836ace4d4884fe95bb22306",
    "C3wrC2": "d0f70551b6119bfaa8f64b183f880b879f588ca8d29904e4e24f4d9a40bf0119",
}


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_corpus_certificate_lines_are_pinned(name):
    gens = dict(CORPUS)[name]
    consts = compute_structure_constants(gens, compute_orbitals(gens))
    lines = verify_family_algebraic(consts, corpus_split(name)).lines()
    assert _sha256("\n".join(lines)) == CORPUS_CERTIFICATE_SHA256[name]


# sha256 of the stdout of ``permsplit verify`` and its exit code, taken when
# ``cmd_verify`` still printed the comparison's lines and then the reference
# certificate's: every corpus action against its own report, regular S3, D4
# and Q8 against the report of the dimension loop alone ("loop"), and every
# action against the report of another action with the same degree, rank and
# suborbit lengths.  A text and a JSON reference give the same bytes.
VERIFY_OUTPUT_SHA256 = {
    ("C4_regular", "C4_regular"): ("52457116f43c110239978da707eca3f1c65709b0e9d01faec879ae553930c703", 0),
    ("C5_natural", "C5_natural"): ("ec90ad834644f0d7fb903544948f8a784a4768f48bca1f7de81b0eb1b2037ffe", 0),
    ("C6_natural", "C6_natural"): ("af4ede2c459a9c0468a7170653484f41518ca97135b18685780633153849a810", 0),
    ("C7_natural", "C7_natural"): ("9b9bab6a63eadf9d1c935d6587e2fc533f4da708fdf0482b42a71cdb1703da30", 0),
    ("C8_natural", "C8_natural"): ("9b6e53c559f51221a5cb1cf2b37ddcb0f709ba267cd3d2054a2514f988577bb4", 0),
    ("C9_natural", "C9_natural"): ("c37e30a2d3bb4d04b6906f41ac56273aa6257e462e1885b6fcc6138ca150fb65", 0),
    ("D4_natural", "D4_natural"): ("a501c736b24f104ec5555944626520c287e33bafa8482dd3cd38db695ed2c77b", 0),
    ("D5_natural", "D5_natural"): ("4cc7d6b079594c7fc36472f46af72d5ef3234befcfb91e57e340fe333950e771", 0),
    ("D6_natural", "D6_natural"): ("0f5142d6e12d4369690b2fcf4abd130362c82c45d745487a47cd54d79303c68b", 0),
    ("D7_natural", "D7_natural"): ("6eadbd95d2509c10d980a7cb53b4907eb63470bb18e6dcc0d80c2a589a6cbbbe", 0),
    ("S3_natural", "S3_natural"): ("41a7b4df569af467d62bc8e5e9beb81b923d491553fd889c7362ecf06baf378f", 0),
    ("S4_natural", "S4_natural"): ("89d19b2ade4d0a73e577a471be000344e0642c6ce0d2d308cefb617a34be16dc", 0),
    ("A4_natural", "A4_natural"): ("89d19b2ade4d0a73e577a471be000344e0642c6ce0d2d308cefb617a34be16dc", 0),
    ("A5_natural", "A5_natural"): ("a591804414b2a5fad6ef88f2494e8ef240785c41f12e97867a505450de109f31", 0),
    ("S4_pairs", "S4_pairs"): ("97a7507323593e28821f3d69d8b02e443bd37ffcd1b59287edc58b4fff0c4d0c", 0),
    ("A4_pairs", "A4_pairs"): ("3c2d378f2cf19697bd2ad029fef0547e98a903404a286a92706ded0e33d8cea5", 0),
    ("A5_petersen", "A5_petersen"): ("f028eda5fd23e320ae2983fc8929004b81bfd6b689b7b22799347e11264d990b", 0),
    ("S3_regular", "S3_regular"): ("47f16d12d46cee4404a28d134f752bef00427a3639d7a2c50741c2e79fa22701", 0),
    ("D4_regular", "D4_regular"): ("4b1e3cc760bd6d8a603e203e9656979be4fe0a2cd9965c2e786bf16cc64f8524", 0),
    ("Q8_regular", "Q8_regular"): ("4b1e3cc760bd6d8a603e203e9656979be4fe0a2cd9965c2e786bf16cc64f8524", 0),
    ("V4_regular", "V4_regular"): ("52457116f43c110239978da707eca3f1c65709b0e9d01faec879ae553930c703", 0),
    ("F21_natural", "F21_natural"): ("96c6226a58363a9ec178271857ad6ffcbd9f1eb1cc8aa37bc1fee1aee22c84b0", 0),
    ("C2wrC3", "C2wrC3"): ("3c2d378f2cf19697bd2ad029fef0547e98a903404a286a92706ded0e33d8cea5", 0),
    ("S3wrC2", "S3wrC2"): ("ce880e2f309f330693f9c65c9e8ac30452b7f36ed46dc85598d43c706b540b3c", 0),
    ("C3wrC2", "C3wrC2"): ("0f5142d6e12d4369690b2fcf4abd130362c82c45d745487a47cd54d79303c68b", 0),
    ("S3_regular", "loop"): ("47f16d12d46cee4404a28d134f752bef00427a3639d7a2c50741c2e79fa22701", 0),
    ("D4_regular", "loop"): ("4b1e3cc760bd6d8a603e203e9656979be4fe0a2cd9965c2e786bf16cc64f8524", 0),
    ("Q8_regular", "loop"): ("4b1e3cc760bd6d8a603e203e9656979be4fe0a2cd9965c2e786bf16cc64f8524", 0),
    ("C4_regular", "V4_regular"): ("2df41d8e34592911d6fd4e0e400f3f3478e403d4a07116f92e3c0c2b171d0736", 5),
    ("C6_natural", "S3_regular"): ("98482483eaf9894a41f97e202c7efbd5c53b2395d8365b22fa60279444abfc22", 5),
    ("C8_natural", "D4_regular"): ("71cd60e1a6bf148f95d7cc2062ed86385cd5b21681a7f09e947d8a20a2515e0a", 5),
    ("C8_natural", "Q8_regular"): ("2a7e619fd25d70c9b573f03af034e1e309d76c0b1db24cfed1fa19037e9b9a1d", 5),
    ("S4_natural", "A4_natural"): ("89d19b2ade4d0a73e577a471be000344e0642c6ce0d2d308cefb617a34be16dc", 0),
    ("A4_natural", "S4_natural"): ("89d19b2ade4d0a73e577a471be000344e0642c6ce0d2d308cefb617a34be16dc", 0),
    ("A4_pairs", "C2wrC3"): ("3c2d378f2cf19697bd2ad029fef0547e98a903404a286a92706ded0e33d8cea5", 0),
    ("S3_regular", "C6_natural"): ("2e89e92e52480d8001fd4bbed9b87839ef6dcb77114555eaf96599cc1f11bb34", 5),
    ("D4_regular", "C8_natural"): ("82614bcc17b7bcce30c293ffba4f4a2a2976c96ded60b055c98ccbafaf38ea5a", 5),
    ("D4_regular", "Q8_regular"): ("8ef31b385fde062e5f45be9254c5d620b0a3d812dae4741d2aed51800852fa9f", 5),
    ("Q8_regular", "C8_natural"): ("33f3c5939ce3fbcac7b5331fc00be9ffc19b5d804207801dee031c255499e996", 5),
    ("Q8_regular", "D4_regular"): ("6d7e49817accafbf5778fc91bc6f7d02c35cc34e95073c4bb8b2119870b9bb82", 5),
    ("V4_regular", "C4_regular"): ("2df41d8e34592911d6fd4e0e400f3f3478e403d4a07116f92e3c0c2b171d0736", 5),
    ("C2wrC3", "A4_pairs"): ("3c2d378f2cf19697bd2ad029fef0547e98a903404a286a92706ded0e33d8cea5", 0),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("action, reference", list(VERIFY_OUTPUT_SHA256))
def test_verify_output_is_pinned(tmp_path, capsys, action, reference, fmt):
    deco = groebner_split(action) if reference == "loop" else corpus_split(reference)
    ref = tmp_path / "reference"
    if fmt == "json":
        ref.write_text(json.dumps(decomposition_to_json(deco)))
    else:
        ref.write_text(render_decomposition_text(deco))
    code = main(["verify", str(gens_file(tmp_path, action, dict(CORPUS)[action])), str(ref)])
    assert (_sha256(capsys.readouterr().out), code) == VERIFY_OUTPUT_SHA256[action, reference]


# M24 on four of its actions of rank 3-5 on thousands of points: the
# decomposition line of ``permsplit split``, every projector exact, and for
# the two under the matrix cap the number of ``--verify matrix`` lines, all
# PASS.
M24_SPLITS = {
    "dodecad_pairs": (golay.m24_dodecad_pairs, "1288 ≅ 1 ⊕ 252 ⊕ 1035", 20),
    "sextets": (golay.m24_sextets, "1771 ≅ 1 ⊕ 252 ⊕ 483 ⊕ 1035", 29),
    "dodecads": (golay.m24_dodecads, "2576 ≅ 1 ⊕ 23 ⊕ 252 ⊕ 1035 ⊕ 1265", None),
    "trios": (golay.m24_trios, "3795 ≅ 1 ⊕ 252 ⊕ 483 ⊕ 1035 ⊕ 2024", None),
}


@pytest.mark.parametrize("name", list(M24_SPLITS))
def test_m24_split_is_pinned(name, tmp_path, capsys):
    build, decomposition, matrix_lines = M24_SPLITS[name]
    path = gens_file(tmp_path, name, build())
    verify = [] if matrix_lines is None else ["--verify", "matrix"]
    assert main(["split", str(path), *verify]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert f"Decomposition: {decomposition}" in lines
    projectors = decomposition.count("⊕") + 1
    assert lines.count("exact true") == projectors and "exact false" not in lines
    checks = [line for line in err.splitlines() if not line.startswith("time ")]
    assert len(checks) == (matrix_lines or 0)
    assert all(line.startswith("PASS  ") for line in checks)


# Edits of the S3 reference text that leave one projector block malformed;
# each returns the line number the parse error must name.


def _projector_before_end(lines):
    del lines[lines.index("end")]
    return lines.index("projector 2") + 1


def _coeff_out_of_range(lines):
    at = lines.index("coeff 2 1/3") + 1
    lines.insert(at, "coeff 7 5")
    return at + 1


def _coeff_zero(lines):
    at = lines.index("coeff 2 1/3") + 1
    lines.insert(at, "coeff 0 5")
    return at + 1


def _repeated_coeff(lines):
    at = lines.index("coeff 2 1/3") + 1
    lines.insert(at, "coeff 2 1/3")
    return at + 1


def _exact_flag_false(lines):
    lines[lines.index("exact true")] = "exact false"
    return lines.index("end") + 1


def _exact_flag_true_on_numeric(lines):
    lines[lines.index("coeff 2 1/3")] = "coeff 2 numeric 0.333333333333333333333333 0.0 1e-30 128"
    return lines.index("end") + 1


def _exact_flag_not_boolean(lines):
    at = lines.index("exact true")
    lines[at] = "exact maybe"
    return at + 1


def _unknown_provenance(lines):
    lines[lines.index("provenance uniqueSolution")] = "provenance guessed"
    return lines.index("end") + 1


def _conjugate_outside(lines):
    at = lines.index("conjugate-of -")
    lines[at] = "conjugate-of 99"
    return at + 1


def _conjugate_one_way(lines):
    at = lines.index("conjugate-of -")
    lines[at] = "conjugate-of 2"
    return at + 1


def _projector_without_end(lines):
    at = len(lines) - 1 - lines[::-1].index("end")
    del lines[at]
    return len(lines)


def _projector_before_rank(lines):
    lines.remove("Rank: 2")
    return lines.index("projector 1") + 1


def _end_without_projector(lines):
    at = lines.index("end") + 1
    lines.insert(at, "end")
    return at + 1


def _unknown_field(lines):
    at = lines.index("dimension 1") + 1
    lines.insert(at, "colour red")
    return at + 1


def _unexpected_line(lines):
    at = lines.index("end") + 1
    lines.insert(at, "hello")
    return at + 1


def _missing_coeff(lines):
    lines.remove("coeff 2 1/3")
    return lines.index("end") + 1


def _missing_dimension(lines):
    lines.remove("dimension 1")
    return lines.index("end") + 1


# Each required header and projector field of a report, by its record (JSON)
# key, with the line of the S3 text report that holds it (a field's first line)
REPORT_LINES = [
    ("degree", "Degree: 3"),
    ("rank", "Rank: 2"),
    ("suborbit_lengths", "Suborbit lengths: 1, 2"),
    ("dimension", "dimension 1"),
    ("exact", "exact true"),
    ("provenance", "provenance uniqueSolution"),
    ("block", "block -"),
    ("conjugate_of", "conjugate-of -"),
]


class TestMalformedDecompositionFile:
    """``verify`` reports a malformed reference as a parse error, exit 1."""

    def verify_against(self, tmp_path, capsys, reference):
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        ref = tmp_path / "s3.deco"
        ref.write_text(reference)
        code = main(["verify", str(path), str(ref)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("field, malformed", [
        ("coeff 2 ", "coeff 2 1/2*sqrt("),
        ("dimension 2", "dimension two"),
    ], ids=["coefficient", "dimension"])
    def test_malformed_text_line(self, tmp_path, capsys, field, malformed):
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(field))
        lines[lineno - 1] = malformed
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err.startswith(f"parse error: line {lineno}: ")

    def test_deeply_nested_coefficient(self, tmp_path, capsys):
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lineno = lines.index("coeff 2 1/3") + 1
        lines[lineno - 1] = "coeff 2 " + "(" * 5000 + "1/3" + ")" * 5000
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err.startswith(f"parse error: line {lineno}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("header", [
        "Degree: 3", "Rank: 2", "Suborbit lengths: 1, 2", "Decomposition: 3 ≅ 1 ⊕ 2",
    ], ids=["degree", "rank", "suborbit-lengths", "decomposition"])
    def test_repeated_header_line(self, tmp_path, capsys, header):
        """Each header line appears once, even when the second agrees."""
        lines = render_decomposition_text(split(symmetric(3))).splitlines() + [header]
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err == f"parse error: line {len(lines)}: repeated {header.split(':')[0]} line\n"

    @pytest.mark.parametrize("field, first", [
        ("dimension 1", "dimension 5"),
        ("exact true", "exact false"),
        ("provenance uniqueSolution", "provenance slicedSolution"),
        ("block -", "block 1"),
        ("conjugate-of -", "conjugate-of 2"),
    ], ids=["dimension", "exact", "provenance", "block", "conjugate-of"])
    def test_repeated_field_line(self, tmp_path, capsys, field, first):
        """Each field line appears once in a block; the second copy is
        refused, not read over the first."""
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        at = lines.index(field)
        lines.insert(at, first)
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err == f"parse error: line {at + 2}: repeated {field.split()[0]} line\n"

    def test_decomposition_line_other_than_the_projectors(self, tmp_path, capsys):
        """The Decomposition line must be the one the projectors read give;
        S3 is 1 + 2, so a report claiming three 1s is refused on that line."""
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lineno = lines.index("Decomposition: 3 ≅ 1 ⊕ 2") + 1
        lines[lineno - 1] = "Decomposition: 3 ≅ 1 ⊕ 1 ⊕ 1"
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err == (
            f"parse error: line {lineno}: decomposition '3 ≅ 1 ⊕ 1 ⊕ 1', "
            "but the projectors give '3 ≅ 1 ⊕ 2'\n"
        )

    def test_json_decomposition_other_than_the_projectors(self, tmp_path, capsys):
        obj = decomposition_to_json(split(symmetric(3)))
        obj["decomposition"] = "nonsense"
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err == (
            "parse error: decomposition 'nonsense', but the projectors give '3 ≅ 1 ⊕ 2'\n"
        )

    def test_rank_changed_after_the_projectors(self, tmp_path, capsys):
        """Projectors read at rank 3 cannot be compared at a later rank 2:
        the second Rank line is refused, not met by an IndexError."""
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lines[lines.index("Rank: 2")] = "Rank: 3"
        for at in reversed([i for i, line in enumerate(lines) if line == "end"]):
            lines.insert(at, "coeff 3 1")
        lines.append("Rank: 2")
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err == f"parse error: line {len(lines)}: repeated Rank line\n"

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["projectors"][0].update(dimension="1"),
        lambda obj: obj["projectors"][0].update(dimension=0),
        lambda obj: obj["projectors"][0].update(dimension=True),
        lambda obj: obj.update(degree=3.0),
        lambda obj: obj.update(rank="2"),
        lambda obj: obj["suborbit_lengths"].__setitem__(1, "2"),
        lambda obj: obj["projectors"][0].update(block="1"),
        lambda obj: obj["projectors"][0].update(conjugate_of=False),
    ], ids=["dimension-string", "dimension-zero", "dimension-bool", "degree-float",
            "rank-string", "suborbit-length-string", "block-string", "conjugate-of-bool"])
    def test_json_field_of_the_wrong_type(self, tmp_path, capsys, edit):
        obj = decomposition_to_json(split(symmetric(3)))
        edit(obj)
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ")

    def test_json_repeated_key(self, tmp_path, capsys):
        text = json.dumps(decomposition_to_json(split(symmetric(3))))
        assert text.count('"dimension": 1,') == 1
        text = text.replace('"dimension": 1,', '"dimension": 5, "dimension": 1,')
        code, err = self.verify_against(tmp_path, capsys, text)
        assert code == 1
        assert err == "parse error: repeated key 'dimension' in a JSON object\n"

    def test_json_repeated_radicand(self, tmp_path, capsys):
        """5/3 and 1/3 on radicand 1 would sum to 2; a reader that kept
        the last term would read the coefficient as 1/3."""
        obj = decomposition_to_json(split(symmetric(3)))
        obj["projectors"][0]["coefficients"][0]["terms"] = [
            {"rad": 1, "num": "5", "den": "3"},
            {"rad": 1, "num": "1", "den": "3"},
        ]
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err == "parse error: repeated radicand 1\n"

    @pytest.mark.parametrize("edit, named", [
        (lambda obj: obj.update(format="permsplit.decomposition.v9"), "'permsplit.decomposition.v9'"),
        (lambda obj: obj.pop("format"), "KeyError('format')"),
    ], ids=["v9", "missing"])
    def test_json_format_other_than_v1(self, tmp_path, capsys, edit, named):
        obj = decomposition_to_json(split(symmetric(3)))
        edit(obj)
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ") and named in err

    def test_json_without_degree(self, tmp_path, capsys):
        obj = decomposition_to_json(split(symmetric(3)))
        del obj["degree"]
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ")
        assert "degree" in err

    @pytest.mark.parametrize("edit", [
        _projector_before_end,
        _coeff_out_of_range,
        _coeff_zero,
        _repeated_coeff,
        _exact_flag_false,
        _exact_flag_true_on_numeric,
        _exact_flag_not_boolean,
        _unknown_provenance,
        _conjugate_outside,
        _conjugate_one_way,
        _projector_without_end,
    ], ids=lambda edit: edit.__name__.strip("_"))
    def test_malformed_projector_block(self, tmp_path, capsys, edit):
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lineno = edit(lines)
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err.startswith(f"parse error: line {lineno}: ")

    @pytest.mark.parametrize("edit", [
        lambda p: p["coefficients"].pop(),
        lambda p: p["coefficients"].append(p["coefficients"][0]),
        lambda p: p.update(exact=False),
        lambda p: p.update(provenance="guessed"),
        lambda p: p.update(conjugate_of=99),
        lambda p: p.update(conjugate_of=1),
        lambda p: p["coefficients"][0]["terms"][0].update(rad=True),
        lambda p: p["coefficients"][0]["terms"][0].update(rad="1"),
        lambda p: p["coefficients"][0]["terms"][0].update(num=True),
        lambda p: p["coefficients"][0]["terms"][0].update(den=3.0),
        lambda p: p["coefficients"][0]["terms"][0].update(den="03"),
    ], ids=["fewer-coefficients", "more-coefficients", "exact-flag", "provenance",
            "conjugate-outside", "conjugate-one-way", "rad-bool", "rad-string", "num-bool",
            "den-float", "den-not-as-written"])
    def test_malformed_json_projector(self, tmp_path, capsys, edit):
        obj = decomposition_to_json(split(symmetric(3)))
        edit(obj["projectors"][0])
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("edit, message", [
        (_projector_before_rank, "projector before the Rank header"),
        (_end_without_projector, "end without projector"),
        (_unknown_field, "unknown projector field 'colour'"),
        (_unexpected_line, "unexpected line 'hello'"),
        (_missing_coeff, "missing coeff 2"),
        (_missing_dimension, "missing dimension"),
    ], ids=["projector-before-rank", "end-without-projector", "unknown-field",
            "unexpected-line", "missing-coeff", "missing-dimension"])
    def test_text_refusal_names_its_line(self, edit, message):
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lineno = edit(lines)
        with pytest.raises(ParseError) as err:
            parse_decomposition_text("\n".join(lines) + "\n")
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    @pytest.mark.parametrize("encoding", ["text", "json"])
    @pytest.mark.parametrize("key, line", REPORT_LINES, ids=[key for key, _ in REPORT_LINES])
    def test_missing_header_or_field_is_refused(self, key, line, encoding):
        """Every header but the Decomposition line and every projector field
        is required: a report without one is refused, not read with a
        default, and the refusal names it."""
        deco = split(symmetric(3))
        text_key = line.split(":")[0] if ":" in line else line.split()[0]
        if encoding == "text":
            lines = render_decomposition_text(deco).splitlines()
            lines.remove(line)  # a field goes from the first block
            with pytest.raises(ParseError) as err:
                parse_decomposition_text("\n".join(lines) + "\n")
            if ":" not in line:
                assert err.value.line == lines.index("end") + 1
        else:
            obj = decomposition_to_json(deco)
            del (obj if key in obj else obj["projectors"][0])[key]
            with pytest.raises(ParseError) as err:
                decomposition_from_json(obj)
        assert re.search(rf"\b({key}|{text_key})\b", str(err.value)), str(err.value)

    def test_decomposition_line_is_optional(self):
        deco = split(symmetric(3))
        lines = render_decomposition_text(deco).splitlines()
        lines.remove("Decomposition: 3 ≅ 1 ⊕ 2")
        obj = decomposition_to_json(deco)
        del obj["decomposition"], obj["notes"]
        for back in parse_decomposition_text("\n".join(lines)), decomposition_from_json(obj):
            assert [(p.coefficients, p.dimension) for p in back.projectors] == [
                (p.coefficients, p.dimension) for p in deco.projectors
            ]

    @pytest.mark.parametrize("flag", [1, "yes"])
    def test_json_exact_must_be_a_boolean(self, flag):
        """``"exact": 1`` is not read as true, and ``"exact": "yes"`` is
        refused by its type, not as disagreeing with the coefficients."""
        obj = decomposition_to_json(split(symmetric(3)))
        obj["projectors"][0]["exact"] = flag
        with pytest.raises(ParseError) as err:
            decomposition_from_json(obj)
        assert str(err.value) == f"exact {flag!r} is not a boolean"

    @pytest.mark.parametrize("encoding", ["text", "json"])
    def test_projector_named_as_its_own_conjugate(self, tmp_path, capsys, encoding):
        """The writer pairs a projector only with another one; a report
        that pairs one with itself names it back, and is refused."""
        deco = split(symmetric(3))
        if encoding == "text":
            lines = render_decomposition_text(deco).splitlines()
            at = lines.index("conjugate-of -")
            lines[at] = "conjugate-of 1"
            reference, where = "\n".join(lines) + "\n", f"line {at + 1}: "
        else:
            obj = decomposition_to_json(deco)
            obj["projectors"][0]["conjugate_of"] = 0
            reference, where = json.dumps(obj), ""
        code, err = self.verify_against(tmp_path, capsys, reference)
        assert code == 1
        assert err == f"parse error: {where}projector 1: conjugate 1 is the projector itself\n"

    @pytest.mark.parametrize("opener", [
        "projector 9", "projector 0", "projector 1", "projector -", "projector",
        "projectors", "projector  2", "projector 2 2",
    ])
    def test_block_opens_only_on_the_next_projector_number(self, tmp_path, capsys, opener):
        """A block opens on ``projector n``, n the next number, and on no
        other line that starts with ``projector``."""
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        at = lines.index("projector 2")
        lines[at] = opener
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err == f"parse error: line {at + 1}: {opener!r} is not 'projector 2'\n"

    def test_json_numeric_coefficient_without_precision(self, tmp_path, capsys):
        """A numeric coefficient's precision has no default, in JSON as in
        text, where ``coeff r numeric`` without it does not read."""
        obj = decomposition_to_json(corpus_split("C5_natural"))
        numeric = next(c["numeric"] for p in obj["projectors"]
                       for c in p["coefficients"] if "numeric" in c)
        del numeric["precision"]
        code, err, _ = self.verify_c5_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err == "parse error: malformed decomposition JSON: KeyError('precision')\n"

    def test_json_syntax_error_names_its_line(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text('{\n  "format": "permsplit.decomposition.v1",\n  "degree": \n}\n')
        with pytest.raises(ParseError) as err:
            cli.load_decomposition(path)
        assert err.value.line == 4
        assert str(err.value) == "line 4: Expecting value"


    def verify_c5_against(self, tmp_path, capsys, reference):
        path = tmp_path / "c5.gens"
        path.write_text(C5_TEXT)
        ref = tmp_path / "c5.deco"
        ref.write_text(reference)
        t0 = time.perf_counter()
        code = main(["verify", str(path), str(ref)])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err, elapsed

    @pytest.mark.parametrize("precision", ["10000000", "1", "52", "4096"])
    def test_numeric_precision_outside_the_range(self, tmp_path, capsys, precision):
        """A numeric coefficient's precision lies in the range of
        ``--precision``; reading an enclosure at 10^7 bits would take
        minutes, and one below 53 bits cannot hold it."""
        lines = render_decomposition_text(corpus_split("C5_natural")).splitlines()
        numeric = [i for i, line in enumerate(lines) if line.startswith("coeff ")
                   and " numeric " in line]
        for i in numeric:
            lines[i] = lines[i].rsplit(" ", 1)[0] + " " + precision
        code, err, elapsed = self.verify_c5_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert elapsed < 1.0
        assert code == 1
        assert err.startswith(f"parse error: line {numeric[0] + 1}: ")

    def test_negative_radius(self, tmp_path, capsys):
        lines = render_decomposition_text(corpus_split("C5_natural")).splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("coeff ")
                      and " numeric " in line)
        fields = lines[lineno - 1].split()
        fields[-2] = "-" + fields[-2]
        lines[lineno - 1] = " ".join(fields)
        code, err, _ = self.verify_c5_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 1
        assert err.startswith(f"parse error: line {lineno}: ")

    def test_json_negative_radius(self, tmp_path, capsys):
        obj = decomposition_to_json(corpus_split("C5_natural"))
        numeric = next(c["numeric"] for p in obj["projectors"]
                       for c in p["coefficients"] if "numeric" in c)
        numeric["rad"] = "-" + numeric["rad"]
        code, err, _ = self.verify_c5_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("precision", [True, 10**7, 1, "128", 128.0])
    def test_json_numeric_precision_outside_the_range(self, tmp_path, capsys, precision):
        obj = decomposition_to_json(corpus_split("C5_natural"))
        for p in obj["projectors"]:
            for c in p["coefficients"]:
                if "numeric" in c:
                    c["numeric"]["precision"] = precision
        code, err, elapsed = self.verify_c5_against(tmp_path, capsys, json.dumps(obj))
        assert elapsed < 1.0
        assert code == 1
        assert err.startswith("parse error: ") and "precision" in err

    def test_factorization_cap_ends_in_a_typed_error(self, tmp_path, capsys):
        """A radicand with large prime factors stops at the Pollard rho step
        cap, a resource limit, instead of being factorized without bound."""
        n = (2**127 - 1) * (2**89 - 1) * (10**40 + 121)
        lines = render_decomposition_text(split(symmetric(3))).splitlines()
        lines[lines.index("coeff 2 1/3")] = f"coeff 2 sqrt({n})"
        t0 = time.perf_counter()
        code, err = self.verify_against(tmp_path, capsys, "\n".join(lines) + "\n")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert err.startswith("resource limit: ") and "Pollard rho" in err


def test_report_with_a_zero_first_coefficient_renders(tmp_path, capsys):
    """b_1 = d/N > 0 on every projector written, but the reader accepts a
    report with b_1 = 0.  Its ``# B[k]`` line is written unfactored instead
    of dividing by b_1, and ``permsplit verify`` fails it as before."""
    lines = render_decomposition_text(split(symmetric(3))).splitlines()
    assert lines[12] == "coeff 1 1/3"
    lines[12] = "coeff 1 0"
    text = "\n".join(lines) + "\n"
    deco = parse_decomposition_text(text)
    back = render_decomposition_text(deco).splitlines()
    assert back[5] == "# B[1] = 1/3*A2"
    assert back[6:] == lines[6:]
    decomposition_to_json(deco)
    path, ref = tmp_path / "s3.gens", tmp_path / "s3.deco"
    path.write_text(S3_TEXT)
    ref.write_text(text)
    assert main(["verify", str(path), str(ref)]) == 5
    assert capsys.readouterr().out == (
        "PASS  frame (degree, rank) agreement\n"
        "PASS  suborbit lengths agreement\n"
        "FAIL  projector 1 (d=1) match\n"
        "PASS  projector 2 (d=2) match\n"
        "FAIL  idempotency B[1] (d=1)  [r=1: 2/9]\n"
        "PASS  idempotency B[2] (d=2)\n"
        "FAIL  orthogonality B[1]*B[2]  [r=1: -2/9]\n"
        "FAIL  orthogonality B[2]*B[1]  [r=1: -2/9]\n"
        "FAIL  completeness sum(B) = A1  [r=1: -1/3]\n"
        "PASS  completeness sum(d) = N\n"
        "FAIL  trace integrality B[1]: N*b1 = d\n"
        "PASS  trace integrality B[2]: N*b1 = d\n"
        "FAIL  primitivity B[1]  [dim B A B = 5/9]\n"
        "PASS  primitivity B[2]\n"
        "verification: FAILED\n"
    )


# The edit sweep sets the last token of a text line to each of these: the
# placeholder, integers (among them coefficients, and projector numbers for
# the self-pairings of the first three projectors), a fraction, both flags
# and junk
SWEEP_TOKENS = ("-", "0", "1", "2", "3", "-1", "1/2", "true", "false", "x")
# and a key of the JSON report to each of these
SWEEP_VALUES = (None, 0, "1")


def _text_edits(text):
    """(what, edited text) for each single-line edit of ``text``: a line
    deleted, doubled, or with its last token (the whole line when it has
    one) set to each SWEEP_TOKENS value it does not hold."""
    lines = text.splitlines()
    for i, line in enumerate(lines, start=1):
        head = line.rpartition(" ")[0]
        edits = {"deleted": [], "doubled": [line, line]}
        for token in SWEEP_TOKENS:
            new = f"{head} {token}" if head else token
            if new != line:
                edits[f"set to {new!r}"] = [new]
        for what, new in edits.items():
            yield f"line {i} {what}", "\n".join(lines[:i - 1] + new + lines[i:]) + "\n"


def _key_paths(node, at=()):
    """The path of every key of every JSON object in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield at + (key,)
            yield from _key_paths(value, at + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, at + (i,))


def _json_edits(obj):
    """(what, edited object) for each single-key edit of the JSON report
    ``obj``: a key deleted, or set to each SWEEP_VALUES value it does not
    hold."""
    text = json.dumps(obj)

    def copy_at(at):
        """A fresh copy of ``obj``, and the object at the path ``at`` in it."""
        edited = holder = json.loads(text)
        for step in at:
            holder = holder[step]
        return edited, holder

    for *at, key in _key_paths(obj):
        edited, holder = copy_at(at)
        del holder[key]
        yield f"{[*at, key]} deleted", edited
        for value in SWEEP_VALUES:
            edited, holder = copy_at(at)
            if json.dumps(holder[key]) != json.dumps(value):
                holder[key] = value
                yield f"{[*at, key]} = {value!r}", edited


def _same_family(a, b):
    """The same headers, and projectors of the same dimension, block,
    conjugate and coefficients (within the enclosures of numeric ones)."""
    if (a.degree, a.rank, a.suborbit_lengths, len(a.projectors)) != (
        b.degree, b.rank, b.suborbit_lengths, len(b.projectors)
    ):
        return False
    return all(
        (p.dimension, p.block, p.conjugate_of) == (q.dimension, q.block, q.conjugate_of)
        and (p.coefficients == q.coefficients or _vanishes(p.coefficients, q.coefficients))
        for p, q in zip(a.projectors, b.projectors)
    )


def _verified(consts, deco, ref):
    """The verdict of ``permsplit verify`` on the reference ``ref`` against
    the computed ``deco``.  The command adds the reference's certificate to
    the comparison's report; the certificate is run here only when the
    comparison passes, since a failed comparison fails the report
    whatever the certificate says."""
    report = compare_to_reference(deco, ref)
    return report.passed and verify_family_algebraic(consts, ref).passed


def test_no_single_edit_of_a_report_verifies_as_another_family():
    """Every single-line edit of the text report, and every single-key edit
    of the JSON report, of S3 natural, regular A4 and C5 natural (exact,
    with blocks and conjugate pairs, and numeric) is refused by the reader,
    or reads as the same family, or fails ``permsplit verify``; and every
    report the reader accepts renders in both encodings.  4,582 edits
    (2,669 text, 1,913 JSON); the test took 6.4–9.9 s on one core of a
    2-core Xeon host, as the host's load varied."""
    wrong = []
    for gens in (symmetric(3), regular_action(alternating(4)), cyclic(5)):
        basis = compute_orbitals(gens)
        consts = compute_structure_constants(gens, basis)
        deco = splitter.split_from_constants(basis, consts, SplitConfig())
        text = render_decomposition_text(deco)
        original = parse_decomposition_text(text)
        reads = [(what, parse_decomposition_text, edit) for what, edit in _text_edits(text)]
        reads += [(what, decomposition_from_json, edit)
                  for what, edit in _json_edits(decomposition_to_json(deco))]
        for what, read, edit in reads:
            try:
                ref = read(edit)
            except ParseError:
                continue
            render_decomposition_text(ref)
            decomposition_to_json(ref)
            if not _same_family(ref, original) and _verified(consts, deco, ref):
                wrong.append(f"degree {gens.degree}: {what}")
    assert not wrong, f"edits that verify as another family: {wrong}"


# README's exit code of each error class; a new class needs its code here
EXIT_CODES = {
    ParseError: 1,
    IntransitiveAction: 2,
    ResourceLimit: 3,
    MatrixCapExceeded: 3,
    SliceExhausted: 3,
    InvariantViolation: 4,
    NotZeroDimensional: 4,
    IncompleteDecomposition: 4,
}


@pytest.mark.parametrize("error", PermsplitError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_error_has_its_documented_exit_code(tmp_path, monkeypatch, capsys, error):
    def raise_error(*args, **kwargs):
        raise error({1}) if error is IntransitiveAction else error("raised")

    monkeypatch.setattr(cli, "split_from_constants", raise_error)
    path = tmp_path / "s3.gens"
    path.write_text(S3_TEXT)
    assert main(["split", str(path)]) == EXIT_CODES[error]


def test_readme_usage_lines_are_the_parser_options():
    """Each usage line of README's command line section names exactly the
    options of its subcommand."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    usages = re.split(r"\n(?=permsplit )", block.strip())
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [usage.split()[1] for usage in usages] == list(sub.choices)
    for usage in usages:
        parser = sub.choices[usage.split()[1]]
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options


def test_main_callable_directly(tmp_path):
    path = tmp_path / "s3.gens"
    path.write_text(S3_TEXT)
    assert main(["analyze", str(path)]) == 0
