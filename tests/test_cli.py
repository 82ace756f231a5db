import hashlib
import json
import subprocess
import sys
import time

import pytest

from permsplit import NotZeroDimensional, SplitConfig, cli, polynomial, solver
from permsplit.cli import (
    decomposition_from_json,
    decomposition_to_json,
    main,
    parse_decomposition_text,
    render_decomposition_text,
)
from permsplit import split
from conftest import (
    CORPUS,
    corpus_split,
    cyclic,
    duplicate_first_projector,
    groebner_split,
    petersen,
    regular_action,
    symmetric,
)

S3_TEXT = "degree 3\ngen (1,2,3)\ngen (1,2)\n"
C5_TEXT = "degree 5\ngen (1,2,3,4,5)\n"
PETERSEN_TEXT = None


def petersen_file(tmp_path):
    gens = petersen()
    lines = ["degree 10"]
    for g in gens.generators:
        lines.append("gen " + " ".join(str(x) for x in g.images()))
    path = tmp_path / "petersen.gens"
    path.write_text("\n".join(lines) + "\n")
    return path


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

    def test_intransitive_exit_2(self, tmp_path):
        path = tmp_path / "bad.gens"
        path.write_text("degree 3\ngen (1,2)\n")
        code, out, err = run_cli(["analyze", str(path)])
        assert code == 2
        assert "[1, 2]" in err  # names the orbit of point 1

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
        gens = regular_action(symmetric(3))
        lines = ["degree 6"] + [
            "gen " + " ".join(str(x) for x in g.images()) for g in gens.generators
        ]
        path = tmp_path / "s3reg.gens"
        path.write_text("\n".join(lines) + "\n")
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
        assert "commutation" in err

    def test_matrix_verify_numeric_coordinates(self, tmp_path):
        """C5 keeps its quartic coordinates numeric; the matrix route
        certifies them through enclosures."""
        path = tmp_path / "c5.gens"
        path.write_text("degree 5\ngen (1,2,3,4,5)\n")
        code, out, err = run_cli(["split", str(path), "--verify", "matrix"])
        assert code == 0
        assert "PASS  completeness sum(B) = I (matrix)" in err.splitlines()

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


class TestVerifyCommand:
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


def test_main_callable_directly(tmp_path):
    path = tmp_path / "s3.gens"
    path.write_text(S3_TEXT)
    assert main(["analyze", str(path)]) == 0
