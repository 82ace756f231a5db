import json
import subprocess
import sys

import pytest

from permsplit import NotZeroDimensional, SplitConfig, cli
from permsplit.cli import (
    decomposition_from_json,
    decomposition_to_json,
    main,
    parse_decomposition_text,
    render_decomposition_text,
)
from permsplit import split
from conftest import cyclic, duplicate_first_projector, petersen, regular_action, symmetric

S3_TEXT = "degree 3\ngen (1,2,3)\ngen (1,2)\n"
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

    def test_resource_limit_exit_3(self, tmp_path):
        gens = regular_action(symmetric(3))
        lines = ["degree 6"] + [
            "gen " + " ".join(str(x) for x in g.images()) for g in gens.generators
        ]
        path = tmp_path / "s3reg.gens"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["split", str(path), "--max-groebner-pairs", "1"])
        assert code == 3

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


class TestMalformedDecompositionFile:
    """``verify`` reports a malformed reference as a parse error, exit 1."""

    def verify_against(self, tmp_path, capsys, reference):
        path = tmp_path / "s3.gens"
        path.write_text(S3_TEXT)
        ref = tmp_path / "s3.deco"
        ref.write_text(reference)
        code = main(["verify", str(path), str(ref)])
        return code, capsys.readouterr().err

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

    def test_json_without_degree(self, tmp_path, capsys):
        obj = decomposition_to_json(split(symmetric(3)))
        del obj["degree"]
        code, err = self.verify_against(tmp_path, capsys, json.dumps(obj))
        assert code == 1
        assert err.startswith("parse error: ")
        assert "degree" in err


def test_main_callable_directly(tmp_path):
    path = tmp_path / "s3.gens"
    path.write_text(S3_TEXT)
    assert main(["analyze", str(path)]) == 0
