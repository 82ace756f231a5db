import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, alternating, regular_action, set_action, symmetric
from test_cli import CORPUS_REPORT_SHA256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_import_does_not_load_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import permsplit; "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_parsing_loads_only_what_it_uses(tmp_path):
    """``import permsplit`` loads each submodule on first use, so a process
    that only parses generators loads neither mpmath nor a later stage."""
    path = tmp_path / "s3.gens"
    path.write_text("degree 3\ngen (1,2,3)\ngen (1,2)\n")
    later = ["mpmath"] + [
        f"permsplit.{m}"
        for m in ("centralizer", "exactfield", "polynomial", "solver", "splitter", "verify")
    ]
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import permsplit; "
        "permsplit.parse_generators(sys.argv[2]); "
        "print(json.dumps([m for m in sys.argv[3:] if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(path), *later],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []


# Split, certify, write and read back the action in the generator file
# argv[2], then print the report's sha256 and whether mpmath ran.
_SPLIT_AND_READ_BACK = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from permsplit import (compute_orbitals, compute_structure_constants, parse_generators,
                       split, verify_family_algebraic, verify_matrix_level)
from permsplit.cli import (decomposition_from_json, decomposition_to_json,
                           parse_decomposition_text, render_decomposition_text)
gens = parse_generators(sys.argv[2])
basis = compute_orbitals(gens)
consts = compute_structure_constants(gens, basis)
deco = split(gens)
checks = [verify_family_algebraic(consts, deco), verify_matrix_level(gens, basis, deco)]
text = render_decomposition_text(deco)
blob = json.dumps(decomposition_to_json(deco))
read = [parse_decomposition_text(text), decomposition_from_json(json.loads(blob))]
print(json.dumps({
    "passed": all(c.passed for c in checks),
    "read_back": [render_decomposition_text(d) == text for d in read],
    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    "mpmath": "mpmath.libmp" in sys.modules,
}))
"""


def _split_in_a_fresh_process(tmp_path, gens):
    path = tmp_path / "action.gens"
    path.write_text(f"degree {gens.degree}\n" + "".join(
        "gen " + " ".join(map(str, g.images())) + "\n" for g in gens.generators
    ))
    out = subprocess.run(
        [sys.executable, "-c", _SPLIT_AND_READ_BACK, str(SRC), str(path)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", ["A4_regular", "J6_2"])
def test_exact_split_loads_no_mpmath(tmp_path, name):
    """mpmath is bound lazily and runs only for a value outside the tower:
    an exact split (regular A4 needs sqrt(-3), the Johnson action J(6, 2)
    only rationals), its algebraic and matrix certificates, both writers
    and both readers never load ``mpmath.libmp``."""
    gens = {"A4_regular": regular_action(alternating(4)), "J6_2": set_action(symmetric(6), 6, 2)}
    got = _split_in_a_fresh_process(tmp_path, gens[name])
    assert got["passed"] and got["read_back"] == [True, True]
    assert got["mpmath"] is False


def test_numeric_split_loads_mpmath(tmp_path):
    """C5's quartic coordinates lie outside the tower: the same run loads
    mpmath and prints the pinned report.  A ball read back is widened by
    the digits printed, so its report is not the one written."""
    got = _split_in_a_fresh_process(tmp_path, dict(CORPUS)["C5_natural"])
    assert got["passed"]
    assert got["mpmath"] is True
    assert got["sha256"] == CORPUS_REPORT_SHA256["C5_natural"]


# the public names of the package root, by home submodule
PUBLIC_NAMES = {
    "errors": [
        "IncompleteDecomposition", "IntransitiveAction", "InvariantViolation",
        "MatrixCapExceeded", "NotZeroDimensional", "ParseError", "PermsplitError",
        "ResourceLimit", "SliceExhausted", "UNREPRESENTABLE", "Unrepresentable",
    ],
    "perms": [
        "GeneratorSet", "Permutation", "SchreierTree", "is_transitive",
        "orbit_with_tree", "parse_generators", "parse_generator_text",
    ],
    "centralizer": [
        "OrbitalBasis", "StructureConstants", "compute_orbitals",
        "compute_structure_constants", "order_basis",
    ],
    "exactfield": [
        "ComplexBall", "FieldElement", "field_element_from_json",
        "field_element_to_json", "parse_field_element", "render_field_element",
        "sqrt_if_nice",
    ],
    "polynomial": ["Poly", "Ring", "groebner_basis", "hilbert_dimension", "normal_form"],
    "solver": ["SolutionPoint", "particular_solution_on_slice", "solve_zero_dimensional"],
    "splitter": [
        "Decomposition", "Projector", "SplitConfig", "build_idempotency_system",
        "build_orthogonality_system", "process_single_solution", "split",
    ],
    "verify": ["compare_to_reference", "verify_family_algebraic", "verify_matrix_level"],
}


def test_public_namespace():
    """``from permsplit import *`` binds each public name and submodule, each
    the object of that name in its home submodule; ``dir`` lists them all,
    and any other name is an AttributeError that names it."""
    import permsplit

    expected = {name for home, names in PUBLIC_NAMES.items() for name in (home, *names)}
    namespace = {}
    exec("from permsplit import *", namespace)
    assert namespace.keys() - {"__builtins__"} == expected
    for home, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"permsplit.{home}")
        assert namespace[home] is module
        for name in names:
            assert namespace[name] is getattr(module, name), name
    # dir() in a fresh process, where no name has been imported yet
    listed = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import permsplit; print(' '.join(dir(permsplit)))", str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert expected <= set(listed.stdout.split())
    with pytest.raises(AttributeError, match="no_such_name"):
        permsplit.no_such_name


def test_package_imports_are_acyclic():
    """The module-level relative imports of the package form no cycle, so the
    verifier cannot come to depend on the splitter it certifies."""
    graph = {}
    for path in (SRC / "permsplit").glob("*.py"):
        deps = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
        graph[path.stem] = deps
    assert "verify" in graph["splitter"]
    remaining = dict(graph)
    while remaining:
        leaves = [m for m, deps in remaining.items() if not deps & remaining.keys()]
        assert leaves, f"import cycle among {sorted(remaining)}"
        for m in leaves:
            del remaining[m]


def test_imports_are_at_module_level():
    """Every import in the package, relative or absolute, is a statement of
    its module's body, or under ``if TYPE_CHECKING:``, so the acyclicity test
    above sees each internal dependency and a module's imports are read in
    one place; the package root's name table is the only deferred import,
    and ``exactfield`` binds mpmath as a module that loads on its first
    attribute access, which the other modules import from there."""
    hidden = []
    for path in sorted((SRC / "permsplit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen = set(map(id, tree.body))
        for node in tree.body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                seen.update(map(id, node.body))
        hidden += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in seen
        ]
    assert not hidden, f"imports below module level: {hidden}"


def test_every_exported_name_is_defined_or_used():
    """Each name in a module's ``__all__`` is defined in that module or used
    by it, so a module does not pass on a name it only imports.  The package
    root, whose job is to re-export, is exempt."""
    stray = {}
    for path in sorted((SRC / "permsplit").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported, known = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        exported = set(ast.literal_eval(node.value))
                    elif isinstance(target, ast.Name):
                        known.add(target.id)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                known.add(node.id)
        if exported - known:
            stray[path.name] = sorted(exported - known)
    assert not stray, f"exported but neither defined nor used: {stray}"


def test_every_private_function_has_a_caller():
    """Each function of the package whose name starts with one underscore
    (dunders aside) is loaded by name somewhere in the package, as a name or
    an attribute, so a helper cannot outlive its last caller."""
    defined, loaded = {}, set()
    for path in sorted((SRC / "permsplit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    uncalled = [
        where for name, where in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]
    assert not uncalled, f"private functions that nothing loads: {uncalled}"


def test_every_module_level_name_is_used():
    """Each name a module of the package assigns at top level (dunders
    aside) is loaded by name somewhere in the package, or is listed in an
    ``__all__``, so a constant cannot outlive the code that read it."""
    assigned, loaded, exported = {}, set(), set()
    for path in sorted((SRC / "permsplit").glob("*.py")):
        module = "permsplit" if path.stem == "__init__" else f"permsplit.{path.stem}"
        exported.update(getattr(importlib.import_module(module), "__all__", ()))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in getattr(top, "targets", [getattr(top, "target", None)]):
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and not node.id.startswith("__"):
                            assigned.setdefault(node.id, f"{path.name}:{top.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [
        where for name, where in assigned.items() if name not in loaded | exported
    ]
    assert not unused, f"module-level names that nothing loads: {unused}"


def test_field_element_integers_stay_in_exactfield():
    """A FieldElement's integer fields ``_num`` and ``_den`` are read only in
    exactfield.py, which also owns the integer-array element that exact
    vectors become (``_encode``, ``_decoded``, ``_contract_exact``); every
    other module goes through the public accessors, so the representation
    stays one module's decision."""
    allowed = set()
    private = {"_num", "_den"}
    stray = []
    for path in sorted((SRC / "permsplit").glob("*.py")):
        if path.stem == "exactfield":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.stem, getattr(top, "name", None)) in allowed:
                continue
            stray += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr in private)
                or (isinstance(node, ast.Constant) and node.value in private)
            ]
    assert not stray, f"FieldElement integers read outside exactfield: {stray}"


def test_element_internals_stay_in_exactfield():
    """No module but exactfield.py imports or reads the helpers behind the
    integer-array element: widening to more radicands, the field's
    multiplication table and the int64 limit.  The others make, multiply,
    combine, compare and decode elements through exactfield's functions, so
    the layout and its arithmetic stay one module's decision."""
    internal = {"_widened", "_product_fold", "_INT64"}
    stray = []
    for path in sorted((SRC / "permsplit").glob("*.py")):
        if path.stem == "exactfield":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else [node.attr] if isinstance(node, ast.Attribute)
                else []
            )
            stray += [f"{path.name}:{node.lineno} {name}" for name in names if name in internal]
    assert not stray, f"element internals used outside exactfield: {stray}"


def test_only_field_products_use_the_radicand_rule():
    """``_rad_mul`` (sqrt(a) sqrt(b) = g sqrt(m)) is named only in
    ``FieldElement.__mul__``.  The array layer reads the products of basis
    elements off ``_product_fold``'s table, which that method builds, so the
    field's multiplication has one definition."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "_rad_mul") or (
                isinstance(child, ast.Attribute) and child.attr == "_rad_mul"
            ) or (isinstance(child, ast.alias) and child.name == "_rad_mul"):
                users.add(".".join(scope))
            visit(child, scope)

    for path in sorted((SRC / "permsplit").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert users == {"exactfield.FieldElement.__mul__"}


def test_tree_internals_stay_in_perms():
    """No module but perms.py reads a Schreier tree's ``parent0``,
    ``gen_index`` or ``direction`` or calls its ``undo0``; the others go
    through ``row0``, ``carry0``, ``transport_to_base0`` and ``edge_mask``,
    so how the tree stores its edges stays one module's decision."""
    internal = {"parent0", "gen_index", "direction", "undo0"}
    stray = []
    for path in sorted((SRC / "permsplit").glob("*.py")):
        if path.stem == "perms":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in internal) or (
                isinstance(node, ast.Constant) and node.value in internal
            ):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"Schreier tree internals used outside perms: {stray}"


def test_every_error_class_is_raised():
    """Each PermsplitError subclass in errors.py is raised somewhere in the
    package, so an error class that nothing raises any more cannot linger."""
    package = SRC / "permsplit"
    defined = {
        node.name
        for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "PermsplitError" for b in node.bases)
    }
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert "InvariantViolation" in defined
    assert defined <= raised, f"never raised: {sorted(defined - raised)}"


# sha256 of each demo's stdout; the demos print no timings, so any change
# in these bytes is a change in what the package computes or writes
DEMO_OUTPUT_SHA256 = {
    "01_orbitals_and_constants": "a879ebcef00643752c149beca078728338711521c42d0cfade054ee91da5289e",
    "02_splitting_small_groups": "164c5cf0a916eb6e1a88430402120a456f67509a20b8445f47168c4834d674f7",
    "03_multiplicity_blocks": "454aaea4ce29df069ba62dc88b450f5e08eddd55cdb754e824f2e6ee6e3e3acc",
    "04_exact_tower_arithmetic": "7892fb8305cd1c484b8d99d5d0306614ee70a7adcbcc4d5c945e076c2ed39a31",
    "05_gewirtz_graph": "7a8ff40848f2854d10a9d4d057b77ff432a09f3663739dd001a67c4399779984",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demos_run(demo):
    """Each demo runs to the end against the package in ``src`` and prints
    the bytes pinned in ``DEMO_OUTPUT_SHA256``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_OUTPUT_SHA256[demo.stem]


def test_benchmark_smoke_workload_runs(tmp_path):
    """The benchmark reads library attributes that tier-1 does not otherwise
    touch through it (per-coordinate ``SolutionPoint.exact``,
    ``Projector.exact``, ``verify_matrix_level(mode=)``,
    ``SplitConfig.threads`` and ``compute_structure_constants(threads=)``,
    both inert, and the functions it wraps); its smoke workload must still
    run and pass its own gate.  It runs from a copy of the benchmark's
    scripts beside a link to ``src``, so the files it writes stay out of
    the checkout."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, bench)
    (tmp_path / "src").symlink_to(SRC)
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke",
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_split_config_fields():
    """A SplitConfig sets the precision and the rank cap; ``matrix_cap`` and
    ``threads`` are class attributes that no split reads."""
    from permsplit import SplitConfig

    assert [f.name for f in dataclasses.fields(SplitConfig)] == ["precision", "rank_cap"]


def test_readme_synopsis_lists_the_cli_options():
    """Each ``permsplit analyze/split/verify`` line of the README's command
    line synopsis, with its continuation lines, names exactly the options
    that the parser defines for that subcommand, besides -h/--help."""
    from permsplit.cli import _build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## Command line", 1)[1].split("```", 2)[1]
    listed = {}
    for line in synopsis.strip().splitlines():
        if line.startswith("permsplit "):
            options = listed.setdefault(line.split()[1], set())
        options.update(re.findall(r"--[a-z-]+", line))
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert listed == defined


def test_report_table_holds_every_projector_field():
    """Every field of a Projector but its coefficients and their precision
    is a field of the report's table, so a new one cannot be left out of
    the text and JSON reports."""
    from permsplit.cli import _FIELDS
    from permsplit.splitter import Projector

    fields = {f.name for f in dataclasses.fields(Projector)} - {"coefficients", "precision"}
    assert fields <= {f.record for f in _FIELDS}


def test_readme_report_skeleton_names_the_table_keys():
    """The skeleton of the README's "Decomposition report format" section
    names exactly the text keys of the report's headers and projector
    fields, in their order, besides ``projector``, ``coeff`` and ``end``."""
    from permsplit.cli import _FIELDS, _HEADERS

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    skeleton = readme.split("### Decomposition report format", 1)[1].split("```", 2)[1]
    keys = [
        line.split(":")[0] if ":" in line else line.split()[0]
        for line in skeleton.strip().splitlines()
        if line and not line.startswith("#")
    ]
    assert [k for k in keys if k not in ("projector", "coeff", "end")] == [
        f.text for f in _HEADERS + _FIELDS
    ]


def _load_benchmark_module(name):
    """A module of ``perfbench/`` loaded by its path, without putting the
    directory on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_boundaries_exist():
    """The benchmark wraps library functions by (module, attribute) and runs
    one operation through the pipeline; a library change that renames or
    drops one of them breaks it, so tier-1 checks both."""
    spans = _load_benchmark_module("spans")
    for module, attr, _, _ in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    pipeline = _load_benchmark_module("pipeline")
    gens = pipeline.perms.parse_generator_text("degree 3\ngen (1,2,3)\ngen (1,2)\n")
    outcome = pipeline.run_operation(gens, verify_matrix=True)
    assert outcome.error is None
    assert outcome.algebraic_passed and outcome.matrix_passed
    assert outcome.deco.dimension_multiset == [1, 2]


def test_benchmark_boundaries_are_live():
    """Each function the benchmark wraps is defined in its module or called
    by name there; an import that nothing in the module uses would keep a
    deleted layer's boundary alive only for the benchmark's sake."""
    spans = _load_benchmark_module("spans")
    dead = []
    for module, attr, _, _ in spans.WRAPPED:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defined = any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == attr
            for node in tree.body
        )
        loaded = any(
            isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == attr
            for node in ast.walk(tree)
        )
        if not (defined or loaded):
            dead.append(f"{module.__name__}.{attr}")
    assert not dead, f"wrapped but only imported: {dead}"
