import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_benchmark_smoke_workload_runs():
    """The benchmark reads library attributes that tier-1 does not otherwise
    touch through it (per-coordinate ``SolutionPoint.exact``,
    ``Projector.exact``, ``verify_matrix_level(mode=)``,
    ``SplitConfig.threads`` and ``compute_structure_constants(threads=)``,
    both inert, and the functions it wraps); its smoke workload must still
    run and pass its own gate."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


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
