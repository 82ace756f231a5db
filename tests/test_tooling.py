import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
