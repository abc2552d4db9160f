"""Lint: one eigendecomposition site for the PSD check.

A D x D `eigvalsh` costs O(D^3); the operators `collapse`, `luder` and
`branch_decompose` derive are checked on their compressed blocks instead.
So the package calls `np.linalg.eigvalsh` in `hilbert._psd_deficit` only,
and in `engine.py` that function runs from `_require_invariants` only,
where a derived operator's blocks reach it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qprob"


def _sites(text: str, name: str) -> list[str]:
    """The enclosing function of each reference to `name` in text, as an
    attribute (np.linalg.eigvalsh), a bare name or an imported name;
    "<module>" outside every function."""
    sites: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if (
                isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.alias) and name in (child.name, child.asname)
            ):
                sites.append(where)
            visit(child, inner)

    visit(ast.parse(text), "<module>")
    return sites


def _package_sites(name: str) -> dict[str, list[str]]:
    found = {path.name: _sites(path.read_text(encoding="utf-8"), name) for path in sorted(SRC.glob("*.py"))}
    return {module: sites for module, sites in found.items() if sites}


def test_eigvalsh_runs_in_psd_deficit_only():
    assert _package_sites("eigvalsh") == {"hilbert.py": ["_psd_deficit"]}


def test_engine_reaches_psd_deficit_through_require_invariants_only():
    engine = _package_sites("_psd_deficit")["engine.py"]
    assert engine.count("<module>") == 1, engine  # the import
    assert set(engine) == {"<module>", "_require_invariants"}, engine


def test_site_pattern_catches_spellings():
    for text in (
        "np.linalg.eigvalsh(a)",
        "numpy.linalg.eigvalsh(a)",
        "from numpy.linalg import eigvalsh",
        "from numpy.linalg import eigvalsh as ev",
        "def f(a):\n    return la.eigvalsh(a).min()",
        "check = np.linalg.eigvalsh",
        "eigvalsh(a)",
    ):
        assert _sites(text, "eigvalsh"), text
    assert _sites("def f(a):\n    def g():\n        return np.linalg.eigvalsh(a)\n", "eigvalsh") == ["g"]
    for text in ("np.linalg.eigh(a)", "np.linalg.eigvals(a)", "'eigvalsh'", "# eigvalsh", "eigvalsh_of = 1"):
        assert not _sites(text, "eigvalsh"), text
