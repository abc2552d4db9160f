"""The package's public surface is declared once, in the library modules.

Each library module lists its exports in its own `__all__`, and
`qprob.__all__` is `__version__` followed by those lists, so adding or
dropping an export is one edit. Modules import no underscore-prefixed name
from each other, except the three helpers pinned below. Importing `qprob`
loads the library modules only, not the command line or the renderer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qprob
from qprob import engine, errors, hilbert, lattice, observables, scenario, weighting

SRC = Path(qprob.__file__).resolve().parent

# The library modules, in the order their exports appear in qprob.__all__.
LIBRARY = (hilbert, lattice, observables, engine, weighting, scenario, errors)

# Every name qprob exported before its export list was built from the
# modules' lists; none may be lost.
EXPORTED_BEFORE = (
    "__version__", "born", "branch_decompose", "BranchDecomposition", "build_operator", "cheb_norm",
    "ClassicalEventuality", "ClassicalModel", "collapse", "CollapseResult", "commutator",
    "CompositeSpace", "conditional", "conjoin", "correlation_check", "CorrelationReport",
    "entropy_capacity", "Eventuality", "expectation", "heisenberg_transport", "HERMITIAN_TOL",
    "HilbertSpace", "IncompatibleCommandError", "joint_matrix", "JointProbabilityMatrix",
    "lifetime_distribution", "LifetimeDistribution", "LifetimeProfile", "LifetimeSegment", "lift",
    "lift_eventuality", "load_file", "load_preset", "load_scenario", "luder", "net_table", "NetTable",
    "Observable", "ObservableValidation", "ObserverModel", "Op", "partial_trace", "perception_rate",
    "PRESET_NAMES", "ProbabilityOperator", "PSD_TOL", "QprobError", "QuantitativeObservable",
    "reduce_composite", "Scenario", "ScenarioError", "ScenarioParseError", "ScenarioValidationError",
    "schema_document", "Scheme", "shannon_entropy", "SpaceMismatchError", "spectral_observable",
    "structure_check", "StructureError", "StructureReport", "tensor", "TRACE_TOL",
    "UnknownPresetError", "validate_observable", "Vec", "weights_entropic", "weights_proper",
    "weights_weak", "ZERO_PROBABILITY_THRESHOLD", "ZeroProbabilityError",
)

# The underscore-prefixed names one module may import from another, as
# (importing file, defining module, name): the PSD residual that
# ProbabilityOperator shares with structure_check, the commutation check
# that joint tables share with conjoin, and the stacked channel bases that
# tables share with the observable checks.
PRIVATE_IMPORTS = {
    ("engine.py", "hilbert", "_psd_deficit"),
    ("engine.py", "observables", "_require_commuting"),
    ("engine.py", "observables", "_stacked"),
}


def _python(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this qprob."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return proc.stdout


def test_exports_are_the_modules_export_lists():
    assert len(EXPORTED_BEFORE) == 71
    assert qprob.__all__ == ["__version__"] + [name for module in LIBRARY for name in module.__all__]
    assert len(set(qprob.__all__)) == len(qprob.__all__)
    for name in qprob.__all__:
        getattr(qprob, name)
    assert set(EXPORTED_BEFORE) <= set(qprob.__all__)


def test_star_import_binds_exactly_the_exports():
    code = ('import json; ns = {}; exec("from qprob import *", ns); del ns["__builtins__"]; '
            'print(json.dumps(sorted(ns)))')
    assert json.loads(_python(code)) == sorted(qprob.__all__)


def test_import_qprob_loads_only_the_library_modules():
    code = 'import sys, qprob; print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "qprob")))'
    assert _python(code).split() == sorted(["qprob"] + [module.__name__ for module in LIBRARY])


def _private_imports():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qprob")):
                module = (node.module or "").removeprefix("qprob").lstrip(".")
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.endswith("__"):
                        yield path.name, module, alias.name


def test_no_private_name_imported_across_modules():
    stray = [f"{name}: from .{module} import {alias}" for name, module, alias in _private_imports()
             if (name, module, alias) not in PRIVATE_IMPORTS]
    assert stray == [], "import a public name instead of:\n" + "\n".join(stray)


def test_each_pinned_private_import_present_once():
    assert sorted(_private_imports()) == sorted(PRIVATE_IMPORTS)
