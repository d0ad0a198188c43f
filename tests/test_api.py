import ast
import inspect
from pathlib import Path

import oraclebench
from oraclebench import complexity, concentration, errors, harness, model, solvers

ROOT = Path(__file__).resolve().parents[1]

# exports kept although no module or demo reaches them yet, each with its reason
UNREACHED_BY_DESIGN = {
    "risk_estimate": "the exact L_q risks' Monte Carlo reference; it goes once perfbench/probe.py stops patching "
                     "harness.risk_estimate (ROADMAP item 1)",
}


# defaulted parameters of exported functions that no module or demo sets, each with its reason
UNSET_BY_DESIGN = {
    (solver, "max_iter"): "tests stop the loop early to check the certificate and IterationLimitError"
    for solver in ("solve_lq_rerm", "solve_square_lasso", "solve_lasso")
}


def _trees():
    """Parsed package modules (not ``__init__``) and demos."""
    paths = [p for p in sorted((ROOT / "src" / "oraclebench").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _reached_names():
    """Every name and attribute that the package modules and the demos use."""
    used = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_exports_are_the_modules_all_lists():
    # each public name is declared once, in its module's __all__; the package adds only __version__
    exported = oraclebench.__all__
    assert len(exported) == len(set(exported)), f"exported twice: {sorted({n for n in exported if exported.count(n) > 1})}"
    modules = (complexity, concentration, errors, harness, model, solvers)
    assert exported == ["__version__"] + [name for module in modules for name in module.__all__]
    missing = [name for name in exported if not hasattr(oraclebench, name)]
    assert not missing, f"exported but not defined on the package: {missing}"


def test_every_export_is_reached():
    # an export that only its own unit tests call is dead weight: delete it or name it above
    unreached = sorted(set(oraclebench.__all__) - _reached_names() - set(UNREACHED_BY_DESIGN))
    assert not unreached, f"exported but reached by no module or demo: {unreached}"
    assert set(UNREACHED_BY_DESIGN) <= set(oraclebench.__all__)


def test_allow_list_names_only_unreached_exports():
    # once a module or demo reaches a listed name, its entry above is stale
    stale = sorted(set(UNREACHED_BY_DESIGN) & _reached_names())
    assert not stale, f"allow-listed but reached by a module or demo: {stale}"


def _unset_defaults():
    """(function, parameter) for every defaulted parameter of an exported function that no call
    in a package module or demo passes, by position or by keyword."""
    params = {}
    for name in oraclebench.__all__:
        obj = getattr(oraclebench, name)
        if inspect.isfunction(obj):
            params[name] = list(inspect.signature(obj).parameters.values())
    unset = {(name, p.name) for name, ps in params.items() for p in ps if p.default is not p.empty}
    for tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if func not in params:
                continue
            keywords = {kw.arg for kw in node.keywords}
            unset -= {(func, p.name) for i, p in enumerate(params[func]) if i < len(node.args) or p.name in keywords}
    return unset


def test_every_default_is_set():
    # a default that every caller keeps is a constant: inline it or name it above
    unset = sorted(_unset_defaults() - set(UNSET_BY_DESIGN))
    assert not unset, f"defaulted parameters that no module or demo sets: {unset}"


def test_allow_list_names_only_unset_defaults():
    stale = sorted(set(UNSET_BY_DESIGN) - _unset_defaults())
    assert not stale, f"allow-listed but set by a module or demo: {stale}"
