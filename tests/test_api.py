import ast
from pathlib import Path

import oraclebench

ROOT = Path(__file__).resolve().parents[1]

# exports kept although no module or demo reaches them yet, each with its reason
UNREACHED_BY_DESIGN = {
    "LocalizedSupInput": "input type of localized_star_hull_sup",
    "localized_star_hull_sup": "the reference expected_localized_sup is tested against bit for bit",
}


def _reached_names():
    """Every name and attribute that the package modules (not ``__init__``) and the demos use."""
    paths = [p for p in sorted((ROOT / "src" / "oraclebench").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached():
    # an export that only its own unit tests call is dead weight: delete it or name it above
    unreached = sorted(set(oraclebench.__all__) - _reached_names() - set(UNREACHED_BY_DESIGN))
    assert not unreached, f"exported but reached by no module or demo: {unreached}"
    assert set(UNREACHED_BY_DESIGN) <= set(oraclebench.__all__)


def test_allow_list_names_only_unreached_exports():
    # once a module or demo reaches a listed name, its entry above is stale
    stale = sorted(set(UNREACHED_BY_DESIGN) & _reached_names())
    assert not stale, f"allow-listed but reached by a module or demo: {stale}"
