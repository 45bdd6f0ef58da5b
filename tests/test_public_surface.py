"""Every public function and class of bohreq has a reader.

A module-level public name must be referenced somewhere in `src/bohreq` or
`perfbench/` (as a name, an attribute or an import), be exported in
`bohreq.__all__`, or be listed below with the reason it stays.  Code that
only its own tests call fails here, so it goes with its tests instead of
lingering.  Both trees are only read.
"""

import ast
from pathlib import Path

import bohreq

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept without a reader in the library, each with its reason.
KEPT = {
    "attains_value": "value membership on an open strip, which the certified "
                     "contour walk of ROADMAP direction 2 builds on",
    "reconstruct_exponent": "exact oracle: R's rows rebuild every exponent in "
                            "ExponentVector arithmetic",
    "shift_phase_exact": "exact oracle: the rational check of the counterexample's "
                         "cancellation at each shift",
}


def _trees() -> dict[Path, ast.Module]:
    paths = sorted((ROOT / "src" / "bohreq").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _public_definitions(trees: dict[Path, ast.Module]) -> dict[str, str]:
    """Each module-level public function or class of bohreq, with where it is defined."""
    found = {}
    for path, tree in trees.items():
        if path.parent.name != "bohreq":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = f"{path.stem}.py:{node.lineno}"
    return found


def _references(trees: dict[Path, ast.Module]) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_reader():
    trees = _trees()
    defined, read = _public_definitions(trees), _references(trees) | set(bohreq.__all__)
    unread = {name: where for name, where in defined.items() if name not in read}
    # a kept name that gains a reader, or is deleted, leaves the list too
    assert unread == {name: defined.get(name) for name in KEPT}
