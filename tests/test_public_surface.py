"""Every public function, class and class member of bohreq has a reader.

A module-level public name, and each public method, property or field of a
public class, must be referenced somewhere in `src/bohreq` or `perfbench/`
(as a name read, an attribute or an import), be exported in `bohreq.__all__`, or
be listed below with the reason it stays.  Code that only its own tests call
fails here, so it goes with its tests instead of lingering.  Both trees are
only read.
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
    "ShiftPhase.is_minus_one": "the verdict of the exact oracle shift_phase_exact",
}


def _trees() -> dict[Path, ast.Module]:
    paths = sorted((ROOT / "src" / "bohreq").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _member_names(node: ast.stmt) -> list[str]:
    """The names a statement of a class body defines: a method, property or field."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def _public_definitions(trees: dict[Path, ast.Module]) -> dict[str, str]:
    """Each public function, class and `Class.member` of bohreq, with where it is defined."""
    found = {}
    for path, tree in trees.items():
        if path.parent.name != "bohreq":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = f"{path.stem}.py:{node.lineno}"
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    for name in _member_names(member):
                        if not name.startswith("_"):
                            found[f"{node.name}.{name}"] = f"{path.stem}.py:{member.lineno}"
    return found


def _references(trees: dict[Path, ast.Module]) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            # a name that is only stored to, like a field's own annotated
            # target, is no reader
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_reader():
    trees = _trees()
    defined, read = _public_definitions(trees), _references(trees) | set(bohreq.__all__)
    unread = {
        name: where for name, where in defined.items() if name.rpartition(".")[2] not in read
    }
    # a kept name that gains a reader, or is deleted, leaves the list too
    assert unread == {name: defined.get(name) for name in KEPT}
