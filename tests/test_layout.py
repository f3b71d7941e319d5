"""Layout checks: no dead definitions in src/qbc, no unused imports in
src/qbc or tests.

A function, class or method that nothing in the package refers to is code
that `qbc verify` and `qbc compute` never reach; a test that needs one should
hold its own copy as a reference.  The checks read the source with ast
only, so a name counts as referenced when it appears as a name or an
attribute anywhere in the package outside its own definition.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qbc"

#: definitions kept although nothing in src/qbc refers to them yet
UNREFERENCED_ALLOWED = {
    "koorn_eigenvalue": "the planned point verdict's eigenvalue-distinctness check",
    "lassalle_b_forms": "the paper's type-B rewrite chain, kept for future suite cases",
}


def _modules(root=SRC):
    return {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _references(node) -> list:
    """(name, node) for every name and attribute read below node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append((sub.id, sub))
        elif isinstance(sub, ast.Attribute):
            out.append((sub.attr, sub))
    return out


def test_every_definition_is_referenced_in_the_package():
    modules = _modules()
    references = [ref for tree in modules.values() for ref in _references(tree)]
    defined, unreferenced = set(), []
    for filename, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            defined.add(name)
            if name in UNREFERENCED_ALLOWED or name.startswith("__") and name.endswith("__"):
                continue  # allowed, or called by the language, not by name
            own = {id(sub) for sub in ast.walk(node)}
            if not any(ref == name and id(sub) not in own for ref, sub in references):
                unreferenced.append(f"{filename}:{node.lineno} {name}")
    assert unreferenced == []
    assert set(UNREFERENCED_ALLOWED) <= defined


def test_every_import_is_used_in_its_module():
    unused = []
    for root in (SRC, TESTS):
        for filename, tree in _modules(root).items():
            used = {name for name, _ in _references(tree)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{root.name}/{filename}:{node.lineno} {bound}")
    assert unused == []
