"""Layout checks: no dead definitions and no unset defaulted parameters in
src/qbc, no unused imports in src/qbc or tests, and no special method of the
arithmetic classes that verify all never calls.

A function, class or method that nothing in the package refers to is code
that `qbc verify` and `qbc compute` never reach; a test that needs one should
hold its own copy as a reference.  The same holds for a defaulted parameter
that no call in the package sets: its other values are reached only from
tests.  The checks read the source with ast only, so a name counts as
referenced when it appears as a name or an attribute anywhere in the package
outside its own definition, a classmethod only as ClassName.attr or cls.attr
(so an attribute of the same name elsewhere does not hide it), and a call is
matched to every definition of the name or attribute it calls.  The language
calls special methods, not a name, so those are counted while verify all runs
instead.
"""

import ast
import functools
import inspect
from collections import Counter
from pathlib import Path

from qbc.algebra import LaurentPoly, OrbitPoly, _TermForm
from qbc.b2 import _LeadTerm, _Pair
from qbc.suites import default_config, run_suite
from test_memos import _clear_memos

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qbc"

#: definitions kept although nothing in src/qbc refers to them yet
UNREFERENCED_ALLOWED = {
    "lassalle_b_forms": "the paper's type-B rewrite chain, kept for future suite cases",
}


#: defaulted parameters kept although no call in src/qbc sets them
UNSET_DEFAULT_ALLOWED = {
    "main(argv)": "the console entry point runs on sys.argv; tests pass their own",
    "to_json(with_timing)": "the benchmark child and the digest tests ask for the timing-free body",
    "suite_koornwinder(ranks)": "a narrowing option, passed by run_suite as **narrowed",
    "suite_koornwinder(rows)": "a narrowing option, passed by run_suite as **narrowed",
    "suite_lassalle(families)": "a narrowing option, passed by run_suite as **narrowed",
    "suite_lassalle(ranks)": "a narrowing option, passed by run_suite as **narrowed",
    "suite_lassalle(rows)": "a narrowing option, passed by run_suite as **narrowed",
}


#: special methods kept although verify all does not call them
UNREACHED_ALLOWED = {
    "LaurentPoly.__repr__": "only error messages show a polynomial",
    "OrbitPoly.__repr__": "only error messages show an orbit form",
    "_TermForm.__sub__": "only a failing poly_mismatch subtracts, to find the leading monomial",
    "_TermForm.__neg__": "only __sub__ negates, on a failing poly_mismatch",
    "_Pair.__eq__": "a guard: comparing pairs raises TypeError by design",
    "_Pair.__bool__": "a guard: the truth of a pair raises TypeError by design",
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


def _classmethod_bases(tree) -> dict:
    """The names a classmethod below tree is read through, its class and
    cls, by node."""
    return {
        node: {cls.name, "cls"}
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)
    }


def _through(sub, bases) -> bool:
    """Whether sub is an attribute read base.attr for a name base in bases."""
    return (
        isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and sub.value.id in bases
    )


def test_every_definition_is_referenced_in_the_package():
    modules = _modules()
    references = [ref for tree in modules.values() for ref in _references(tree)]
    defined, unreferenced = set(), []
    for filename, tree in modules.items():
        classmethods = _classmethod_bases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            defined.add(name)
            if name in UNREFERENCED_ALLOWED or name.startswith("__") and name.endswith("__"):
                continue  # allowed, or called by the language, not by name
            own = {id(sub) for sub in ast.walk(node)}
            bases = classmethods.get(node)
            if not any(
                ref == name and id(sub) not in own and (bases is None or _through(sub, bases))
                for ref, sub in references
            ):
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


def test_only_qseries_holds_a_table_of_powers():
    # the integer walk kernel takes a base: a table of powers of it is made
    # and read inside qseries alone, so no other module names _Powers or
    # takes a powers parameter
    found = []
    for filename, tree in _modules().items():
        if filename == "qseries.py":
            continue
        found += [
            f"{filename}:{sub.lineno} {name}" for name, sub in _references(tree)
            if name == "_Powers"
        ]
        found += [
            f"{filename}:{sub.lineno} {sub.arg}" for sub in ast.walk(tree)
            if isinstance(sub, ast.arg) and sub.arg == "powers"
        ]
    assert found == []


def _functions(modules: dict) -> list:
    """(filename, def node, names a call to it goes by, whether a call's
    first argument fills the second parameter) for every function and
    method; a call of a class, or of cls inside it, goes to its __init__."""
    out, methods = [], set()
    for filename, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(node)
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list
                    )
                    names = {cls.name, "cls"} if node.name == "__init__" else {node.name}
                    out.append((filename, node, names, not static))
    for filename, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node not in methods:
                out.append((filename, node, {node.name}, False))
    return out


def _sets(call: ast.Call, index, name: str, bound: bool) -> bool:
    """Whether call may set the parameter name, at position index (None
    for a keyword-only one), of a function it may call."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) + bound > index


def test_every_defaulted_parameter_is_set_somewhere_in_the_package():
    modules = _modules()
    calls = [node for tree in modules.values() for node in ast.walk(tree)]
    calls = [node for node in calls if isinstance(node, ast.Call)]
    defaulted, unset = set(), []
    for filename, node, names, bound in _functions(modules):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        params += [
            (None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        callers = [
            call for call in calls
            if getattr(call.func, "id", getattr(call.func, "attr", None)) in names
        ]
        for index, name in params:
            key = f"{node.name}({name})"
            defaulted.add(key)
            if key in UNSET_DEFAULT_ALLOWED:
                continue
            if not any(_sets(call, index, name, bound) for call in callers):
                unset.append(f"{filename}:{node.lineno} {key}")
    assert unset == []
    assert set(UNSET_DEFAULT_ALLOWED) <= defaulted


def _counted(calls: Counter, key: str, method):
    @functools.wraps(method)
    def counter(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)

    return counter


def test_every_special_method_is_reached(isolated_cache, monkeypatch):
    # a cold verify all on cleared memos and an empty oracle cache, so every
    # builder runs; each special method of the arithmetic classes counts its
    # calls, under its own name where two names share one function
    calls, wrapped = Counter(), set()
    for cls in (_TermForm, LaurentPoly, OrbitPoly, _Pair, _LeadTerm):
        for name, method in list(vars(cls).items()):
            if name.startswith("__") and name.endswith("__") and inspect.isfunction(method):
                key = f"{cls.__name__}.{name}"
                wrapped.add(key)
                monkeypatch.setattr(cls, name, _counted(calls, key, method))
    _clear_memos()
    assert run_suite("all", default_config()).passed
    assert sorted(wrapped - set(calls) - set(UNREACHED_ALLOWED)) == []
    assert set(UNREACHED_ALLOWED) <= wrapped
