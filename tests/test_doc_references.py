"""Every module- or class-qualified code reference in the docs names a live
attribute.

The docstrings of ``src/hha/*.py`` and ``README.md`` name code as
``module.name`` in backticks (``linalg.quaternionic_inverse_ints``,
:func:`linalg.echelon`, `hermitian.Metric.omega_power`).  When the module is an ``hha`` module, the
reference must resolve, attribute by attribute, so that deleting or renaming
a function leaves no stale name behind in the prose.  They also name code as
``Class.name`` (``Form.substitute``, :meth:`Form.contract`,
``Metric._g_inv_ints``).  When the class is defined in an ``hha`` module, it
must be defined in exactly one, and the name must be an attribute of the
class or be assigned as ``self.<name>`` in its body (an instance attribute).
"""
import ast
import importlib
import pathlib
import pkgutil
import re

import hha

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(hha.__path__))
SPAN = re.compile(r"(`+)([^`]+?)\1")
REFERENCE = re.compile(r"~?(?:hha\.)?(%s)((?:\.[A-Za-z_]\w*)+)(?:\(.*\))?" % "|".join(MODULES))
CLASS_REFERENCE = re.compile(r"~?([A-Z]\w*)((?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def _documents():
    """(where, text) for every docstring of the package and the README."""
    for path in sorted((ROOT / "src" / "hha").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")


def references() -> list:
    """(where, module, dotted attribute path) of each reference, in order."""
    out = []
    for where, text in _documents():
        for span in SPAN.finditer(text):
            ref = REFERENCE.fullmatch(span.group(2).strip())
            if ref:
                out.append((where, ref.group(1), ref.group(2)[1:]))
    return out


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"hha.{module}")
    for name in path.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_module_qualified_reference_resolves():
    found = references()
    # both docstring roles and the README are read
    names = {f"{module}.{path}" for _, module, path in found}
    assert {"linalg.quaternionic_inverse_ints", "hypercomplex.j_index"} <= names
    assert any(where == "README.md" for where, _, _ in found)
    stale = [(where, f"{module}.{path}") for where, module, path in found
             if not _resolves(module, path)]
    assert stale == []


def test_a_stale_reference_is_found():
    doc = "G^-1 by :func:`linalg.no_such_function` and ``hermitian.Metric.nothing``."
    refs = [REFERENCE.fullmatch(s.group(2)) for s in SPAN.finditer(doc)]
    assert [(r.group(1), r.group(2)[1:]) for r in refs] == [
        ("linalg", "no_such_function"), ("hermitian", "Metric.nothing")]
    assert not any(_resolves(r.group(1), r.group(2)[1:]) for r in refs)


def _self_targets(node):
    """The names assigned as ``self.<name>`` by one statement."""
    targets = {ast.Assign: lambda n: n.targets, ast.AnnAssign: lambda n: [n.target],
               ast.AugAssign: lambda n: [n.target]}.get(type(node), lambda n: [])(node)
    for target in targets:
        for t in ast.walk(target):
            if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self"):
                yield t.attr


def classes() -> dict:
    """Class name -> [(module, names assigned as ``self.<name>`` in its body)],
    one entry per ``hha`` module that defines it."""
    out: dict = {}
    for module in MODULES:
        tree = ast.parse((ROOT / "src" / "hha" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                assigned = {name for sub in ast.walk(node) for name in _self_targets(sub)}
                out.setdefault(node.name, []).append((module, assigned))
    return out


def class_references(known: dict) -> list:
    """(where, class, dotted attribute path) of each reference to a class of
    ``known``, in order."""
    out = []
    for where, text in _documents():
        for span in SPAN.finditer(text):
            ref = CLASS_REFERENCE.fullmatch(span.group(2).strip())
            if ref and ref.group(1) in known:
                out.append((where, ref.group(1), ref.group(2)[1:]))
    return out


def _class_resolves(known: dict, name: str, path: str) -> bool:
    if len(known[name]) != 1:
        return False
    (module, assigned), = known[name]
    first, *rest = path.split(".")
    obj = getattr(importlib.import_module(f"hha.{module}"), name)
    if not hasattr(obj, first):
        return first in assigned and not rest
    for attr in path.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_class_qualified_reference_resolves():
    known = classes()
    found = class_references(known)
    names = {f"{name}.{path}" for _, name, path in found}
    assert {"Form.substitute", "Form.contract", "Metric._g_inv_ints"} <= names
    stale = [(where, f"{name}.{path}") for where, name, path in found
             if not _class_resolves(known, name, path)]
    assert stale == []


def test_a_stale_class_reference_is_found():
    known = classes()
    doc = ("``Form.substitute``, :meth:`Form.contract`, ``Metric._g_inv_ints``, "
           "``Metric._no_such_lane`` and ``Form.nothing.at_all``.")
    refs = [CLASS_REFERENCE.fullmatch(s.group(2)) for s in SPAN.finditer(doc)]
    verdicts = {f"{r.group(1)}{r.group(2)}": _class_resolves(known, r.group(1), r.group(2)[1:])
                for r in refs}
    assert verdicts == {"Form.substitute": True, "Form.contract": True,
                        "Metric._g_inv_ints": True, "Metric._no_such_lane": False,
                        "Form.nothing.at_all": False}
    # a class defined in two modules is ambiguous
    assert not _class_resolves({"Twice": [("forms", set()), ("linalg", set())]},
                               "Twice", "anything")
