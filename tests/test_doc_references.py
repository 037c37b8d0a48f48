"""Every module-qualified code reference in the docs names a live attribute.

The docstrings of ``src/hha/*.py`` and ``README.md`` name code as
``module.name`` in backticks (``linalg.inverse_ints``, :func:`linalg.echelon`,
`hermitian.Metric.omega_power`).  When the module is an ``hha`` module, the
reference must resolve, attribute by attribute, so that deleting or renaming
a function leaves no stale name behind in the prose.
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
    assert {"linalg.inverse_ints", "hypercomplex.j_index"} <= names
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
