"""Mutated catalog exports are refused as input errors, never as internal faults.

Each example takes the export of a catalog entry and breaks it in one place:
it drops a required key or an element of a fixed-length list, gives a value
another JSON type, writes an out-of-range index, or writes a malformed scalar
string.  ``hha check`` must then exit 2 with an error located at the broken
node or at one of its ancestors (``$`` for the whole document), and never 3.
"""
import copy
import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

from hha.catalog import entry_names
from hha.cli import main


def _cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _export(name):
    code, out, _ = _cli(["catalog", "export", name])
    assert code == 0
    return json.loads(out)


# -- locating nodes ------------------------------------------------------------------


def _nodes(value, path="$"):
    """(path, parent, key) of every node below ``value``, in the notation of
    ``InputError`` locations: ``.key`` into objects and ``[i]`` into lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        child_path = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        yield child_path, value, key
        if isinstance(child, (dict, list)):
            yield from _nodes(child, child_path)


def _index_slots(doc):
    """(path, parent, key) of every 1-based index: structure-equation terms
    [i, j, c], bracket entries [i, j, [[k, c], ...]] and Omega terms
    [i, j, re, im]."""
    for path, parent, key in _nodes(doc):
        if not isinstance(parent, list) or not isinstance(parent[key], int):
            continue
        if "structure_equations." in path or "brackets[" in path or "metric.terms[" in path:
            yield path, parent, key


def _scalar_slots(doc):
    """(path, parent, key) of every scalar string outside the field declaration."""
    for path, parent, key in _nodes(doc):
        if isinstance(parent[key], str) and (
                "structure_equations." in path or "brackets[" in path
                or "metric.entries" in path or "metric.terms" in path):
            yield path, parent, key


# -- mutations: each breaks ``doc`` in place and returns the broken node's path;
# the abelian entries have no terms, so the index and scalar mutations skip them


def drop_required(doc, draw):
    """Drop a key the document needs, or an element of a fixed-length list."""
    choices = [("$.dimension", doc, "dimension")]
    for key in ("structure_equations", "brackets"):
        if key in doc:
            choices.append((f"$.{key}", doc, key))
    for key in ("type", "entries", "terms"):
        if key in doc.get("metric", {}):
            choices.append((f"$.metric.{key}", doc["metric"], key))
    if doc.get("scalar_field", {}).get("kind") == "quadratic":
        choices.append(("$.scalar_field.d", doc["scalar_field"], "d"))
    choices += [(path, parent, key) for path, parent, key in _index_slots(doc)]
    path, parent, key = draw(st.sampled_from(choices))
    del parent[key]
    return path


def swap_type(doc, draw):
    """Give a value below the root a JSON type that no field of its place accepts."""
    path, parent, key = draw(st.sampled_from(list(_nodes(doc))))
    old = parent[key]
    replacements = [None, True, 1.5, [], {}]
    parent[key] = draw(st.sampled_from([r for r in replacements
                                        if type(r) is not type(old)]))
    return path


def out_of_range_index(doc, draw):
    """Move an index of a term, or a generator label, outside its range."""
    dim = doc["dimension"]
    bad = draw(st.sampled_from([0, -1, dim + 1, 2 * dim, 2 ** 70]))
    labels = [(f"$.structure_equations.{label}", label)
              for label in doc.get("structure_equations", {})]
    slots = list(_index_slots(doc))
    assume(slots)
    if draw(st.booleans()):
        path, label = draw(st.sampled_from(labels))
        eqs = doc["structure_equations"]
        eqs[str(bad)] = eqs.pop(label)
        return f"$.structure_equations.{bad}"
    path, parent, key = draw(st.sampled_from(slots))
    parent[key] = bad
    return path


# no scalar ends in these; none but "+" and "-" (a sign) starts one either
_GARBAGE = ("/", "/0", "*", "+", "-", "(", ")", "x", ".5", "e3", "**2", "*sqrt(", "sqrt")


def malformed_scalar(doc, draw):
    """Break a scalar string with a suffix or prefix no grammar completes."""
    slots = list(_scalar_slots(doc))
    assume(slots)
    path, parent, key = draw(st.sampled_from(slots))
    junk = draw(st.sampled_from(_GARBAGE))
    broken = [parent[key] + junk, "", "   ", "sqrt()", "1//2", "float:x"]
    if junk not in ("+", "-"):
        broken.append(junk + " " + parent[key])
    parent[key] = draw(st.sampled_from(broken))
    return path


MUTATIONS = (drop_required, swap_type, out_of_range_index, malformed_scalar)


def _within(location, path):
    """True when ``location`` names ``path`` or one of its ancestors."""
    return location == "$" or path == location or path.startswith((location + ".",
                                                                    location + "["))


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(entry_names()), mutation=st.sampled_from(MUTATIONS),
       data=st.data())
def test_mutated_exports_exit_2_at_the_broken_node(name, mutation, data, tmp_path_factory):
    doc = copy.deepcopy(_export(name))
    path = mutation(doc, data.draw)
    file = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    file.write_text(json.dumps(doc))
    code, _, err = _cli(["check", str(file)])
    assert code == 2, (path, err)
    assert err.startswith("error: $"), err
    location = err[len("error: "):].split(": ", 1)[0]
    assert _within(location, path), (location, path)


@pytest.mark.parametrize("text", [
    # json.loads refuses integer literals of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError ...
    json.dumps(_export("qbal12")).replace('"dimension": 12', '"dimension": 1' + "0" * 5000),
    # ... and nesting deeper than the recursion limit with a RecursionError
    '{"dimension": 4, "name": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["long_integer", "deep_nesting"])
def test_json_the_decoder_refuses_is_an_input_error(text, tmp_path):
    file = tmp_path / "doc.json"
    file.write_text(text)
    code, _, err = _cli(["check", str(file)])
    assert code == 2, err
    assert err.startswith("error: $: invalid JSON: "), err
