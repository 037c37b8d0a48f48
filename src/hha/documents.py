"""Input and report documents: the JSON-compatible exchange formats.

Exact scalars always travel as canonical strings ("3/4", "1/2*sqrt(2)");
floats appear only when the float scalar field is selected.  Basis indices
are 1-based on the wire, matching the usual coframe labels e^1..e^{4n}.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from . import __version__
from .classify import ClassificationReport, ObstructionReport
from .forms import Form, indices, mask
from .hermitian import Metric, MetricError
from .hypercomplex import Geometry, HypercomplexStructure
from .liealg import LieAlgebraData
from .linalg import add_term
from .scalars import (
    ComplexScalar,
    FLOAT_TOLERANCE,
    Scalar,
    ScalarField,
    ZERO,
    parse_scalar,
    scalar_str,
)


# Inputs above this real dimension are refused before any work.  A k-form of
# the frame can hold C(dim, k) terms, so the cost of the exterior calculus on
# a general input is bounded only through the dimension.  The slowest input
# measured at the cap, a fully coupled Gram metric over Q(sqrt 5) on the
# 80-dimensional q-Gauduchon algebra (``nil_qgau(20)`` of the tests, real
# parts in [-3, 3], sqrt(5) parts in [-1, 1], diagonal 13n), loads and
# classifies in 0.8-1.2 s in-process, and ``hha classify`` on it takes
# 0.9-1.4 s (2-core x86-64 shared with other work, Python 3.11); at
# dimension 96 the same input takes 1.5-1.7 s in-process.  Every input the
# repository builds is below the cap (the largest, from construct an, is 28).
MAX_DIMENSION = 80


class InputError(ValueError):
    """Schema or parse failure, with a location path."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def default_field_from_env(value: str | None) -> dict | None:
    """Interpret HHA_DEFAULT_FIELD: "rational", "quadratic:D" or "float"."""
    if not value:
        return None
    if value == "rational":
        return {"kind": "rational"}
    if value == "float":
        return {"kind": "float", "tolerance": FLOAT_TOLERANCE}
    kind, _, d = value.partition(":")
    try:
        if kind == "quadratic" and d.isascii() and d.isdigit():
            return {"kind": "quadratic", "d": int(d)}
    except ValueError:      # more digits than int() converts
        pass
    raise InputError("$HHA_DEFAULT_FIELD", f"cannot interpret {value!r}")


@dataclass
class InputDocument:
    name: str
    dimension: int
    field: ScalarField
    # the structure constants as parse_input parsed, field-checked and coerced
    structure_equations: dict | None
    brackets: list | None
    # "standard", or the matrices (I, J) as parse_input parsed and coerced them
    hypercomplex: object
    metric: dict
    # the metric's scalars as parse_input parsed, field-checked and coerced
    # into the declared field (to floats in the float field): None
    # (diagonal_unitary), diagonal entries, {(i, j): coefficient} of Omega
    # (0-based, repeated terms summed), or the Gram matrix
    metric_values: object
    raw: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _expect(cond, location, message):
    if not cond:
        raise InputError(location, message)


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, although bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_scalar_at(text, location) -> Scalar:
    if _is_int(text):
        return Scalar._coerce(text)
    _expect(isinstance(text, str), location, f"expected a scalar string, got {text!r}")
    try:
        return parse_scalar(text)
    except Exception as exc:
        raise InputError(location, str(exc)) from None


def _field_member_at(field: ScalarField, text, location, parsed: dict) -> Scalar:
    """Parse a scalar and check that it lies in the declared field.

    ``parsed`` maps each scalar string already parsed and checked in this
    document to its value, so a repeated text is parsed once.  It holds
    successes only: a bad text fails at its first location.
    """
    s = parsed.get(text) if isinstance(text, str) else None
    if s is None:
        s = _parse_scalar_at(text, location)
        _expect(field.contains(s), location,
                f"coefficient {text!r} is outside the declared scalar field")
        if isinstance(text, str):
            parsed[text] = s
    return s


def _coerced_at(field: ScalarField, text, location, parsed: dict) -> Scalar:
    """:func:`_field_member_at` coerced into ``field``: under the float field
    an exact scalar too large for a float, or a nonzero one so small that it
    becomes 0.0, is an input error at its location."""
    exact = _field_member_at(field, text, location, parsed)
    try:
        s = field.coerce(exact)
    except OverflowError:   # the division in Scalar.to_float
        s = None
    _expect(s is not None and not (s.is_float and math.isinf(s.p)), location,
            f"coefficient {text!r} is too large for a float")
    _expect(not (s.is_float and s.p == 0) or exact.is_zero(), location,
            f"coefficient {text!r} is too small for a float")
    return s


def parse_input(text: str, default_field: dict | None = None) -> InputDocument:
    """Validate and parse an input document from JSON text.

    Every scalar is checked at its own location, but each distinct scalar
    string is parsed once per call: the parsed values are kept in a dict
    local to the call (see :func:`_field_member_at`).
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integer literals over the int conversion
        # limit (ValueError) and nesting deeper than the recursion limit
        raise InputError("$", f"invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "$", "document must be an object")
    if default_field is not None and "scalar_field" not in raw:
        raw = dict(raw)
        raw["scalar_field"] = default_field
    name = raw.get("name", "unnamed")
    _expect(isinstance(name, str), "$.name", "name must be a string")
    dim = raw.get("dimension")
    _expect(_is_int(dim), "$.dimension", "dimension must be an integer")
    _expect(dim > 0 and dim % 4 == 0, "$.dimension",
            "dimension must be a positive multiple of 4")
    _expect(dim <= MAX_DIMENSION, "$.dimension",
            f"dimension {dim} is above the supported maximum of {MAX_DIMENSION}")

    fld_raw = raw.get("scalar_field", {"kind": "rational"})
    _expect(isinstance(fld_raw, dict), "$.scalar_field", "must be an object")
    kind = fld_raw.get("kind", "rational")
    radicand = 0
    if kind == "float":
        tol = fld_raw.get("tolerance", FLOAT_TOLERANCE)
        _expect(tol == FLOAT_TOLERANCE, "$.scalar_field.tolerance",
                f"the float backend compares with the fixed tolerance "
                f"{FLOAT_TOLERANCE}, got {tol!r}")
    elif kind == "quadratic":
        radicand = fld_raw.get("d", 0)
        _expect(_is_int(radicand), "$.scalar_field.d",
                f"radicand must be an integer, got {radicand!r}")
    try:
        field = ScalarField(kind, radicand)
    except Exception as exc:
        raise InputError("$.scalar_field", str(exc)) from None

    parsed: dict = {}   # scalar text -> its field-checked value
    eqs = raw.get("structure_equations")
    brackets = raw.get("brackets")
    _expect((eqs is None) != (brackets is None), "$",
            "exactly one of structure_equations and brackets is required")
    parsed_eqs = None
    parsed_brackets = None
    if eqs is not None:
        _expect(isinstance(eqs, dict), "$.structure_equations", "must be an object")
        parsed_eqs = {}
        for key, terms in eqs.items():
            loc = f"$.structure_equations.{key}"
            # ASCII digits only: int() also reads "1_0", "+2", " 3" and other digits
            try:
                k = int(key) if key.isascii() and key.isdigit() else None
            except ValueError:      # more digits than int() converts
                k = None
            _expect(k is not None, loc, "generator label must be an integer")
            _expect(1 <= k <= dim, loc, f"generator index {k} out of range")
            _expect(k not in parsed_eqs, loc, f"another label already names generator {k}")
            _expect(isinstance(terms, list), loc, "must be a list of [i, j, coeff]")
            out = []
            for t, term in enumerate(terms):
                tloc = f"{loc}[{t}]"
                _expect(isinstance(term, list) and len(term) == 3, tloc,
                        "term must be [i, j, coeff]")
                i, j, c = term
                _expect(_is_int(i) and _is_int(j), tloc,
                        "indices must be integers")
                _expect(1 <= i < j <= dim, tloc,
                        f"indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
                out.append((i, j, _coerced_at(field, c, tloc, parsed)))
            parsed_eqs[k] = out
    else:
        _expect(isinstance(brackets, list), "$.brackets", "must be a list")
        parsed_brackets = []
        for t, item in enumerate(brackets):
            loc = f"$.brackets[{t}]"
            _expect(isinstance(item, list) and len(item) == 3, loc,
                    "entry must be [i, j, [[k, coeff], ...]]")
            i, j, comps = item
            _expect(_is_int(i) and _is_int(j), loc,
                    "indices must be integers")
            _expect(1 <= i <= dim and 1 <= j <= dim and i != j, loc,
                    "indices out of range")
            _expect(isinstance(comps, list), loc, "components must be a list")
            comp_out = []
            for u, pair in enumerate(comps):
                ploc = f"{loc}[2][{u}]"
                _expect(isinstance(pair, list) and len(pair) == 2, ploc,
                        "component must be [k, coeff]")
                k, c = pair
                _expect(_is_int(k) and 1 <= k <= dim, ploc,
                        "target index out of range")
                comp_out.append((k, _coerced_at(field, c, ploc, parsed)))
            parsed_brackets.append((i, j, comp_out))

    hc = raw.get("hypercomplex", "standard")
    if hc != "standard":
        _expect(isinstance(hc, dict) and "I" in hc and "J" in hc, "$.hypercomplex",
                'must be "standard" or an object with matrices I and J')
        matrices = []
        for label in ("I", "J"):
            mat = hc[label]
            loc = f"$.hypercomplex.{label}"
            _expect(isinstance(mat, list) and len(mat) == dim, loc,
                    f"must be a {dim}x{dim} matrix")
            for row in mat:
                _expect(isinstance(row, list) and len(row) == dim, loc,
                        f"must be a {dim}x{dim} matrix")
            matrices.append([[_coerced_at(field, x, f"{loc}[{r}][{c}]", parsed)
                              for c, x in enumerate(row)] for r, row in enumerate(mat)])
        hc = tuple(matrices)

    metric = raw.get("metric", {"type": "diagonal_unitary"})
    _expect(isinstance(metric, dict), "$.metric", "must be an object")
    mtype = metric.get("type")
    _expect(mtype in ("diagonal_unitary", "diagonal", "omega", "gram"),
            "$.metric.type",
            "must be one of diagonal_unitary, diagonal, omega, gram")
    values = None
    if mtype == "diagonal":
        entries = metric.get("entries")
        _expect(isinstance(entries, list) and len(entries) == dim // 4,
                "$.metric.entries", f"needs {dim // 4} diagonal entries")
        values = []
        for t, e in enumerate(entries):
            loc = f"$.metric.entries[{t}]"
            _expect(_field_member_at(field, e, loc, parsed).sign() > 0, loc,
                    "diagonal entries must be positive")
            values.append(_coerced_at(field, e, loc, parsed))
    if mtype == "omega":
        terms = metric.get("terms")
        _expect(isinstance(terms, list), "$.metric.terms",
                "must be a list of [i, j, re, im]")
        values = {}
        for t, term in enumerate(terms):
            loc = f"$.metric.terms[{t}]"
            _expect(isinstance(term, list) and len(term) == 4, loc,
                    "term must be [i, j, re, im]")
            i, j = term[0], term[1]
            _expect(_is_int(i) and _is_int(j)
                    and 1 <= i < j <= dim // 2, loc,
                    "indices must satisfy 1 <= i < j <= 2n")
            # repeated terms sum, and an exact-zero sum is not stored
            add_term(values, (i - 1, j - 1), ComplexScalar(
                _coerced_at(field, term[2], loc, parsed), _coerced_at(field, term[3], loc, parsed)))
    if mtype == "gram":
        entries = metric.get("entries")
        N = dim // 2
        _expect(isinstance(entries, list) and len(entries) == N
                and all(isinstance(row, list) and len(row) == N
                        and all(isinstance(e, list) and len(e) == 2 for e in row)
                        for row in entries),
                "$.metric.entries", f"needs a {N}x{N} matrix of [re, im] pairs")
        values = []
        for r, row in enumerate(entries):
            out = []
            for t, (re, im) in enumerate(row):
                loc = f"$.metric.entries[{r}][{t}]"
                out.append(ComplexScalar(_coerced_at(field, re, loc, parsed),
                                         _coerced_at(field, im, loc, parsed)))
            values.append(out)

    return InputDocument(
        name=name,
        dimension=dim,
        field=field,
        structure_equations=parsed_eqs,
        brackets=parsed_brackets,
        hypercomplex=hc,
        metric=metric,
        metric_values=values,
        raw=raw,
    )


def build_geometry(doc: InputDocument) -> Geometry:
    field = doc.field
    if doc.structure_equations is not None:
        eqs = {
            k - 1: [(i - 1, j - 1, c) for (i, j, c) in terms]
            for k, terms in doc.structure_equations.items()
        }
        algebra = LieAlgebraData.from_structure_equations(doc.dimension, eqs, field)
    else:
        table: dict = {}
        for (i, j, comps) in doc.brackets:
            dest = table.setdefault((i - 1, j - 1), {})
            for (k, c) in comps:
                add_term(dest, k - 1, c)
        algebra = LieAlgebraData(doc.dimension, table, field)
    if doc.hypercomplex == "standard":
        structure = HypercomplexStructure.standard(doc.dimension // 4)
    else:
        structure = HypercomplexStructure(*doc.hypercomplex)
    return Geometry(algebra, structure)


def build_metric(doc: InputDocument, geom: Geometry) -> Metric:
    mtype = doc.metric.get("type")
    if mtype == "diagonal_unitary":
        return Metric.unitary(geom)
    if mtype == "diagonal":
        return Metric.diagonal(geom, doc.metric_values)
    if mtype == "omega":
        terms = {mask(ij): c for ij, c in doc.metric_values.items()}
        return Metric(geom, Form(doc.dimension, 2, terms))
    try:
        return Metric.from_hermitian_matrix(geom, doc.metric_values)
    except MetricError as exc:   # an entry, or the matrix as a whole (not positive)
        where = "" if exc.entry is None else "[{}][{}]".format(*exc.entry)
        raise InputError(f"$.metric.entries{where}", str(exc)) from None


def load_document(doc: InputDocument):
    geom = build_geometry(doc)
    metric = build_metric(doc, geom)
    return geom, metric


def geometry_to_input(name: str, geom: Geometry, metric: Metric) -> dict:
    """Serialize a geometry and metric back into the exchange format."""
    alg = geom.algebra
    eqs = {}
    for k, terms in alg.structure_equations().items():
        eqs[str(k + 1)] = [[i + 1, j + 1, scalar_str(c)] for (i, j, c) in terms]
    cols = geom.structure.columns
    std = HypercomplexStructure.standard(alg.dim // 4).columns
    if cols["I"] == std["I"] and cols["J"] == std["J"]:
        hc = "standard"
    else:   # the exchange format's dense rows
        hc = {label: [[scalar_str(c.get(r, ZERO)) for c in cols[label]] for r in range(alg.dim)]
              for label in ("I", "J")}
    terms = [
        [i + 1, j + 1, scalar_str(c.re), scalar_str(c.im)]
        for (i, j), c in sorted((indices(key), c) for key, c in metric.omega.terms.items())
    ]
    return {
        "name": name,
        "dimension": alg.dim,
        "scalar_field": _scalar_field_json(alg.field),
        "structure_equations": eqs,
        "hypercomplex": hc,
        "metric": {"type": "omega", "terms": terms},
    }


# -- report serialization -------------------------------------------------------


def _scalar_field_json(field: ScalarField):
    if field.kind == "quadratic":
        return {"kind": "quadratic", "d": field.d}
    if field.kind == "float":
        return {"kind": "float", "tolerance": FLOAT_TOLERANCE}
    return {"kind": "rational"}


def _obstruction_json(ob: ObstructionReport | None):
    if ob is None:
        return None
    return {
        "c1": scalar_str(ob.c1),
        "gamma_bis_unit": scalar_str(ob.gamma_bis_unit),
        "gamma_bis_scaled": scalar_str(ob.gamma_bis_scaled),
        "q_gauduchon_in_class": ob.q_gauduchon_in_class,
        "q_balanced_in_class": ob.q_balanced_in_class,
        "scope": ob.scope,
    }


def report_document(report: ClassificationReport, doc: InputDocument | None = None,
                    frame=None, pair: str = "standard") -> dict:
    flags = {
        name: {"value": fr.value, "residual": fr.residual}
        for name, fr in report.flags.items()
    }
    witnesses = {}
    for name, form in report.witnesses.items():
        witnesses[name] = frame.format(form) if frame is not None else repr(form)
    out = {
        "schema": "hha.report/1",
        "library_version": __version__,
        "name": doc.name if doc else "",
        "input_sha256": doc.sha256() if doc else "",
        "scalar_field": _scalar_field_json(doc.field) if doc else {"kind": "rational"},
        "pair": pair,
        "quaternionic_dimension": report.n,
        "flags": flags,
        "skt": report.skt,
        "s_ch": scalar_str(report.s_ch),
        "s_bis": scalar_str(report.s_bis),
        "einstein_factor": None if report.einstein_factor is None
        else scalar_str(report.einstein_factor),
        "einstein_residual": report.einstein_residual,
        "sl": report.sl_flags,
        "obstruction": _obstruction_json(report.obstruction),
        "witnesses": witnesses,
        "notes": report.notes,
        "scope": report.scope,
    }
    return out


def report_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def report_text(document: dict) -> str:
    lines = [f"classification of {document['name'] or '<input>'} "
             f"(n = {document['quaternionic_dimension']}, pair {document['pair']})"]
    for name in sorted(document["flags"]):
        entry = document["flags"][name]
        mark = "yes" if entry["value"] else "no "
        residual = f"   [{entry['residual']}]" if entry["residual"] else ""
        lines.append(f"  {name:<22} {mark}{residual}")
    lines.append(f"  {'skt per structure':<22} " + ", ".join(
        f"{k}: {'yes' if v else 'no'}" for k, v in document["skt"].items()))
    lines.append(f"  s^Ch = {document['s_ch']}, s^Bis = {document['s_bis']}")
    lam = document["einstein_factor"]
    lines.append(f"  einstein factor: {lam if lam is not None else 'none'}")
    sl = document["sl"]
    lines.append("  invariant-level flags: "
                 f"alpha = 0: {sl['alpha_zero']}, d eta = 0: {sl['d_eta_zero']}, "
                 f"del_J alpha = 0: {sl['del_j_alpha_zero']}")
    ob = document["obstruction"]
    if ob:
        lines.append(
            f"  conformal class: c1 = {ob['c1']}, Gamma^Bis = {ob['gamma_bis_unit']}"
            f" -> q-Gauduchon: {ob['q_gauduchon_in_class']},"
            f" q-balanced: {ob['q_balanced_in_class']}"
        )
    for w, expr in sorted(document["witnesses"].items()):
        lines.append(f"  witness[{w}] = {expr}")
    for note in document["notes"]:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"
