"""Input and report documents: the JSON-compatible exchange formats.

Exact scalars always travel as canonical strings ("3/4", "1/2*sqrt(2)");
floats appear only when the float scalar field is selected.  Basis indices
are 1-based on the wire, matching the usual coframe labels e^1..e^{4n}.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import __version__
from .classify import ClassificationReport, ObstructionReport
from .forms import Form
from .hermitian import Metric
from .hypercomplex import Geometry, HypercomplexStructure
from .liealg import LieAlgebraData
from .scalars import (
    ComplexScalar,
    Scalar,
    ScalarError,
    ScalarField,
    parse_scalar,
    scalar_str,
)


# Inputs above this real dimension are refused before any work: the dense
# dim x dim matrices and the exterior algebra of the frame grow too fast (an
# abelian input takes seconds at 48 and did not finish in minutes at 96).
MAX_DIMENSION = 48


class InputError(ValueError):
    """Schema or parse failure, with a location path."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def default_field_from_env(value: str | None) -> dict | None:
    """Interpret HHA_DEFAULT_FIELD: "rational", "quadratic:D", "float[:tol]"."""
    if not value:
        return None
    parts = value.split(":")
    if parts[0] == "rational":
        return {"kind": "rational"}
    try:
        if parts[0] == "quadratic" and len(parts) == 2:
            return {"kind": "quadratic", "d": int(parts[1])}
        if parts[0] == "float":
            tol = float(parts[1]) if len(parts) == 2 else 1e-9
            return {"kind": "float", "tolerance": tol}
    except ValueError:
        pass
    raise InputError("$HHA_DEFAULT_FIELD", f"cannot interpret {value!r}")


@dataclass
class InputDocument:
    name: str
    dimension: int
    field: ScalarField
    structure_equations: dict | None
    brackets: list | None
    hypercomplex: object
    metric: dict
    # the metric's scalars as parsed and field-checked by parse_input: None
    # (diagonal_unitary), diagonal entries, {(i, j): coefficient} of Omega
    # (0-based), or the Gram matrix
    metric_values: object
    raw: dict

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _expect(cond, location, message):
    if not cond:
        raise InputError(location, message)


def _parse_scalar_at(text, location) -> Scalar:
    if isinstance(text, int):
        return Scalar._coerce(text)
    _expect(isinstance(text, str), location, f"expected a scalar string, got {text!r}")
    try:
        return parse_scalar(text)
    except Exception as exc:
        raise InputError(location, str(exc)) from None


def _field_member_at(field: ScalarField, text, location) -> Scalar:
    """Parse a scalar and check that it lies in the declared field."""
    s = _parse_scalar_at(text, location)
    _expect(field.contains(s), location,
            f"coefficient {text!r} is outside the declared scalar field")
    return s


def _field_scalar_at(field: ScalarField, text, location) -> Scalar:
    try:
        return field.coerce(_parse_scalar_at(text, location))
    except ScalarError as exc:
        raise InputError(location, str(exc)) from None


def parse_input(text: str, default_field: dict | None = None) -> InputDocument:
    """Validate and parse an input document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("$", f"invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "$", "document must be an object")
    if default_field is not None and "scalar_field" not in raw:
        raw = dict(raw)
        raw["scalar_field"] = default_field
    name = raw.get("name", "unnamed")
    _expect(isinstance(name, str), "$.name", "name must be a string")
    dim = raw.get("dimension")
    _expect(isinstance(dim, int), "$.dimension", "dimension must be an integer")
    _expect(dim > 0 and dim % 4 == 0, "$.dimension",
            "dimension must be a positive multiple of 4")
    _expect(dim <= MAX_DIMENSION, "$.dimension",
            f"dimension {dim} is above the supported maximum of {MAX_DIMENSION}")

    fld_raw = raw.get("scalar_field", {"kind": "rational"})
    _expect(isinstance(fld_raw, dict), "$.scalar_field", "must be an object")
    kind = fld_raw.get("kind", "rational")
    try:
        if kind == "quadratic":
            field = ScalarField("quadratic", int(fld_raw.get("d", 0)))
        elif kind == "float":
            field = ScalarField("float", tolerance=float(fld_raw.get("tolerance", 1e-9)))
        else:
            field = ScalarField(kind)
    except Exception as exc:
        raise InputError("$.scalar_field", str(exc)) from None

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
            try:
                k = int(key)
            except ValueError:
                raise InputError(loc, "generator label must be an integer") from None
            _expect(1 <= k <= dim, loc, f"generator index {k} out of range")
            _expect(isinstance(terms, list), loc, "must be a list of [i, j, coeff]")
            out = []
            for t, term in enumerate(terms):
                tloc = f"{loc}[{t}]"
                _expect(isinstance(term, list) and len(term) == 3, tloc,
                        "term must be [i, j, coeff]")
                i, j, c = term
                _expect(isinstance(i, int) and isinstance(j, int), tloc,
                        "indices must be integers")
                _expect(1 <= i < j <= dim, tloc,
                        f"indices ({i}, {j}) must satisfy 1 <= i < j <= {dim}")
                out.append((i, j, _field_member_at(field, c, tloc)))
            parsed_eqs[k] = out
    else:
        _expect(isinstance(brackets, list), "$.brackets", "must be a list")
        parsed_brackets = []
        for t, item in enumerate(brackets):
            loc = f"$.brackets[{t}]"
            _expect(isinstance(item, list) and len(item) == 3, loc,
                    "entry must be [i, j, [[k, coeff], ...]]")
            i, j, comps = item
            _expect(isinstance(i, int) and isinstance(j, int), loc,
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
                _expect(isinstance(k, int) and 1 <= k <= dim, ploc,
                        "target index out of range")
                comp_out.append((k, _field_member_at(field, c, ploc)))
            parsed_brackets.append((i, j, comp_out))

    hc = raw.get("hypercomplex", "standard")
    if hc != "standard":
        _expect(isinstance(hc, dict) and "I" in hc and "J" in hc, "$.hypercomplex",
                'must be "standard" or an object with matrices I and J')
        for label in ("I", "J"):
            mat = hc[label]
            loc = f"$.hypercomplex.{label}"
            _expect(isinstance(mat, list) and len(mat) == dim, loc,
                    f"must be a {dim}x{dim} matrix")
            for row in mat:
                _expect(isinstance(row, list) and len(row) == dim, loc,
                        f"must be a {dim}x{dim} matrix")

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
            s = _field_member_at(field, e, f"$.metric.entries[{t}]")
            _expect(s.sign() > 0, f"$.metric.entries[{t}]",
                    "diagonal entries must be positive")
            values.append(field.coerce(s))
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
            _expect(isinstance(i, int) and isinstance(j, int)
                    and 1 <= i < j <= dim // 2, loc,
                    "indices must satisfy 1 <= i < j <= 2n")
            values[(i - 1, j - 1)] = ComplexScalar(_field_member_at(field, term[2], loc),
                                                   _field_member_at(field, term[3], loc))
    if mtype == "gram":
        entries = metric.get("entries")
        N = dim // 2
        _expect(isinstance(entries, list) and len(entries) == N
                and all(isinstance(row, list) and len(row) == N
                        and all(isinstance(e, list) and len(e) == 2 for e in row)
                        for row in entries),
                "$.metric.entries", f"needs a {N}x{N} matrix of [re, im] pairs")
        values = [[ComplexScalar(_field_member_at(field, re, f"$.metric.entries[{r}][{t}]"),
                                 _field_member_at(field, im, f"$.metric.entries[{r}][{t}]"))
                   for t, (re, im) in enumerate(row)] for r, row in enumerate(entries)]

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
            k - 1: [(i - 1, j - 1, field.coerce(c)) for (i, j, c) in terms]
            for k, terms in doc.structure_equations.items()
        }
        algebra = LieAlgebraData.from_structure_equations(doc.dimension, eqs, field)
    else:
        table: dict = {}
        for (i, j, comps) in doc.brackets:
            dest = table.setdefault((i - 1, j - 1), {})
            for (k, c) in comps:
                dest[k - 1] = field.coerce(c)
        algebra = LieAlgebraData(doc.dimension, table, field)
    if doc.hypercomplex == "standard":
        structure = HypercomplexStructure.standard(doc.dimension // 4)
    else:
        I = [[_field_scalar_at(field, x, "$.hypercomplex.I")
              for x in row] for row in doc.hypercomplex["I"]]
        J = [[_field_scalar_at(field, x, "$.hypercomplex.J")
              for x in row] for row in doc.hypercomplex["J"]]
        structure = HypercomplexStructure(I, J)
    return Geometry(algebra, structure)


def build_metric(doc: InputDocument, geom: Geometry) -> Metric:
    mtype = doc.metric.get("type")
    if mtype == "diagonal_unitary":
        return Metric.unitary(geom)
    if mtype == "diagonal":
        return Metric.diagonal(geom, doc.metric_values)
    if mtype == "omega":
        return Metric(geom, Form(doc.dimension, 2, doc.metric_values))
    return Metric.from_hermitian_matrix(geom, doc.metric_values)


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
    std = HypercomplexStructure.standard(alg.dim // 4)
    if geom.structure.I == std.I and geom.structure.J == std.J:
        hc = "standard"
    else:
        hc = {
            "I": [[scalar_str(x) for x in row] for row in geom.structure.I],
            "J": [[scalar_str(x) for x in row] for row in geom.structure.J],
        }
    terms = [
        [i + 1, j + 1, scalar_str(c.re), scalar_str(c.im)]
        for (i, j), c in sorted(metric.omega.terms.items())
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
        return {"kind": "float", "tolerance": field.tolerance}
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
