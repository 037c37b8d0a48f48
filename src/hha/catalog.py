"""Built-in corpus of explicit hypercomplex Lie algebras with expected verdicts.

Each entry carries the defining data in the exchange format, the printed
complex structure equations as golden values, and the expected fragment of
its classification report.  ``run_report`` asserts every expectation and is
the library's own acceptance gate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .classify import (
    Certificate,
    classify_metric,
    family_qsg_obstruction,
    qbal_nonexistence_certificate,
    qgau_family_symbolic_check,
)
from .constructions import joyce_build, joyce_su2_tori, joyce_su3_data
from .documents import InputDocument, load_document, parse_input
from .forms import Form, map_key, mask
from .hermitian import qpositivity_verdict
from .hypercomplex import Geometry
from .linalg import add_term
from .scalars import C_I, C_ONE, ComplexScalar, parse_scalar, rational, scalar_str


class UnknownEntryError(KeyError):
    pass


@dataclass
class CatalogEntry:
    name: str
    description: str
    input_data: dict | None
    expectations: dict
    builder: object = None  # for constructed entries without plain input data

    def document(self) -> InputDocument | None:
        if self.input_data is None:
            return None
        return parse_input(json.dumps(self.input_data))

    def load(self):
        if self.builder is not None:
            return self.builder()
        return load_document(self.document())


@dataclass
class CheckResult:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class EntryOutcome:
    name: str
    passed: bool
    checks: list
    report: object


def _eqs(data: dict) -> dict:
    return {str(k): [[i, j, c] for (i, j, c) in v] for k, v in data.items()}


def _entry_input(name, dim, eqs, metric=None, fld=None):
    doc = {
        "name": name,
        "dimension": dim,
        "scalar_field": fld or {"kind": "rational"},
        "structure_equations": _eqs(eqs),
        "hypercomplex": "standard",
        "metric": metric or {"type": "diagonal_unitary"},
    }
    return doc


# -- printed forms, as ordered wedge words ----------------------------------------
# each structure-equation term: (coefficient string, [("z" | "zb", index), ...]);
# each alpha term: (coefficient string, "i" or "", word)


def _wedge_words(geom: Geometry, degree: int, terms) -> Form:
    """The sum of c * (the ordered wedge of the word) over (c, word) pairs, a
    signed monomial per word: ``forms.map_key`` sends bit p to the p-th letter,
    counting the letters placed above it, and gives None on a repeat."""
    N, out = geom.N, {}
    for c, word in terms:
        letters = [(i - 1 if kind == "z" else N + i - 1, 1) for kind, i in word]
        signed = map_key(mask(range(len(word))), letters)
        if signed is not None:
            c = ComplexScalar._coerce(c)
            add_term(out, signed[0], -c if signed[1] else c)
    return Form(geom.algebra.dim, degree, out)


_H = "1/2"
_MH = "-1/2"


def _catalog_data():
    entries = {}

    # --- two-step nilpotent family carrying quaternionic balanced metrics -----
    qbal_equations = {
        "qbal12": (12, {
            9: [(1, 5, "1")], 10: [(1, 6, "1")], 11: [(1, 7, "1")], 12: [(1, 8, "1")],
        }, {
            5: [(_H, [("z", 1), ("z", 3)]), (_H, [("zb", 1), ("z", 3)])],
            6: [(_H, [("z", 1), ("z", 4)]), (_H, [("zb", 1), ("z", 4)])],
        }),
        "qbal16": (16, {
            13: [(1, 5, "1"), (1, 9, "1")],
            14: [(1, 6, "1"), (1, 10, "1")],
            15: [(1, 7, "1"), (1, 11, "1")],
            16: [(1, 8, "1"), (1, 12, "1")],
        }, {
            7: [(_H, [("z", 1), ("z", 3)]), (_H, [("zb", 1), ("z", 3)]),
                (_H, [("z", 1), ("z", 5)]), (_H, [("zb", 1), ("z", 5)])],
            8: [(_H, [("z", 1), ("z", 4)]), (_H, [("zb", 1), ("z", 4)]),
                (_H, [("z", 1), ("z", 6)]), (_H, [("zb", 1), ("z", 6)])],
        }),
        "qbal20": (20, {
            17: [(1, 5, "1"), (9, 13, "1")],
            18: [(1, 6, "1"), (9, 14, "1")],
            19: [(1, 7, "1"), (9, 15, "1")],
            20: [(1, 8, "1"), (9, 16, "1")],
        }, {
            9: [(_H, [("z", 1), ("z", 3)]), (_H, [("zb", 1), ("z", 3)]),
                (_H, [("z", 5), ("z", 7)]), (_H, [("zb", 5), ("z", 7)])],
            10: [(_H, [("z", 1), ("z", 4)]), (_H, [("zb", 1), ("z", 4)]),
                 (_H, [("z", 5), ("z", 8)]), (_H, [("zb", 5), ("z", 8)])],
        }),
    }
    for name, (dim, eqs, golden) in qbal_equations.items():
        entries[name] = CatalogEntry(
            name=name,
            description=f"{dim}-dim two-step nilpotent; the unitary metric kills "
                        "the derivative of the (n-1)-st power",
            input_data=_entry_input(name, dim, eqs),
            expectations={
                "flags": {
                    "q_balanced": True, "hkt": False, "hyperkaehler": False,
                    "q_strongly_gauduchon": True, "q_gauduchon": True,
                    "balanced": True, "gauduchon": True,
                },
                "abelian_structure": False,
                "einstein_factor": "0",
                "sl": {"alpha_zero": True},
                "structure_equations": golden,
                "class_obstruction": {"c1": "0", "gamma_sign": 0},
            },
        )

    # --- strongly Gauduchon family without quaternionic balanced metrics ------
    qsg_equations = {
        "qsg12": (12, {
            9: [(1, 3, "1")],
            10: [(1, 4, "1"), (7, 8, "1")],
            11: [(5, 7, "1")],
            12: [(3, 4, "-1"), (5, 8, "1")],
        }, {
            5: [(_H, [("z", 1), ("z", 2)]), (_H, [("zb", 1), ("z", 2)]),
                (_MH, [("z", 4), ("zb", 4)])],
            6: [(_H, [("z", 3), ("z", 4)]), (_H, [("zb", 3), ("z", 4)]),
                (_H, [("z", 2), ("zb", 2)])],
        }, 5),
        "qsg16": (16, {
            13: [(1, 3, "1")],
            14: [(1, 4, "1"), (7, 8, "1"), (11, 12, "1")],
            15: [(5, 7, "1"), (9, 11, "1")],
            16: [(3, 4, "-1"), (5, 8, "1"), (9, 12, "1")],
        }, {
            7: [(_H, [("z", 1), ("z", 2)]), (_H, [("zb", 1), ("z", 2)]),
                (_MH, [("z", 4), ("zb", 4)]), (_MH, [("z", 6), ("zb", 6)])],
            8: [(_H, [("z", 3), ("z", 4)]), (_H, [("zb", 3), ("z", 4)]),
                (_H, [("z", 5), ("z", 6)]), (_H, [("zb", 5), ("z", 6)]),
                (_H, [("z", 2), ("zb", 2)])],
        }, 7),
        "qsg20": (20, {
            17: [(1, 3, "1"), (5, 7, "1")],
            18: [(1, 4, "1"), (5, 8, "1"), (11, 12, "1"), (15, 16, "1")],
            19: [(9, 11, "1"), (13, 15, "1")],
            20: [(3, 4, "-1"), (7, 8, "-1"), (9, 12, "1"), (13, 16, "1")],
        }, {
            9: [(_H, [("z", 1), ("z", 2)]), (_H, [("zb", 1), ("z", 2)]),
                (_H, [("z", 3), ("z", 4)]), (_H, [("zb", 3), ("z", 4)]),
                (_MH, [("z", 6), ("zb", 6)]), (_MH, [("z", 8), ("zb", 8)])],
            10: [(_H, [("z", 5), ("z", 6)]), (_H, [("zb", 5), ("z", 6)]),
                 (_H, [("z", 7), ("z", 8)]), (_H, [("zb", 7), ("z", 8)]),
                 (_H, [("z", 2), ("zb", 2)]), (_H, [("z", 4), ("zb", 4)])],
        }, 9),
    }
    for name, (dim, eqs, golden, psi_index) in qsg_equations.items():
        entries[name] = CatalogEntry(
            name=name,
            description=f"{dim}-dim nilpotent; unitary metric is strongly "
                        "Gauduchon in the quaternionic sense, and a positive "
                        "exact certificate rules out quaternionic balanced "
                        "metrics altogether",
            input_data=_entry_input(name, dim, eqs),
            expectations={
                "flags": {
                    "q_strongly_gauduchon": True, "q_balanced": False,
                    "q_gauduchon": True, "balanced": False, "gauduchon": True,
                    "hkt": False,
                },
                "abelian_structure": False,
                "einstein_factor": "0",
                "sl": {"alpha_zero": True},
                "structure_equations": golden,
                "qsg_witness": True,
                "qbal_certificate_psi": psi_index,
                "class_obstruction": {"c1": "0", "gamma_sign": -1},
            },
        )

    # --- graded family: q-Gauduchon only -------------------------------------
    for n in range(2, 7):
        dim = 4 * n
        name = f"qgau{dim}"
        eqs = {
            dim - 2: [(4 * k - 3, 4 * k - 2, "1") for k in range(1, n)],
            dim - 1: [(4 * k - 3, 4 * k - 1, "1") for k in range(1, n)],
            dim: [(4 * k - 3, 4 * k, "1") for k in range(1, n)],
        }
        golden = {
            2 * n - 1: [(_MH, [("z", 2 * k - 1), ("zb", 2 * k - 1)])
                        for k in range(1, n)],
            2 * n: ([(_H, [("z", 2 * k - 1), ("z", 2 * k)]) for k in range(1, n)]
                    + [(_H, [("zb", 2 * k - 1), ("z", 2 * k)]) for k in range(1, n)]),
        }
        entries[name] = CatalogEntry(
            name=name,
            description=f"{dim}-dim graded nilpotent family member; every "
                        "invariant metric is q-Gauduchon but none is "
                        "q-strongly-Gauduchon",
            input_data=_entry_input(name, dim, eqs),
            expectations={
                "flags": {
                    "q_gauduchon": True, "q_strongly_gauduchon": False,
                    "q_balanced": False, "hkt": False, "gauduchon": True,
                },
                "einstein_factor": "0",
                "sl": {"alpha_zero": True},
                "structure_equations": golden,
                "qbal_certificate_psi": 2 * n,
                "qsg_family_obstruction": True,
                "qgau_for_every_metric": True,
                "class_obstruction": {"c1": "0", "gamma_sign": -1},
            },
        )

    # --- solvable quartet ------------------------------------------------------
    entries["solv_aff_c"] = CatalogEntry(
        name="solv_aff_c",
        description="affine motions of the complex line; diagonal metric is "
                    "Ricci-type flat",
        input_data=_entry_input("solv_aff_c", 4, {
            1: [(1, 4, "-1"), (2, 3, "1")],
            3: [(1, 2, "1"), (3, 4, "-1")],
        }),
        expectations={
            "flags": {"hkt": True},
            "einstein_factor": "0",
            "alpha": [("-1", "i", [("z", 2)])],
            "sl": {"alpha_zero": False, "del_j_alpha_zero": True},
        },
    )
    entries["solv_rank1"] = CatalogEntry(
        name="solv_rank1",
        description="rank-one solvable algebra of real hyperbolic type",
        input_data=_entry_input("solv_rank1", 4, {
            2: [(1, 2, "-1")],
            3: [(1, 3, "-1")],
            4: [(1, 4, "-1")],
        }),
        expectations={
            "flags": {"hkt": True},
            "einstein_factor": "-1/2",
            "alpha": [("-1", "", [("z", 1)])],
            "sl": {"alpha_zero": False},
        },
    )
    entries["solv_third"] = CatalogEntry(
        name="solv_third",
        description="rank-one solvable algebra of complex hyperbolic type; "
                    "the e3^e4 coefficient 1/2 is forced by integrability",
        input_data=_entry_input("solv_third", 4, {
            2: [(1, 2, "-1"), (3, 4, "1/2")],
            3: [(1, 3, "-1/2")],
            4: [(1, 4, "-1/2")],
        }),
        expectations={
            "flags": {"hkt": True},
            "einstein_factor": "-3/16",
            "alpha": [("-3/4", "", [("z", 1)])],
            "sl": {"alpha_zero": False},
        },
    )

    # --- compact-type builders ---------------------------------------------------
    entries["joyce_su2"] = CatalogEntry(
        name="joyce_su2",
        description="circle times the 3-sphere group with the block metric; "
                    "Einstein factor one",
        input_data=None,
        builder=lambda: _joyce_loader(joyce_su2_tori(1)),
        expectations={
            "flags": {"hkt": True, "strong_hkt": True},
            "einstein_factor": "1",
            "sl": {"alpha_zero": False, "del_j_alpha_zero": False},
            "skt": {"I": True, "J": True, "K": True},
        },
    )
    entries["joyce_su2xsu2"] = CatalogEntry(
        name="joyce_su2xsu2",
        description="two-torus times a product of two 3-sphere groups",
        input_data=None,
        builder=lambda: _joyce_loader(joyce_su2_tori(2)),
        expectations={
            "flags": {"hkt": True, "strong_hkt": True, "q_balanced": True},
            "einstein_factor": "1",
            "sl": {"alpha_zero": False, "del_j_alpha_zero": False},
            "dja_psd_nonzero": True,
        },
    )
    entries["joyce_su3"] = CatalogEntry(
        name="joyce_su3",
        description="the 8-dimensional compact simple group with one "
                    "quaternionic module block",
        input_data=None,
        builder=lambda: _joyce_loader(joyce_su3_data()),
        expectations={
            "flags": {"hkt": True, "strong_hkt": True, "q_balanced": True},
            "einstein_factor": "1",
            "semisimple": True,
            "dja_psd_nonzero": True,
        },
    )

    # --- flat controls -------------------------------------------------------------
    for n in range(1, 5):
        dim = 4 * n
        name = f"abelian{dim}"
        entries[name] = CatalogEntry(
            name=name,
            description=f"abelian R^{dim} with the flat metric",
            input_data=_entry_input(name, dim, {}),
            expectations={
                "flags": {
                    "hyperkaehler": True, "hkt": True, "strong_hkt": True,
                    "q_balanced": True, "q_strongly_gauduchon": True,
                    "q_gauduchon": True, "balanced": True, "gauduchon": True,
                },
                "einstein_factor": "0",
                "dja_zero": True,
                "sl": {"alpha_zero": True, "d_eta_zero": True,
                       "del_j_alpha_zero": True},
                "class_obstruction": {"c1": "0", "gamma_sign": 0},
            },
        )
    return entries


def _joyce_loader(data):
    res = joyce_build(data)
    return res.geometry, res.metric


_ENTRIES = None


def _registry():
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _catalog_data()
    return _ENTRIES


def entry_names():
    return sorted(_registry())


def get_example(name: str) -> CatalogEntry:
    reg = _registry()
    if name not in reg:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(reg))}"
        )
    return reg[name]


def check_entry(entry: CatalogEntry) -> EntryOutcome:
    """Load an entry, classify it, and assert every expectation."""
    geom, metric = entry.load()
    checks = []
    exp = entry.expectations
    report = classify_metric(metric)

    if "structure_equations" in exp:
        for idx, terms in exp["structure_equations"].items():
            expect = _wedge_words(geom, 2, ((parse_scalar(c), word) for c, word in terms))
            got = geom.frame.d(geom.zeta(idx))
            checks.append(CheckResult(
                f"d z{idx} matches the printed equation", got == expect,
                "" if got == expect else geom.frame.format(got),
            ))

    for name, want in exp.get("flags", {}).items():
        got = report.flag(name)
        checks.append(CheckResult(
            f"flag {name} == {want}", got == want,
            report.flags[name].residual if got != want else "",
        ))

    for name, want in exp.get("skt", {}).items():
        checks.append(CheckResult(
            f"skt[{name}] == {want}", report.skt.get(name) == want))

    if "abelian_structure" in exp:
        got = geom.is_abelian()
        checks.append(CheckResult(
            f"abelian structure == {exp['abelian_structure']}",
            got == exp["abelian_structure"]))

    if "einstein_factor" in exp:
        want = parse_scalar(exp["einstein_factor"])
        lam = report.einstein_factor
        checks.append(CheckResult(
            f"einstein factor == {exp['einstein_factor']}",
            lam is not None and lam == want,
            "" if lam == want else f"got {lam}"))

    if "alpha" in exp:
        expect = _wedge_words(geom, 1, (((C_I if imag == "i" else C_ONE) * parse_scalar(c), word)
                                        for c, imag, word in exp["alpha"]))
        got = metric.canonical_forms().alpha
        checks.append(CheckResult(
            "alpha matches the printed value", got == expect,
            "" if got == expect else geom.frame.format(got)))

    for name, want in exp.get("sl", {}).items():
        checks.append(CheckResult(
            f"sl[{name}] == {want}", report.sl_flags.get(name) == want))

    if exp.get("qsg_witness"):
        ok = "q_strongly_gauduchon" in report.witnesses
        detail = ""
        if ok:
            w = report.witnesses["q_strongly_gauduchon"]
            ok = geom.frame.del_j(w) == metric.del_power
            detail = geom.frame.format(w)
        checks.append(CheckResult("stored twisted-exactness witness verifies",
                                  ok, detail))

    if "qbal_certificate_psi" in exp:
        psi = geom.zeta(exp["qbal_certificate_psi"]) * rational(2)
        cert = qbal_nonexistence_certificate(geom, psi)
        ok = isinstance(cert, Certificate)
        checks.append(CheckResult(
            "nonexistence certificate for quaternionic balanced metrics accepted",
            ok, "" if ok else cert.reason))

    if exp.get("qsg_family_obstruction"):
        checks.append(CheckResult(
            "twisted-exactness obstruction: a q-sG metric would be q-balanced",
            family_qsg_obstruction(geom)))

    if exp.get("qgau_for_every_metric"):
        checks.append(CheckResult(
            "every invariant metric is q-Gauduchon: del del_J vanishes on "
            "(2n-2,0)-forms", qgau_family_symbolic_check(geom)))

    if exp.get("dja_psd_nonzero"):
        dja = metric.curvature().del_j_alpha
        verdict = qpositivity_verdict(geom, dja)
        ok = verdict in ("positive", "semipositive") and not dja.is_zero()
        checks.append(CheckResult(
            "del_J alpha is exactly PSD and nonzero", ok, verdict))

    if exp.get("dja_zero"):
        checks.append(CheckResult(
            "del_J alpha vanishes", metric.curvature().del_j_alpha.is_zero()))

    if exp.get("semisimple"):
        checks.append(CheckResult(
            "algebra is semisimple", geom.algebra.semisimple))

    if "class_obstruction" in exp and report.obstruction is not None:
        want = exp["class_obstruction"]
        ob = report.obstruction
        ok = scalar_str(ob.c1) == want["c1"] and \
            ob.gamma_bis_unit.sign() == want["gamma_sign"]
        checks.append(CheckResult(
            "conformal-class constants match", ok,
            f"c1 = {ob.c1}, Gamma = {ob.gamma_bis_unit}"))

    passed = all(c.passed for c in checks)
    return EntryOutcome(entry.name, passed, checks, report)


def run_report(names=None):
    """Classify the requested entries (all by default) against expectations."""
    if names is None or names == "all":
        names = entry_names()
    outcomes = []
    for name in sorted(names):
        outcomes.append(check_entry(get_example(name)))
    return outcomes
