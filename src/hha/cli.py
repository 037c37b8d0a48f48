"""Command-line front end.

Exit codes: 0 success or expectations met; 1 verdict mismatch or rejected
certificate; 2 input or precondition error; 3 internal fault (a failed
consistency audit or any other error that bad input cannot cause).  JSON
output is byte-stable for identical input.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import catalog as catalog_mod
from .classify import (
    Certificate,
    GauduchonRequiredError,
    PREDICATES,
    classify_metric,
    qbal_nonexistence_certificate,
    search_metrics,
)
from .constructions import (
    ConstructionError,
    QuaternionicRep,
    arroyo_nicolini,
    barberis_fino,
    joyce_build,
    joyce_su2_tori,
    joyce_su3_data,
    sp1_spin_rep,
)
from .documents import (
    InputError,
    default_field_from_env,
    geometry_to_input,
    load_document,
    parse_input,
    report_document,
    report_json,
    report_text,
)
from .forms import Form
from .hermitian import MetricError, QRealError
from .hypercomplex import IntegrabilityError, SpherePoint, StructureError
from .liealg import AlgebraError, JacobiError
from .scalars import FLOAT_TOLERANCE, ComplexScalar, ScalarError, ScalarField, parse_scalar


INPUT_FAULTS = (InputError, JacobiError, AlgebraError, IntegrabilityError,
                StructureError, MetricError, QRealError, ConstructionError)


def _load_file(path: str, float_mode: bool = False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(path, f"cannot read the file: {exc}") from None
    default = default_field_from_env(os.environ.get("HHA_DEFAULT_FIELD"))
    doc = parse_input(text, default_field=default)
    if float_mode:
        raw = dict(doc.raw)
        raw["scalar_field"] = {"kind": "float", "tolerance": FLOAT_TOLERANCE}
        doc = parse_input(json.dumps(raw))
    geom, metric = load_document(doc)
    return doc, geom, metric


def _parse_sphere_point(text: str) -> SpherePoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("--pair", "sphere point needs three components")
    try:
        return SpherePoint(*(parse_scalar(p) for p in parts))
    except (ScalarError, StructureError) as exc:   # a bad scalar, or off the unit sphere
        raise InputError("--pair", str(exc)) from exc


def _check_pair_field(field: ScalarField, p: SpherePoint, q: SpherePoint) -> None:
    """Refuse a pair that does not lie in one field with the document: over
    Q(sqrt(d)) its components lie in it, and over Q they share one radicand.
    The float field takes every pair."""
    if field.kind == "float":
        return
    d = field.d
    for s in (p.a, p.b, p.c, q.a, q.b, q.c):
        if s.d and s.d != d:
            if d:
                where = ("the document's field" if field.d
                         else "the field of the components before it")
                raise InputError("--pair", f"component {s} does not lie in Q(sqrt({d})), {where}")
            d = s.d


def _parse_indices(option: str, text: str) -> list:
    """Comma-separated integers of ASCII digits."""
    parts = [x.strip() for x in text.split(",")]
    try:
        if all(x.isascii() and x.isdigit() for x in parts):
            return [int(x) for x in parts]
    except ValueError:      # more digits than int() converts
        pass
    raise InputError(option, f"expected comma-separated integers, got {text!r}")


_WITNESS_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*(?:\((?P<paren>[^()]*(?:\([^()]*\)[^()]*)*)\)\s*\*\s*)?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?(?P<imag>i\s*\*\s*)?z(?P<idx>\d+)\s*",
    re.ASCII,
)


def parse_witness(expr: str, geom) -> Form:
    """Parse a (1,0)-form expression like "2*z5" or "(1/2)*i*z3 - z1"."""
    pos = 0
    out = Form.zero(geom.algebra.dim, 1)
    expr = expr.strip()
    if not expr:
        raise InputError("--witness", "empty expression")
    while pos < len(expr):
        m = _WITNESS_TERM.match(expr, pos)
        if not m or m.end() == pos:
            raise InputError("--witness", f"cannot parse {expr!r} at offset {pos}")
        coeff_text = m.group("paren") or m.group("coef") or "1"
        try:
            c = ComplexScalar(parse_scalar(coeff_text))
        except ScalarError as exc:
            raise InputError("--witness", str(exc)) from None
        if m.group("imag"):
            c = c.times_i()
        if m.group("sign") == "-":
            c = -c
        idx = int(m.group("idx"))
        if not (1 <= idx <= geom.N):
            raise InputError("--witness", f"z{idx} out of range")
        out = out + geom.zeta(idx) * c
        pos = m.end()
    return out


def _emit_report(report, doc, geom, fmt: str, pair: str = "standard"):
    document = report_document(report, doc, frame=geom.frame, pair=pair)
    if fmt == "json":
        sys.stdout.write(report_json(document))
    else:
        sys.stdout.write(report_text(document))


def cmd_check(args) -> int:
    doc, geom, metric = _load_file(args.file)
    alg = geom.algebra
    print(f"{doc.name}: valid input")
    print(f"  dimension {alg.dim} (n = {geom.n}), field {alg.field!r}")
    print(f"  nilpotent: {alg.nilpotent} (step {alg.nilpotency_step}), "
          f"solvable: {alg.solvable}, unimodular: {alg.unimodular}")
    print(f"  structure integrable, metric q-real and q-positive; "
          f"pf = {metric.pf}")
    return 0


def cmd_classify(args) -> int:
    doc, geom, metric = _load_file(args.file, float_mode=args.float)
    pair = "standard"
    if args.pair:
        halves = args.pair.split(";")
        if len(halves) != 2:
            raise InputError("--pair", "expected 'a,b,c;a,b,c'")
        p = _parse_sphere_point(halves[0])
        q = _parse_sphere_point(halves[1])
        _check_pair_field(doc.field, p, q)
        if not p.dot(q).is_zero():
            raise InputError("--pair", "sphere points must be orthogonal")
        rotated = geom.rotated(p, q)
        metric = metric.in_rotated_frame(rotated)
        geom = rotated
        pair = args.pair
    report = classify_metric(metric)
    _emit_report(report, doc, geom, args.format, pair=pair)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_mod.entry_names():
            entry = catalog_mod.get_example(name)
            print(f"{name:<14} {entry.description}")
        return 0
    if args.action == "export":
        entry = catalog_mod.get_example(args.name)
        if entry.input_data is not None:
            data = entry.input_data
        else:
            geom, metric = entry.load()
            data = geometry_to_input(entry.name, geom, metric)
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
        return 0
    # run
    names = None if args.name in (None, "all") else [args.name]
    outcomes = catalog_mod.run_report(names)
    failed = 0
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{outcome.name:<14} {status}")
        if args.verbose or not outcome.passed:
            for c in outcome.checks:
                mark = "ok" if c.passed else "FAIL"
                detail = f"  [{c.detail}]" if c.detail and not c.passed else ""
                print(f"    {mark:<4} {c.label}{detail}")
        if not outcome.passed:
            failed += 1
    print(f"{len(outcomes) - failed}/{len(outcomes)} entries passed")
    return 1 if failed else 0


# input files each construction reads
CONSTRUCT_INPUTS = {"an": 2, "bf": 1, "joyce": 0}
# the options of construct that not every kind reads, with the kind that does
CONSTRUCT_OPTIONS = (("e1", "construct an"), ("e2", "construct an"), ("rep", "construct bf"),
                     ("k", "construct bf --rep zero"), ("su2", "construct bf --rep spin"),
                     ("blocks", "construct joyce"), ("su3", "construct joyce"))


def _check_construct_options(args) -> None:
    """Refuse, at its name, an option given to a kind that does not read it."""
    reads = {"an": ("e1", "e2"), "bf": ("rep", "su2" if args.rep == "spin" else "k"),
             "joyce": ("blocks", "su3")}[args.kind]
    for name, reader in CONSTRUCT_OPTIONS:
        if name not in reads and getattr(args, name) not in (None, False):
            raise InputError(f"--{name}", f"only {reader} reads this option")


def _su2_indices(algebra, text: str) -> tuple:
    """The 0-based triple (a, b, c) of ``--su2``: three distinct basis
    indices in 1..dim with an e_c part in [e_a, e_b]."""
    su2 = _parse_indices("--su2", text)
    if len(su2) != 3:
        raise InputError("--su2", "expected three indices")
    if not all(1 <= i <= algebra.dim for i in su2):
        raise InputError("--su2", f"indices must lie in 1..{algebra.dim}, got {text!r}")
    if len(set(su2)) != 3:
        raise InputError("--su2", f"expected three distinct indices, got {text!r}")
    a, b, c = su2
    if c - 1 not in algebra.bracket_basis(a - 1, b - 1):
        raise InputError("--su2", f"[e{a}, e{b}] has no e{c} part, so the indices "
                         "do not carry an su(2) block")
    return a - 1, b - 1, c - 1


def cmd_construct(args) -> int:
    count = CONSTRUCT_INPUTS[args.kind]
    if len(args.inputs) != count:
        raise InputError(f"construct {args.kind}",
                         f"expected {count} input file(s), got {len(args.inputs)}")
    _check_construct_options(args)
    k = 1 if args.k is None else args.k
    if k < 1:
        raise InputError("--k", f"expected a positive integer, got {k}")
    if args.kind == "an":
        _, ga, ma = _load_file(args.inputs[0])
        _, gb, mb = _load_file(args.inputs[1])
        e1, e2 = (2 if e is None else e for e in (args.e1, args.e2))
        for option, index, g in (("--e1", e1, ga), ("--e2", e2, gb)):
            if not 1 <= index <= g.algebra.dim:
                raise InputError(option, f"basis index {index} out of range 1..{g.algebra.dim}")
        res = arroyo_nicolini(ga, ma, e1, gb, mb, e2)
        print(f"glued algebra: dimension {res.geometry.algebra.dim}")
        print(f"flag closure holds: {res.iff_flags_hold()}")
    elif args.kind == "bf":
        _, gbase, mbase = _load_file(args.inputs[0])
        if args.rep != "spin":
            rho = QuaternionicRep.zero(gbase.algebra, k)
        else:
            su2 = _su2_indices(gbase.algebra, "2,3,4" if args.su2 is None else args.su2)
            rho = sp1_spin_rep(gbase.algebra, su2_indices=su2)
        res = barberis_fino(gbase, mbase, rho)
        print(f"extended algebra: dimension {res.geometry.algebra.dim}")
        print(f"representation skew: {res.rep_is_skew}; "
              f"canonical forms pulled back: {res.pullback_verified}")
    else:  # joyce
        if args.su3:
            if args.blocks:
                raise InputError("--blocks", "give either --blocks or --su3, not both")
            data = joyce_su3_data()
        elif args.blocks:
            ds = _parse_indices("--blocks", args.blocks)
            if any(d != 0 for d in ds):
                raise InputError(
                    "--blocks",
                    "only module-free blocks ship built-in; supply module "
                    "bracket tables through the library interface",
                )
            data = joyce_su2_tori(len(ds))
        else:
            raise InputError("construct joyce", "need --blocks or --su3")
        res = joyce_build(data)
        print(f"block algebra: dimension {res.geometry.algebra.dim}, "
              f"einstein factor {res.einstein_factor}")
    geom, metric = res.geometry, res.metric
    # the report is that of the document --out writes, its name and field included
    text = json.dumps(geometry_to_input(args.name or "constructed", geom, metric),
                      sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError("--out", f"cannot write the file: {exc}") from None
        print(f"wrote {args.out}")
    _emit_report(classify_metric(metric), parse_input(text), geom, args.format)
    return 0


def cmd_certify_qbal(args) -> int:
    doc, geom, metric = _load_file(args.file)
    psi = parse_witness(args.witness, geom)
    result = qbal_nonexistence_certificate(geom, psi)
    if isinstance(result, Certificate):
        print("certificate ACCEPTED: no invariant quaternionic balanced metric exists")
        for line in result.transcript:
            print(f"  {line}")
        return 0
    print(f"certificate REJECTED: {result.reason}")
    return 1


def cmd_search(args) -> int:
    doc, geom, metric = _load_file(args.file)
    if args.predicate not in PREDICATES:
        raise InputError("--predicate",
                         f"unknown predicate; choose from {sorted(PREDICATES)}")
    if args.height < 1:
        raise InputError("--height", f"expected a positive integer, got {args.height}")
    if args.budget < 1:
        raise InputError("--budget", f"expected a positive integer, got {args.budget}")
    res = search_metrics(geom, args.predicate, family=args.family,
                         height=args.height, budget=args.budget)
    if res.witness is not None:
        print(f"witness found after {res.tested} metrics:")
        print(f"  Omega = {geom.frame.format(res.witness.omega)}")
    else:
        status = "exhausted" if res.exhausted else "budget reached"
        print(f"no witness ({status}; {res.tested} metrics tested)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (main may run many times in one)."""
    parser = argparse.ArgumentParser(
        prog="hha",
        description="exact invariant exterior calculus and special-metric "
                    "classification for hypercomplex Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an input file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify the metric of an input file")
    p.add_argument("file")
    p.add_argument("--pair", help="rotated pair 'a,b,c;a,b,c' (exact scalars)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--float", action="store_true",
                   help="re-run in the float cross-check backend")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("catalog", help="work with the built-in corpus")
    p.add_argument("action", choices=("list", "run", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("construct", help="run a construction")
    p.add_argument("kind", choices=("an", "bf", "joyce"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--e1", type=int, help="gluing index in the first factor (default 2)")
    p.add_argument("--e2", type=int, help="gluing index in the second factor (default 2)")
    p.add_argument("--rep", choices=("zero", "spin"), help="representation (default zero)")
    p.add_argument("--k", type=int, help="blocks of the zero representation (default 1)")
    p.add_argument("--su2", help="1-based indices of the su(2) triple for the spin "
                   "representation (default 2,3,4)")
    p.add_argument("--blocks", help="comma list of module dimensions, e.g. 0,0")
    p.add_argument("--su3", action="store_true")
    p.add_argument("--out", help="write the constructed data as an input file")
    p.add_argument("--name")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify-qbal",
                       help="verify a nonexistence certificate for q-balanced metrics")
    p.add_argument("file")
    p.add_argument("--witness", required=True,
                   help="(1,0)-form expression, e.g. '2*z5'")
    p.set_defaults(func=cmd_certify_qbal)

    p = sub.add_parser("search", help="grid search for a metric with a predicate")
    p.add_argument("file")
    p.add_argument("--predicate", required=True)
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--family", choices=("diagonal", "full"), default="diagonal")
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except catalog_mod.UnknownEntryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GauduchonRequiredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INPUT_FAULTS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not caused by the input: report it apart from input errors, with
        # the traceback that locates the fault (imported here, off the
        # start-up path of every run)
        import traceback
        print(f"error: internal fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
