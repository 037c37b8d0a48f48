"""One pass over each workload's input set, with every verdict checked.

Calls under measurement go through module attributes (``catalog.run_report``,
``cli.main``, ``constructions.direct_sum``...) so that the tracer, which
rebinds those attributes, sees them.  The serialisation used only for the
report digests is bound here at import time, before any tracer is installed,
so it never shows up in a layer's spans.
"""
from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from hha import catalog, classify, cli, constructions, documents
from hha.documents import geometry_to_input as _geometry_to_input
from hha.documents import parse_input as _parse_input
from hha.documents import report_document as _report_document
from hha.documents import report_json as _report_json

import oracle


@dataclass
class Verdict:
    input_id: str
    seconds: float
    problems: list
    report: bytes = b""
    mark: object = None       # the clock's mark, for scaling ``seconds`` later


@dataclass
class PassContext:
    """What a pass needs: its inputs and the oracle it is judged by."""
    workload: str
    seed: int
    paths: list
    known: dict = field(default_factory=lambda: oracle.KNOWN_ANSWERS)
    digests: dict = field(default_factory=oracle.load_digests)
    check_digests: bool = True
    on_input: object = None   # called with each input's id before it starts
    clock: object = None      # times each verdict (calibrate.Speedometer.measure)

    def starting(self, input_id: str):
        if self.on_input is not None:
            self.on_input(input_id)


def _wall_clock(fn):
    start = time.perf_counter()
    return fn(), time.perf_counter() - start, None


def _timed(ctx: PassContext, fn):
    """Run fn under the context's clock; any exception is a failed verdict,
    reported by name.  Returns (value, seconds, error, mark)."""
    def guarded():
        try:
            return fn(), None
        except Exception as exc:  # every fault, ConsistencyError included, fails
            return None, f"{type(exc).__name__}: {exc}"

    (out, err), seconds, mark = (ctx.clock or _wall_clock)(guarded)
    return out, seconds, err, mark


def _report_bytes(report, doc=None, frame=None) -> bytes:
    return _report_json(_report_document(report, doc, frame=frame)).encode()


def _geometry_bytes(name, geom, metric) -> bytes:
    return json.dumps(_geometry_to_input(name, geom, metric), sort_keys=True).encode()


def _finish(ctx: PassContext, input_id: str, seconds: float, mark, problems: list,
            report: bytes, seed_dependent: bool) -> Verdict:
    if ctx.check_digests and report:
        problems = problems + oracle.check_digest(
            ctx.digests, ctx.workload, ctx.seed, input_id, report, seed_dependent)
    return Verdict(input_id, seconds, problems, report, mark)


def _flags(report) -> dict:
    return {name: fr.value for name, fr in report.flags.items()}


def catalog_pass(ctx: PassContext) -> list:
    """``hha catalog run all``, one entry's check at a time."""
    verdicts = []
    for name in catalog.entry_names():
        ctx.starting(name)
        outcome, seconds, err, mark = _timed(ctx, lambda: catalog.run_report([name])[0])
        report = b""
        if err:
            problems = [err]
        else:
            problems = [f"expectation failed: {c.label}"
                        for c in outcome.checks if not c.passed]
            problems += oracle.check_flags(_flags(outcome.report),
                                           oracle.family(name), ctx.known)
            data = catalog.get_example(name).input_data
            doc = _parse_input(json.dumps(data)) if data is not None else None
            report = _report_bytes(outcome.report, doc)
        verdicts.append(_finish(ctx, name, seconds, mark, problems, report, False))
    return verdicts


def classify_pass(ctx: PassContext) -> list:
    """``hha classify FILE --format json`` on every generated input."""
    verdicts = []
    for path in ctx.paths:
        ctx.starting(path.stem)
        out, err_out = io.StringIO(), io.StringIO()

        def run():
            with redirect_stdout(out), redirect_stderr(err_out):
                return cli.main(["classify", str(path), "--format", "json"])

        code, seconds, err, mark = _timed(ctx, run)
        report = out.getvalue().encode()
        if err:
            problems = [err]
        elif code != 0:
            problems = [f"exit code {code}: {err_out.getvalue().strip()}"]
        else:
            flags = {k: v["value"] for k, v in json.loads(report)["flags"].items()}
            problems = oracle.check_flags(flags, oracle.family(path.stem), ctx.known)
        verdicts.append(_finish(ctx, path.stem, seconds, mark, problems, report, True))
    return verdicts


def _load(ctx: PassContext, name: str):
    path = next(p for p in ctx.paths if p.stem == name)
    return documents.load_document(documents.parse_input(path.read_text(encoding="utf-8")))


def _glue(ctx):
    ga, ma = _load(ctx, "qbal12")
    gb, mb = _load(ctx, "qbal12")
    res = constructions.arroyo_nicolini(ga, ma, 2, gb, mb, 2)
    problems = [] if res.iff_flags_hold() else ["flag closure of the gluing fails"]
    problems += oracle.check_flags(_flags(res.output_report), "nilpotent", ctx.known)
    return problems, lambda: (_report_bytes(res.output_report, frame=res.geometry.frame)
                              + _geometry_bytes("glued", res.geometry, res.metric))


def _sum(ctx):
    ga, ma = _load(ctx, "qbal12")
    gb, mb = _load(ctx, "qsg12")
    res = constructions.direct_sum(ga, ma, gb, mb)
    problems = oracle.check_flags(res.propagated_flags, "nilpotent", ctx.known)
    return problems, lambda: (json.dumps(res.propagated_flags, sort_keys=True).encode()
                              + _geometry_bytes("sum", res.geometry, res.metric))


def _extend(ctx):
    g, m = _load(ctx, "joyce_su2")
    rho = constructions.sp1_spin_rep(g.algebra, su2_indices=(1, 2, 3))
    res = constructions.barberis_fino(g, m, rho)
    problems = []
    if not (res.rep_is_skew and res.pullback_verified):
        problems.append("canonical forms not verified to pull back")
    if not res.output_report.flag("strong_hkt"):
        problems.append("extension of a strong HKT base is not strong HKT")
    return problems, lambda: (_report_bytes(res.output_report, frame=res.geometry.frame)
                              + _geometry_bytes("extension", res.geometry, res.metric))


def _joyce(ctx):
    res = constructions.joyce_build(constructions.joyce_su3_data())
    report = classify.classify_metric(res.metric)
    problems = [] if report.flag("strong_hkt") else ["joyce_su3 is not strong HKT"]
    if str(res.einstein_factor) != "1":
        problems.append(f"Einstein factor {res.einstein_factor}, expected 1")
    return problems, lambda: (_report_bytes(report, frame=res.geometry.frame)
                              + _geometry_bytes("joyce_su3", res.geometry, res.metric))


CONSTRUCTIONS = (
    ("arroyo_nicolini.qbal12.qbal12", _glue),
    ("direct_sum.qbal12.qsg12", _sum),
    ("barberis_fino.joyce_su2.spin", _extend),
    ("joyce_build.su3", _joyce),
)


def construct_pass(ctx: PassContext) -> list:
    """The four fixed constructions, each with its round-trip properties.

    Each builder returns its problems and a closure that serialises its
    output for the digest, called after the verdict's clock stops.
    """
    verdicts = []
    for input_id, build in CONSTRUCTIONS:
        ctx.starting(input_id)
        out, seconds, err, mark = _timed(ctx, lambda: build(ctx))
        if err:
            problems, report = [err], b""
        else:
            problems, serialise = out
            report = serialise()
        verdicts.append(_finish(ctx, input_id, seconds, mark, problems, report, False))
    return verdicts


PASSES = {
    "catalog": catalog_pass,
    "dense": classify_pass,
    "quadratic": classify_pass,
    "construct": construct_pass,
}
