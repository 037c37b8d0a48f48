"""The known equivalents that classification does not run, as oracles.

``classify_metric`` audits each flag against exactly one second route:
balanced against alpha + beta = 0, Gauduchon and q-Gauduchon against their
scalar equivalents (``classify._characterisation_routes``), and the Einstein
factor against the (1,1) reformulation (``classify.einstein_factor``).  The
other equivalents are checked here against the flags and the factor that
the report gives:

- balanced exactly when del(Omega^{n-1} ^ conj(Omega^n)) = 0;
- Gauduchon exactly when del del_J(Omega^{n-1} ^ conj(Omega^n)) = 0;
- balanced exactly when the Lee form theta vanishes;
- s^Ch = 2 n lambda whenever the Einstein factor lambda exists.

The mixed power is Omega^{n-1} wedged with the one monomial conj(Omega^n)
(``test_power_oracles.wedge_mixed_power``).  The oracles run on every
catalog entry, on the seed-1 ``dense`` and ``quadratic`` benchmark inputs,
on random metrics over direct sums and gluings of catalog entries, which
take both values of each flag, and on Einstein metrics of the block builder
with drawn weights and scales, whose factors are not zero.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_power_oracles import construction_metrics, wedge_mixed_power

from hha.catalog import entry_names, get_example
from hha.classify import classify_metric, equivalence_audit
from hha.constructions import JoyceBlock, JoyceData, joyce_build
from hha.documents import load_document, parse_input
from hha.hermitian import Metric
from hha.scalars import ScalarField, rational


def assert_oracles_agree(m: Metric):
    """Each oracle against the report's flag or factor."""
    fr = m.geometry.frame
    report = classify_metric(m, flags_only=True)
    balanced = report.flag("balanced")
    mixed = wedge_mixed_power(m)
    assert fr.del_(mixed).is_zero() == balanced
    assert fr.del_(fr.del_j(mixed)).is_zero() == report.flag("gauduchon")
    assert m.canonical_forms().theta.is_zero() == balanced
    if report.einstein_factor is not None:
        assert report.s_ch == report.einstein_factor * rational(2 * m.n)


def test_each_audited_flag_runs_exactly_two_routes():
    """The defining equation and one second route, no more."""
    for name in entry_names():
        audit = equivalence_audit(get_example(name).load()[1])
        assert {flag: len(routes) for flag, routes in audit.items()} == {
            "balanced": 2, "gauduchon": 2, "q_gauduchon": 2}, name


@pytest.mark.parametrize("name", entry_names())
def test_catalog_metrics_match_the_oracles(name):
    assert_oracles_agree(get_example(name).load()[1])


def test_the_seeded_benchmark_inputs_match_the_oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import inputs
    docs = inputs.dense_documents(1) + inputs.quadratic_documents(1)
    assert len(docs) == 24
    for doc in docs:
        assert_oracles_agree(load_document(parse_input(json.dumps(doc)))[1])


_POSITIVE = st.builds(rational, st.integers(1, 4), st.integers(1, 4))


@st.composite
def scaled_joyce_metrics(draw):
    """An Einstein metric with a drawn factor: the metric of the block builder
    on one to three su(2) blocks of one drawn weight mu, scaled by a drawn
    constant."""
    mu = draw(_POSITIVE)
    blocks = [JoyceBlock(d=0, mu=mu) for _ in range(draw(st.integers(1, 3)))]
    built = joyce_build(JoyceData(blocks=blocks, field_descriptor=ScalarField("rational")))
    return built.metric.scaled(draw(_POSITIVE))


@settings(max_examples=30, deadline=None, database=None)
@given(st.one_of(construction_metrics(), scaled_joyce_metrics()))
def test_random_metrics_beyond_the_catalog_match_the_oracles(m):
    assert_oracles_agree(m)
