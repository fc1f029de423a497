"""Tracer hygiene: wrappers come and go cleanly and spans nest properly.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lurelab  # noqa: E402
import lurelab.cli  # noqa: E402
from tracer import TARGETS, WRAPPED_ATTR, Tracer, wrapped_targets  # noqa: E402


def _targets():
    return {(mod, attr): getattr(getattr(lurelab, mod), attr)
            for mod, attr, _ in TARGETS}


@pytest.fixture(scope="module")
def traced():
    """One traced set-up and a few small operations, tracer removed after."""
    before = _targets()
    tracer = Tracer(lurelab)
    tracer.prepare()
    tracer.install()
    try:
        during = _targets()
        tracer.op = "p0:setup"
        span = tracer.open("bench.op")
        one = lurelab.experiments.preset_by_name("one-mass", verify=True)
        tracer.close(span)
        tracer.op = "p0:entrain"
        span = tracer.open("bench.op")
        lurelab.experiments.run_entrainment(one, "saw", horizon=10.0, dt=0.02)
        tracer.close(span)
        tracer.op = "p0:ladder"
        span = tracer.open("bench.op")
        lurelab.experiments.run_gain_ladder(one, "zero", (1.0,), n_pairs=1,
                                            horizon=2.0, dt=0.02)
        tracer.close(span)
    finally:
        tracer.remove()
    return tracer, before, during, _targets()


def test_public_functions_are_originals_before_tracing(traced):
    _, before, _, _ = traced
    assert not [k for k, f in before.items() if hasattr(f, WRAPPED_ATTR)]


def test_install_wraps_every_target(traced):
    _, before, during, _ = traced
    for key, fn in during.items():
        assert getattr(fn, WRAPPED_ATTR) is before[key], key


def test_remove_restores_the_originals(traced):
    _, before, _, after = traced
    assert wrapped_targets(lurelab) == []
    for key, fn in after.items():
        assert fn is before[key], key


def test_children_lie_inside_their_parents(traced):
    tracer = traced[0]
    assert len(tracer.spans) > 10
    for s in tracer.spans:
        if s.parent is not None:
            p = tracer.spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end, s.name
            assert p.op == s.op


def test_self_times_are_not_negative(traced):
    tracer = traced[0]
    assert min(tracer.self_times()) >= -1e-9
    assert tracer.hygiene_errors() == []


def test_counts_cross_check(traced):
    tracer = traced[0]
    sims = [s for s in tracer.spans if s.name == "simcore.simulate"]
    assert len(sims) == 4
    for s in sims:
        assert s.info["substeps"] == s.info["expected_substeps"]
        assert s.counts["nonlinearity"][1] == 4 * s.info["substeps"]
    # the sawtooth (period 2 pi / 0.75) jumps once in (0, 10)
    assert sims[0].info["substeps"] == sims[0].info["steps"] + 1
