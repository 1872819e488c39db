"""Self-tests of the benchmark: self-time arithmetic, tracer clean-up and
failure counting.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from reference import NOMINAL_S, Reference, rescale
from tracer import LAYERS, Span, Tracer, layer_totals, self_times

import su3lab
from su3lab import flows, su3
from su3lab.fiber import RepPoint

ROOT = Path(__file__).resolve().parent.parent


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _bindings():
    """Every (module, name) in su3lab bound to a traced layer's function."""
    originals = {id(getattr(sys.modules[layer.module], layer.attr)): layer
                 for layer in LAYERS if "." not in layer.attr}
    return {
        (module_name, key): value
        for module_name, module in sys.modules.items()
        if module_name.startswith("su3lab")
        for key, value in vars(module).items()
        if id(value) in originals
    }


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] holds child [1, 4] (which holds grandchild [2, 3]) and
    # child [6, 7]; each span loses exactly the time its children cover.
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r", 1, 1, False),
        Span(1, "child", 1.0, 4.0, 0, "r", 1, 1, False),
        Span(2, "grandchild", 2.0, 3.0, 1, "r", 1, 1, False),
        Span(3, "child", 6.0, 7.0, 0, "r", 1, 1, False),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = layer_totals(spans)["r"]
    assert totals["child"].calls == 2
    assert totals["child"].self_s == 3.0
    assert totals["child"].total_s == 4.0
    assert sum(t.self_s for t in totals.values()) == 10.0


def test_traced_call_nests_spans_and_self_times_add_up():
    rng = _rng(1)
    a = su3.haar_random(rng, size=4)
    b = su3.haar_random(rng, size=4)
    tracer = Tracer()
    with tracer.active("walk"):
        flows.flow_walk_stack(a, b, su3.RENORM_CADENCE, rng)
    (walk,) = [s for s in tracer.spans if s.name == "flows.flow_walk_stack"]
    children = [s for s in tracer.spans if s.parent == walk.id]
    assert {s.name for s in children} == {"su3.exp_algebra", "su3.renormalize"}
    assert walk.rows == 4 and walk.work == 4 * su3.RENORM_CADENCE
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(walk.end - walk.start, abs=1e-9)


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    validate = RepPoint.__post_init__
    exp_algebra = su3.exp_algebra
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active("census"):
            # The name flows rebinds is patched, not only su3's own.
            assert flows.exp_algebra is not exp_algebra
            assert flows.exp_algebra.__wrapped__ is exp_algebra
            assert RepPoint.__post_init__ is not validate
            a = su3.haar_random(_rng(2), size=8)
            workloads.rank_pass(a, a[::-1])
            RepPoint.from_pair(a[0], a[1])
            raise RuntimeError("abort the traced block")
    assert _bindings() == before
    assert RepPoint.__post_init__ is validate
    assert flows.exp_algebra is su3.exp_algebra is su3lab.exp_algebra
    assert {s.name for s in tracer.spans} >= {
        "traces.is_generic", "fiber.d_kappa_rank", "fiber.RepPoint.validate"
    }


def test_injected_bad_residual_fails_its_flow_row():
    wl = workloads.FlowWalk()
    rng = _rng(3)
    a = su3.haar_random(rng, size=8)
    b = su3.haar_random(rng, size=8)
    c = workloads.raw_commutator(a, b)
    fa, fb = flows.flow_walk_stack(a, b, 4, rng)
    assert workloads.flow_row_failures(fa, fb, c).sum() == 0

    # A Haar factor moves one row off its fiber; a NaN makes another row
    # non-finite.
    fb = fb.copy()
    fb[3] = fb[3] @ su3.haar_random(rng)
    fa = fa.copy()
    fa[5, 0, 0] = np.nan
    outcome = wl.check((a, b, c, None), (fa, fb))
    assert outcome.failed == 2
    assert outcome.failed / outcome.attempted == 2 / 8


def test_digest_mismatch_fails_the_whole_call():
    records = [
        {"attempted": 10, "failed": 0, "digest": "x"},
        {"attempted": 10, "failed": 1, "digest": "x"},
        {"attempted": 10, "failed": 0, "digest": "y"},
    ]
    assert run.count_failures(records) == (30, 11)


def test_sampled_call_restores_the_timer_and_handler():
    def busy(until):
        while time.perf_counter() < until:
            np.linalg.svd(np.ones((50, 3, 3)))
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    reference = Reference()
    result, elapsed, reference_s = reference.timed_call(busy, time.perf_counter() + 0.6)
    assert result == "done"
    assert 0 < elapsed < 0.6
    assert reference_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_rescaling_cancels_a_uniform_slowdown():
    # A machine twice as slow doubles both the call and the kernel time.
    assert rescale(3.0, NOMINAL_S) == 3.0
    assert rescale(6.0, 2 * NOMINAL_S) == pytest.approx(3.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
