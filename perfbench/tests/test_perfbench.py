"""Tests of the benchmark's own logic.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
from reference import bessel_reference  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9),
])
def test_top_percentile_needs_ten_samples_beyond(n, expected):
    assert summary.top_percentile(n) == expected


def test_samples_beyond_counts_strictly_above_the_rank():
    assert summary.samples_beyond(100, 90) == 10
    assert summary.samples_beyond(99, 90) == 9
    assert summary.samples_beyond(20, 50) == 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert summary.percentile(values, 50) == 50
    assert summary.percentile(values, 90) == 90
    assert summary.percentile(values, 99.9) == 100
    assert summary.percentile([7.0], 90) == 7.0


def test_describe_reports_the_highest_supported_percentile():
    assert summary.describe([1.0] * 19, "s") == "median 1 s, n=19"
    text = summary.describe([float(i) for i in range(1, 101)], "ms")
    assert text == "median 50.5 ms, p90 90 ms, n=100"


def test_quartile_spread():
    assert summary.quartile_spread([10.0] * 10) == 0.0
    assert summary.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == \
        pytest.approx(5.5 / 5.5)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_of_a_synthetic_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("harness.run", 1.0, 9.0, 0),
        ("exactalg.inv", 2.0, 4.0, 1),
        ("exactalg.inv", 5.0, 6.0, 1),
        ("exactalg.det", 5.5, 5.75, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [2.0, 5.0, 2.0, 0.75, 0.25])


def test_self_time_ignores_child_time_outside_the_parent():
    spans = [("a.f", 0.0, 4.0, -1), ("a.g", 3.0, 6.0, 0),
             ("a.h", 1.0, 2.0, 0), ("a.k", 1.5, 2.5, 0)]
    # children cover [1, 2.5] and [3, 4] of the parent's [0, 4]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def _fake_layers():
    """Two modules: ``lo`` defines leaf() and mid(); ``hi`` binds leaf by
    ``from lo import leaf`` and calls it through that binding."""
    lo = types.ModuleType("fakepkg.lo")
    exec("def leaf(x):\n    return x + 1\n"
         "def mid(x):\n    return leaf(x) + leaf(x)\n"
         "def _private(x):\n    return x\n", lo.__dict__)
    hi = types.ModuleType("fakepkg.hi")
    hi.leaf = lo.leaf
    exec("def top(x):\n    return mid(x) + leaf(x)\n", hi.__dict__)
    hi.mid = lo.mid
    return lo, hi


def test_install_wraps_every_binding_of_a_rebound_name():
    lo, hi = _fake_layers()
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    bound = tracing.install(tracer, {"lo": lo, "hi": hi})
    # lo.leaf, lo.mid, hi.top and the two re-bindings in hi
    assert bound == 5
    assert hi.leaf is lo.leaf and hi.mid is lo.mid
    assert not hasattr(lo._private, "__wrapped__")
    assert hi.top(1) == 6
    summ = tracing.summarize(tracer)
    by = summ["by_name"]
    assert by["lo.leaf"]["calls"] == 3     # twice via lo, once via hi
    assert by["lo.mid"]["calls"] == 1
    assert by["hi.top"]["calls"] == 1
    assert "hi.leaf" not in by and "hi.mid" not in by
    # One clock tick per reading: top [0,9] holds mid [1,6] (with leaves
    # [2,3] and [4,5]) and the leaf called through hi's binding, [7,8].
    assert tracer.spans() == [
        ("hi.top", 0.0, 9.0, -1),
        ("lo.mid", 1.0, 6.0, 0),
        ("lo.leaf", 2.0, 3.0, 1),
        ("lo.leaf", 4.0, 5.0, 1),
        ("lo.leaf", 7.0, 8.0, 0),
    ]
    assert tracing.self_times(tracer.spans()) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert summ["layer_self_s"] == {"hi": 3.0, "lo": 6.0}
    assert by["lo.leaf"]["self_s"] == 3.0 and by["lo.leaf"]["max_s"] == 1.0


def test_probe_and_memo_counters():
    lo, hi = _fake_layers()
    state = {"n": 0}

    def probe():
        state["n"] += 1
        return state["n"]

    cache: dict = {}

    def memo(x):
        return cache.setdefault(x, x * 2)

    lo.memo = memo
    memo.__module__ = lo.__name__
    tracer = tracing.Tracer()
    tracing.install(tracer, {"lo": lo}, probes={"lo.leaf": probe})
    for x in (1, 2, 1, 1):
        lo.memo(x)
    lo.leaf(0)
    summ = tracing.summarize(tracer)
    assert summ["by_name"]["lo.memo"]["memo_repeats"] == 2
    assert summ["probed"][0]["name"] == "lo.leaf"
    assert summ["probed"][0]["delta"] == 1


def test_is_memoized():
    @functools.cache
    def f(x):
        return x

    cache: dict = {}

    def g(x):
        return cache.get(x)

    def h(x):
        return x

    assert tracing.is_memoized(f) and tracing.is_memoized(g)
    assert not tracing.is_memoized(h)


def test_disabled_tracer_records_nothing():
    lo, _ = _fake_layers()
    tracer = tracing.Tracer()
    tracing.install(tracer, {"lo": lo})
    tracer.enabled = False
    assert lo.mid(1) == 4
    assert tracer.spans() == []


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "margin_digits.min",
                                  "besselnum.bessel_us.K0.lt1.d30",
                                  "cli.startup_ms", "0ok-name"])
def test_valid_metric_names(name):
    assert summary.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "wall/s", ".hidden", "_x",
                                  "x" * 65, "naïve"])
def test_invalid_metric_names(name):
    assert not summary.valid_metric_name(name)


def test_benchmark_json_matches_the_metrics_printed():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for name in list(e2e) + list(layer):
        assert summary.valid_metric_name(name)
    assert {m["name"] for m in BENCHMARK["end_to_end"]}.isdisjoint(layer)


# ---------------------------------------------------------------------------
# inputs drawn from the seed
# ---------------------------------------------------------------------------

def _kernel(seed):
    return run.Kernel(random.Random(seed), None, None)


def test_kernel_batches_are_seeded_distinct_and_cover_every_cell():
    a, b = _kernel(3), _kernel(3)
    first = a.batch()
    assert first == b.batch()
    second = a.batch()
    ts = [t for _, t, _ in first + second]
    assert len(set(ts)) == len(ts)
    lo, hi = run.KERNEL_T_RANGE
    assert all(lo <= t <= hi for t in ts)
    cells = {run.kernel_cell(k, t, d) for k, t, d in first}
    assert cells == {n for n in run.PER_LAYER_UNITS
                     if n.count(".") == 4 and ".bessel_us." in n}


def test_moments_u_is_seeded_and_in_range():
    draws = [run.MomentsCold(random.Random(s), None, None).draw_u()
             for s in range(50)]
    assert all(Fraction(1, 4) <= u <= Fraction(3, 4) for u in draws)
    again = run.MomentsCold(random.Random(7), None, None).draw_u()
    assert again == draws[7]


# ---------------------------------------------------------------------------
# the kernel reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, t", [("K0", 0.37), ("K1", 0.37),
                                     ("K0", 210.5), ("K1", 210.5),
                                     ("I0", 12.25)])
def test_reference_agrees_with_mpmath(kind, t):
    ref = bessel_reference(kind, t, 60)
    with mp.workdps(70):
        x = mp.mpf(t)
        if kind == "I0":
            expect = mpmath.besseli(0, x)
        else:
            expect = mpmath.besselk(int(kind[1]), x)
        assert abs(ref / expect - 1) < mpmath.mpf(10) ** -58


# ---------------------------------------------------------------------------
# comparing records
# ---------------------------------------------------------------------------

def _record(path, backend, wall):
    record = {
        "stamp": {"mpmath_backend": backend, "nproc": 2, "python": "3.11",
                  "mpmath": "1.3.0"},
        "workload": "kernel", "trace": 0,
        "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}},
    }
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    import compare

    a = _record(tmp_path / "a.json", "python", 1.0)
    b = _record(tmp_path / "b.json", "gmpy", 1.0)
    assert compare.main([a, "--vs", b]) == 2
    assert "refusing" in capsys.readouterr().err


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    import compare

    a = _record(tmp_path / "a.json", "python", 1.0)
    b = _record(tmp_path / "b.json", "python", 1.5)
    assert compare.main([a, "--vs", b]) == 0
    assert "WORSE" in capsys.readouterr().out
