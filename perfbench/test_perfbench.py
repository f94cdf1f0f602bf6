"""Tests of the benchmark itself; they time nothing.

    python3 -m pytest perfbench

* a smoke run of the measuring loop, untraced and traced, on the small
  slots of each workload with a fixed seed;
* exhaustive_join runs stop only after whole passes over its pool;
* every metric name obeys the naming rule and matches BENCHMARK.json;
* a brute-force loop over wire assignments confirms the |P| = 9
  exhaustive reference values of all five forms without vrel.compose;
* a directory holding only the benchmark makes it exit non-zero.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_quantrel()

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SMALL = {"restricted_sweep": 3, "exhaustive_join": 9, "law_check": 9}
SEED = 7


def small(name: str):
    return workloads.build(name, SEED, workloads.load_reference()).smaller(SMALL[name])


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_untraced(name, benchmark_json):
    workload = small(name)
    m = run.run_cycles(workload, cycles=2)
    assert m.failures == []
    assert m.cycles == 2 and len(m.latencies) == 2 * len(workload.slots) > 0
    metrics = run.end_to_end_metrics(m, setup_s=0.5)
    declared = {e["name"]: e["unit"] for e in benchmark_json["end_to_end"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    assert all(value > 0 for value, _, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_traced(name, benchmark_json):
    metrics, plain, spanned, tracer = run.traced_metrics(lambda: small(name), 0.0)
    assert plain.failures == [] and spanned.failures == []
    assert len(spanned.latencies) == len(plain.latencies) > 0
    assert tracer.absent == []
    declared = {e["name"]: e["unit"] for e in benchmark_json["per_layer"]}
    assert {k: unit for k, (_, unit, _) in metrics.items()} == declared
    assert metrics["lexicon.load_lexicon.busy_s"][0] > 0 or name == "law_check"
    busy = {"restricted_sweep": "sampling.randomize_model.busy_s",
            "exhaustive_join": "vrel.compose.busy_s",
            "law_check": "vrel.VRel.equal.busy_s"}[name]
    assert metrics[busy][0] > 0
    if name == "restricted_sweep":
        # the argmax evaluates the distribution at 101 points of its 0.01 grid
        argmax = "quantifier.apply_quantifier_argmax"
        per_call = metrics[f"{argmax}.grid_points"][0] / metrics[f"{argmax}.calls"][0]
        assert per_call == pytest.approx(101)


def test_exhaustive_runs_whole_passes():
    workload = small("exhaustive_join")
    assert run.run_cycles(workload, seconds=0.0).cycles == workloads.EXHAUSTIVE_POOL
    assert run.run_cycles(small("law_check"), seconds=0.0).cycles == 1


def test_names_and_units(benchmark_json):
    entries = benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    names = [e["name"] for e in entries] + [w["name"] for w in benchmark_json["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for entry in entries:
        assert UNIT.match(entry["unit"]), entry
    assert {w["name"] for w in benchmark_json["workloads"]} == set(run.WORKLOAD_NAMES)
    for metric in tracing.OP_METRICS + tracing.SETUP_METRICS:
        assert NAME.match(metric.name), metric.name


def test_missing_target_is_absent():
    tracer = tracing.Tracer()
    tracer.install((tracing.Target("vrel.no_such_function"),
                    tracing.Target("no_such_module.compose"),
                    tracing.Target("vrel.compose")))
    try:
        assert tracer.absent == ["vrel.no_such_function", "no_such_module.compose"]
    finally:
        tracer.uninstall()
    import quantrel.semantics
    import quantrel.vrel
    assert quantrel.semantics.compose is quantrel.vrel.compose
    assert not hasattr(quantrel.vrel.compose, "__wrapped__")


# -- brute-force reference for the exhaustive join at |P| = 9 ---------------

TENSORS = {
    "godel": min,
    "product": lambda a, b: a * b,
    "lukasiewicz": lambda a, b: max(0.0, a + b - 1.0),
}


def _proportion(b, a):
    total = sum(a)
    return sum(map(min, a, b)) / total if total > 0 else None


def _distribution(desc, p):
    if desc["kind"] == "every":
        return 1.0 if p == 1.0 else 0.0
    if desc["kind"] == "some":
        return 1.0 if p > 0.0 else 0.0
    points = desc["breakpoints"]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if p0 <= p <= p1:
            return v0 + (p - p0) * (v1 - v0) / (p1 - p0)
    raise AssertionError(p)


def _determiner(desc, a, b):
    if desc["kind"] == "every":
        return 1.0 if all(x <= y for x, y in zip(a, b)) else 0.0
    if desc["kind"] == "some":
        return 1.0 if any(min(x, y) > 0.0 for x, y in zip(a, b)) else 0.0
    p = _proportion(b, a)
    return 0.0 if p is None else _distribution(desc, p)


def brute_force(data: dict, text: str, form: str) -> float:
    """max over wire assignments of the tensor of the pipeline's factors."""
    universe = data["universe"]
    subsets = list(itertools.product(data["grades"], repeat=len(universe)))
    tensor = TENSORS[data["quantale"]]

    def times(*xs):
        return reduce(tensor, xs)

    def denotation(group, word):
        return tuple(float(data[group][word].get(u, 0.0)) for u in universe)

    def state(fs):
        return {s: _proportion(s, fs) or 0.0 for s in subsets}

    def verb_state(word):
        rel = {(x, y): g for x, y, g in data["verbs"][word]}
        out = {}
        for a in subsets:
            image = tuple(max(min(a[i], rel.get((x, y), 0.0)) for i, x in enumerate(universe))
                          for y in universe)
            for b in subsets:
                out[a, b] = _proportion(b, image) or 0.0
        return out

    def det_table(word):
        desc = data["quantifiers"][word]
        return {(a, b): _determiner(desc, a, tuple(map(min, a, b)))
                for a in subsets for b in subsets}

    w = text.split()
    if form == "BareIntransitive":
        np_, vp = state(denotation("nps", w[0])), state(denotation("vps", w[1]))
        return max(times(np_[a], vp[a]) for a in subsets)
    if form == "QuantSubject":
        d, n, vp = det_table(w[0]), state(denotation("nouns", w[1])), state(denotation("vps", w[2]))
        return max(times(n[a], vp[b], d[a, b]) for a in subsets for b in subsets)
    if form == "BareTransitive":
        np_, v, np2 = state(denotation("nps", w[0])), verb_state(w[1]), state(denotation("nps", w[2]))
        return max(times(np_[a], v[a, b], np2[b]) for a in subsets for b in subsets)
    if form == "QuantObject":
        np_, v = state(denotation("nps", w[0])), verb_state(w[1])
        d, n = det_table(w[2]), state(denotation("nouns", w[3]))
        left = {b: max(times(np_[a], v[a, b]) for a in subsets) for b in subsets}
        return max(times(left[b], n[c], d[c, b]) for b in subsets for c in subsets)
    d1, n1, v = det_table(w[0]), state(denotation("nouns", w[1])), verb_state(w[2])
    d2, n2 = det_table(w[3]), state(denotation("nouns", w[4]))
    return max(times(n1[a], v[b, dd], n2[c], d1[a, b], d2[c, dd])
               for a in subsets for b in subsets for c in subsets for dd in subsets)


@pytest.mark.parametrize("qname", workloads.REAL_QUANTALES)
@pytest.mark.parametrize("form", workloads.FORMS)
def test_exhaustive_reference_by_brute_force(qname, form):
    n, grades = 2, (0.0, 0.5, 1.0)
    recorded = workloads.load_reference()["exhaustive_join"]
    expected = recorded[workloads.exhaustive_slot_name(n, grades, qname, form)]
    cases = workloads.exhaustive_cases(n, grades, qname, form)
    assert len(cases) == len(expected) == workloads.EXHAUSTIVE_POOL
    for (data, text), value in zip(cases, expected):
        assert brute_force(data, text, form) == pytest.approx(value, abs=workloads.TOLERANCE), text


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "law_check",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
