"""Tests of the benchmark harness itself.

Run: python3 -m pytest -q perfbench/test_harness.py
"""

import copy
import json

import pytest

import layertrace
import run


def test_same_seed_draws_the_same_queries():
    for workload in run.POOLS:
        assert run.draw(workload, 7) == run.draw(workload, 7)


def test_seeds_share_the_mix_and_vary_the_inputs():
    a, b = run.draw("orbits", 1), run.draw("orbits", 2)
    key = lambda q: json.dumps(q.get("argv") or [q["mu"], q["nu"]])  # noqa: E731
    assert sorted(map(key, a)) == sorted(map(key, b))
    assert a != b
    walks = [q["walk"] for q in a if q["kind"] == "canonical"]
    assert walks == [q["walk"] for q in run.draw("orbits", 1) if q["kind"] == "canonical"]


def test_every_cli_query_has_a_recorded_digest():
    expected = json.loads(run.EXPECTED.read_text())
    for workload in run.POOLS:
        for q in run.draw(workload, 0):
            if q["kind"] == "cli":
                assert run.query_id(q) in expected


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_covered_child_time():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tr = layertrace.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    root = tr.enter("root")
    tr.exit(tr.enter("a"))
    b = tr.enter("b")
    tr.exit(tr.enter("c"))
    tr.exit(b)
    tr.exit(root)
    self_s = {k: v["self_s"] for k, v in tr.stats.items()}
    assert self_s == {"root": 3, "a": 3, "b": 3, "c": 1}
    assert sum(self_s.values()) == tr.root_s == 10


def test_covered_time_is_the_union_of_child_intervals():
    fr = layertrace.Frame("p", 0.0)
    for start, end in [(1, 4), (3, 6), (5, 6), (8, 9)]:
        fr.add_child(start, end)
    assert fr.covered == 6 and fr.self_time(10) == 4


def test_generators_are_timed_per_resumption():
    tr = layertrace.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7]))

    def gen():
        yield 1
        yield 2

    wrapped = layertrace.wrap(tr, "gen", gen)
    root = tr.enter("root")              # 0
    assert list(wrapped()) == [1, 2]     # resumptions [1,2] [3,4] [5,6]
    tr.exit(root)                        # 7
    st = tr.stats["gen"]
    assert (st["calls"], st["items"], st["spans"], st["self_s"]) == (1, 2, 3, 3)
    assert tr.stats["root"]["self_s"] == 4


def test_layer_metrics_reject_self_times_that_miss_the_batch():
    totals = {"cli.run": {"calls": 1, "self_s": 1.0}}
    assert layertrace.layer_metrics(totals, 1, 1.0, 1.0, 0.5)["trace.overhead"] == 2
    with pytest.raises(AssertionError):
        layertrace.layer_metrics(totals, 1, 2.0, 2.0, 1.0)


QUERY = {"kind": "cli", "argv": ["classes", "parabolic", "--m", "2", "--n", "2",
                                 "--q", "3"]}


def test_a_corrupted_digest_counts_as_a_failure():
    expected = json.loads(run.EXPECTED.read_text())
    good = run.run_round([QUERY], expected)
    assert good[0]["fail"] == ""
    bad = copy.deepcopy(expected)
    qid = run.query_id(QUERY)
    bad[qid]["sha256"] = "0" * 64
    reports = run.run_round([QUERY], bad)
    assert reports[0]["fail"].startswith("sha256")
    assert run.count_failed(reports) == len(reports) == 1  # fail_frac 1.0


def test_traced_query_reaches_every_layer_it_calls():
    rep = run.spawn(dict(QUERY, argv=QUERY["argv"] + ["--reps"], trace=True))
    stats = rep["trace"]["stats"]
    for name in ("cli.run", "conjugacy.parabolic_class_reps", "conjugacy.levi_reps",
                 "cocentralizer.reduce_levi_pair", "cocentralizer.lift",
                 "matrix_problem.enumerate_orbits", "kernels.orbit_partition",
                 "gf.is_irreducible", "jordan.assemble"):
        assert stats[name]["spans"] > 0, name
    total = sum(st["self_s"] for st in stats.values())
    assert total == pytest.approx(rep["trace"]["root_s"], rel=1e-9)
