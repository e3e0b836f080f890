"""Self-tests of the benchmark harness; binorms is not imported.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- the tail-percentile rule ---------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(100, 99.9) == 90.0      # p95 has only 5 beyond
    assert stats.tail_percentile(1000, 99.9) == 99.0     # p99.5 has only 5 beyond
    assert stats.tail_percentile(999, 99.9) == 98.0      # p99 has 9 beyond
    assert stats.beyond(999, 98.0) == 19


def test_tail_percentile_respects_the_cap():
    assert stats.tail_percentile(10_000, 95.0) == 95.0
    assert stats.tail_percentile(199, 95.0) == 90.0      # p95 has 9 beyond


def test_tail_falls_back_to_the_maximum_without_enough_samples():
    assert stats.tail_percentile(19, 99.0) is None
    assert stats.tail([3.0, 1.0, 2.0], 95.0) == (3.0, 100.0)


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.tail(values, 99.0) == (90.0, 90.0)
    assert stats.percentile(sorted(values), 50.0) == 50.0


# -- machine-speed calibration ---------------------------------------------------


def test_local_factor_uses_the_samples_around_each_task():
    nominal = calibrate.NOMINAL_MS
    # ten samples at nominal speed before task 20, ten at half speed after
    refs = [[i, nominal] for i in range(0, 20, 2)] + [[i, 2 * nominal] for i in range(20, 40, 2)]
    factors = calibrate.local_factors(refs, 40)
    assert factors[0] == 1.0 and factors[10] == 1.0
    assert factors[39] == 2.0 and factors[30] == 2.0
    # task 19 has four nominal samples before it and four slow ones after;
    # the sample taken right before task 20 already counts as slow
    assert factors[19] == 1.5
    assert factors[20] == 2.0


def test_local_factor_with_fewer_samples_than_the_window():
    refs = [[0, calibrate.NOMINAL_MS], [0, 3 * calibrate.NOMINAL_MS]]
    assert calibrate.local_factors(refs, 3) == [2.0, 2.0, 2.0]


def test_reference_block_is_fixed_work():
    assert calibrate.reference_block() == calibrate.reference_block()
    assert calibrate.time_block() > 0.0


# -- self time with nested spans ----------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    leaf = tr.wrap("kernels.leaf", leaf)

    def middle():
        clock.now += 2.0
        leaf()
        leaf()

    middle = tr.wrap("norms.middle", middle)

    def outer():
        clock.now += 4.0
        middle()
        clock.now += 8.0

    outer = tr.wrap("pqm.outer", outer)
    tr.task_id = 7
    outer()

    assert tr.by_name("kernels.leaf") == (2, 2.0, 2.0)
    assert tr.by_name("norms.middle") == (1, 2.0, 4.0)
    assert tr.by_name("pqm.outer") == (1, 12.0, 16.0)
    assert tr.layer_self_s("norms") == 2.0
    # spans are recorded at close; parents by their open index
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["kernels.leaf", "kernels.leaf", "norms.middle", "pqm.outer"]
    assert list(tr.span_parent) == [1, 1, 0, -1]
    assert list(tr.span_index) == [2, 3, 1, 0]
    assert set(tr.span_task) == {7}


def test_hook_time_is_charged_to_no_span():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def slow_hook(args):
        clock.now += 100.0

    inner = tr.wrap("kernels.inner", lambda: None, before=slow_hook,
                    after=lambda args, result, token: slow_hook(args))

    def outer():
        clock.now += 1.0
        inner()

    tr.wrap("pqm.outer", outer)()
    assert tr.by_name("pqm.outer")[1] == 1.0


def test_span_cap_keeps_aggregates_exact():
    clock = FakeClock()
    tr = Tracer(clock=clock, max_spans=2)

    def tick():
        clock.now += 1.0

    tick = tr.wrap("groups.tick", tick)
    for _ in range(5):
        tick()
    assert len(tr.span_index) == 2 and tr.dropped == 3
    assert tr.by_name("groups.tick") == (5, 5.0, 5.0)


def test_patched_method_is_traced_for_every_instance():
    class Box:
        def get(self):
            return 42

    tr = Tracer()
    tr.patch(Box, "get", "groups.get")
    assert Box().get() == 42 and Box().get() == 42
    assert tr.by_name("groups.get")[0] == 2


# -- failure counting ---------------------------------------------------------------


def job_spec(**params):
    body = "".join(f"  {k} = {v}\n" for k, v in params.items())
    return ["job", "job {\n" + body + "}\n"]


def key(spec):
    return " | ".join(spec)


def test_expected_error_rows_pass_and_unexpected_ones_fail():
    finite = job_spec(task="extend", family="perm", element="(1 2)", c="1/2", at="(1 2)")
    walk = job_spec(task="walk", walk="all-up", window=256)
    golden = {key(finite): "error:E_FINITE_ORDER", key(walk): "homogenisation|1|[1,1]||converged=1"}
    c = checks.Checker(golden)
    assert c.check(key(finite), finite, "error:E_FINITE_ORDER")
    assert not c.check(key(finite), finite, "error:E_WINDOW_CERT")
    assert not c.check(key(walk), walk, "error:E_WALK_SPEC")
    assert not c.check(key(walk), walk, "raised:ValueError: boom")
    assert (c.attempted, c.failed) == (4, 3)


def test_missing_golden_and_wrong_values_fail():
    spec = ["ctrick", "a", "b", "2", "h"]
    c = checks.Checker({key(spec): "2|2|1"})
    assert c.check(key(spec), spec, "2|2|1")
    assert not c.check(key(spec), spec, "2|4|1")
    other = ["ctrick", "a", "a", "2", "h"]
    assert not c.check(key(other), other, "0|4|1")
    assert (c.attempted, c.failed) == (3, 2)
    assert any("no golden" in p for p in c.problems)


def test_invariants_catch_a_wrong_golden():
    # the witness product b^-1 a^-1 b^-1 a b b has norm 2, not 4: the
    # deletion oracle rejects it even where golden agrees with the program
    spec = ["ctrick", "a", "b", "2", "h"]
    c = checks.Checker({key(spec): "4|4|1"})
    assert not c.check(key(spec), spec, "4|4|1")
    spec = job_spec(task="norm", family="perm", degree=5, backend="bfs", element="(1 2 3)(4 5)")
    c = checks.Checker({key(spec): "norm|2|[2,2]|1|"})
    assert not c.check(key(spec), spec, "norm|2|[2,2]|1|")   # closed form is 3


def test_malformed_results_count_as_failures():
    spec = ["hom", "plain", "a b"]
    c = checks.Checker({key(spec): "2"})
    assert not c.check(key(spec), spec, "2")
    assert "malformed" in c.problems[0]


def test_conjugates_must_agree_across_tasks():
    a = ["detect", "a b"]
    b = ["detect", "b a"]
    golden = {key(a): "undistorted|1|1|2,4,6,8", key(b): "undistorted|1|1|2,4,6,6"}
    c = checks.Checker(golden)
    assert c.check(key(a), a, golden[key(a)])
    assert not c.check(key(b), b, golden[key(b)])


def test_free_word_helpers():
    assert checks.parse_word("a b^-1 b a") == (1, 1)
    assert checks.power((1, -2), 3) == (1, -2, 1, -2, 1, -2)
    assert checks.conjugacy_key(checks.parse_word("b^-1 a b")) == (1,)
    assert checks.conjugacy_key((2, 1)) == checks.conjugacy_key((1, 2))
    assert checks.deletion_oracle(checks.parse_word("a^-1 b^-1 a b")) == 2
    assert checks.transposition_closed_form("(1 2 3)(4 5)") == 3


# -- the benchmark definition -----------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
