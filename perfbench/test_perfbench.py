"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import itertools
import json
import types
from pathlib import Path

import pytest

import checks
import run
import startup
import tracer
import workloads

GOOD = """# artifact = becmemory 0.1.0
# command = fig5
# seed = 12345
# config.fig5.n_points = 3
# sigma_eta_fit_ms = 0.480000
t_store_ms,eta_recoil_model,eta_measured_fit
0,1,1
0.75,0.5,0.25
1.5,0.25,0.0625
"""


def take(workload, seed, n):
    ops = workloads.cli_operations(workload, seed) \
        if workload in workloads.CLI_WORKLOADS \
        else workloads.fit_operations(workload, seed)
    return list(itertools.islice(ops, n))


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert take(workload, 7, 40) == take(workload, 7, 40)
        assert take(workload, 7, 40) != take(workload, 8, 40)


def test_seed_varies_parameters_not_the_command_cycle():
    cycle = workloads.WORKLOADS["cli-short"]
    for seed in (1, 2):
        variants = [p["variant"] for p in take("cli-short", seed, 18)]
        assert variants == list(cycle) * 3


def test_every_parameter_set_has_a_reference():
    refs = run.load_references()
    for workload in workloads.CLI_WORKLOADS:
        for variant in workloads.WORKLOADS[workload]:
            for index in range(workloads.SETS):
                assert f"{variant}/{index}" in refs
    fits = json.loads((run.BENCH / "reference.json").read_text())["fits"]
    for workload, n in workloads.FIT_SETS.items():
        assert {p["index"] for p in take(workload, 3, n)} == set(range(n))
        for index in range(n):
            assert fits[f"{workload}/{index}"]["converged"]


def fit(omega, chi2=1.0, converged=True):
    return types.SimpleNamespace(
        converged=converged, message="", chi2_per_dof=chi2,
        params={"amplitude": 1.0, "omega_f": omega, "phi0": 0.0,
                "sigma_alpha": 1e-3})


FIT_REF = {"omega_f": 100.0, "chi2_per_dof": 1.0}


def test_fit_check_keeps_the_recorded_basin():
    assert checks.check_fit(fit(100.0 * (1 + 1e-6)), 100.0, FIT_REF) == []
    assert checks.check_fit(fit(100.0, converged=False), 100.0, FIT_REF)
    assert checks.check_fit(fit(102.0, chi2=0.5), 100.0, FIT_REF)
    # The adjacent basin: a failure when it fits worse than the recorded
    # minimum, accepted when it fits better.
    assert checks.check_fit(fit(101.0, chi2=1.2), 100.0, FIT_REF)
    assert checks.check_fit(fit(101.0, chi2=0.9), 100.0, FIT_REF) == []
    assert checks.check_fit(fit(100.0, chi2=1.2), 101.0,
                            {"omega_f": 101.0, "chi2_per_dof": 1.0})


def test_startup_samples_are_spread_over_the_loop():
    probe = startup.StartupProbe(None, None, None, count=4, seconds=10.0)
    taken = []
    probe.sample = lambda: probe.walls.append(0.5) or taken.append(now)
    for now in (0.0, 1.0, 2.0, 3.0, 6.0, 7.0, 9.9):
        probe.due(now)
    assert taken == [0.0, 3.0, 6.0, 9.9]
    probe.finish()
    assert len(probe.walls) == 4 and probe.total == 2.0


def test_checker_accepts_the_reference_table():
    ref = checks.summarize(GOOD)
    assert checks.check_table("fig5", GOOD, ref) == []


@pytest.mark.parametrize("bad", ["nan", "inf", "x"])
def test_checker_fails_a_non_finite_cell(bad):
    ref = checks.summarize(GOOD)
    text = GOOD.replace("0.75,0.5,0.25", f"0.75,{bad},0.25")
    assert checks.check_table("fig5", text, ref)


def test_checker_fails_a_wrong_row_count():
    ref = checks.summarize(GOOD)
    assert checks.check_table("fig5", GOOD + "2,0.1,0.01\n", ref)
    assert checks.check_table("fig5", GOOD.rsplit("1.5,", 1)[0], ref)


def test_checker_fails_a_wrong_header_or_value():
    ref = checks.summarize(GOOD)
    assert checks.check_table(
        "fig5", GOOD.replace("eta_measured_fit", "eta_fit"), ref)
    assert checks.check_table(
        "fig5", GOOD.replace("0.5,0.25", "0.500001,0.25"), ref)
    assert checks.check_table(
        "fig5", GOOD.replace("= 0.480000", "= 0.480002"), ref)


def test_checker_tolerates_last_digit_changes():
    ref = checks.summarize(GOOD)
    moved = GOOD.replace("0.5,0.25", "0.50000000001,0.25")
    assert checks.check_table("fig5", moved, ref) == []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    t.open("a")            # a: 0..10, children b (1..4) and c (5..9)
    clock.now = 1.0
    t.open("b")
    clock.now = 2.0
    t.open("a")            # recursive a inside b: 2..3
    clock.now = 3.0
    t.close()
    clock.now = 4.0
    t.close()
    clock.now = 5.0
    t.open("c")
    clock.now = 9.0
    t.close()
    clock.now = 10.0
    t.close()
    s = tracer.summarize(t.spans)
    assert s["a"]["calls"] == 2
    assert s["a"]["self"] == pytest.approx((10 - 3 - 4) + 1)
    assert s["a"]["busy"] == pytest.approx(10)     # recursion counted once
    assert s["b"]["self"] == pytest.approx(3 - 1)
    assert s["c"]["self"] == pytest.approx(4)
    assert tracer.time_inside(t.spans, "a", "b") == pytest.approx(1)
    total_self = sum(entry["self"] for entry in s.values())
    assert total_self == pytest.approx(10)


def test_wrapped_function_records_span_and_counter():
    t = tracer.Tracer(FakeClock())
    wrapped = t.wrap("m.f", lambda x: [x, x],
                     after=lambda counters, r: counters.update(n=len(r)))
    assert wrapped(3) == [3, 3]
    assert [span[0] for span in t.spans] == ["m.f"]
    assert t.counters["n"] == 2


def test_tail_is_the_eleventh_largest():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == pytest.approx(75.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
