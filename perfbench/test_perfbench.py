"""Self-tests of the benchmark harness: gates, wrappers, seeds, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys

import pytest

import run  # puts the checkout's src/ first on sys.path before xorcast is imported
import spans
import workloads


def _figure_csv(figure: str, trials: int = 200) -> str:
    return workloads.cli_command(
        ["figure", "--which", figure, "--trials", str(trials), "--seed", "3"],
        lambda text: []).run()


def _set_value(text: str, k: int, p: float, metric: str, value: float) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        fig, row_k, row_p, row_metric, _ = line.split(",")
        if (int(row_k), float(row_p), row_metric) == (k, p, metric):
            lines[i] = f"{fig},{row_k},{row_p},{row_metric},{value:.6f}"
            return "\n".join(lines)
    raise KeyError((k, p, metric))


def _value(text: str, k: int, p: float, metric: str) -> float:
    for line in text.split("\n")[1:-1]:
        _, row_k, row_p, row_metric, value = line.split(",")
        if (int(row_k), float(row_p), row_metric) == (k, p, metric):
            return float(value)
    raise KeyError((k, p, metric))


@pytest.fixture(scope="module")
def fig1a():
    return _figure_csv("fig1a")


def test_figure_gate_accepts_program_output(fig1a):
    assert workloads.check_figure_csv("fig1a", fig1a) == []
    assert workloads.check_figure_csv("fig1c", _figure_csv("fig1c")) == []


def test_figure_gate_rejects_rl_below_mds(fig1a):
    mds = _value(fig1a, 2, 0.5, "mds")
    stderr = _value(fig1a, 2, 0.5, "rl_sim_stderr")
    bad = _set_value(fig1a, 2, 0.5, "rl_sim", mds - 6 * stderr)
    assert any("rl_sim" in p for p in workloads.check_figure_csv("fig1a", bad))


def test_figure_gate_rejects_exact_below_mds_and_rt_below_one(fig1a):
    mds = _value(fig1a, 2, 0.25, "mds")
    bad = _set_value(fig1a, 2, 0.25, "exact_xor", mds - 1e-3)
    assert any("exact_xor" in p for p in workloads.check_figure_csv("fig1a", bad))
    bad = _set_value(fig1a, 2, 0.0, "mds", 0.999)
    assert any("< 1" in p for p in workloads.check_figure_csv("fig1a", bad))


def test_figure_gate_rejects_header_order_and_missing_rows(fig1a):
    lines = fig1a.split("\n")
    assert workloads.check_figure_csv("fig1a", "\n".join(["figure,k,p,value"] + lines[1:]))
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert workloads.check_figure_csv("fig1a", "\n".join(swapped))
    assert workloads.check_figure_csv("fig1a", "\n".join(lines[:-2] + [""]))


def test_figure_gate_rejects_negative_gap_and_bound_below_mds():
    fig1c = _figure_csv("fig1c")
    bad = _set_value(fig1c, 3, 0.5, "exact_minus_mds_rt", -1e-6)
    assert any("gap" in p for p in workloads.check_figure_csv("fig1c", bad))
    fig2 = _figure_csv("fig2", trials=10)
    bad = _set_value(fig2, 8, 0.25, "bound_ell", _value(fig2, 8, 0.25, "mds") - 1e-3)
    assert any("bound_ell" in p for p in workloads.check_figure_csv("fig2", bad))


def test_oracle_gate_tolerances():
    def payload(k, diff):
        return json.dumps({"k": k, "p": 0.5, "e_tx": 8.0 + diff, "fine": 8.0})

    assert workloads.check_oracle(payload(2, 0.0)) == []
    assert workloads.check_oracle(payload(2, 1e-11))
    assert workloads.check_oracle(payload(3, 2.9e-3)) == []
    assert workloads.check_oracle(payload(3, 3.1e-3))


def test_bound_and_k4_gates_reject_wrong_values():
    good = {"k": 8, "p": 0.5, "e_ell": 20.34, "mds": 19.46}
    assert workloads.check_bound(json.dumps(good)) == []
    assert workloads.check_bound(json.dumps(dict(good, e_ell=19.0)))
    gate = workloads.check_equal("k4", workloads.K4_HALF_DP, workloads.K4_HALF_TOL)
    assert gate("10.4410415") == []
    assert gate("10.441044")
    assert workloads.check_at_least("k4", 6.4)("6.3")


def test_simulation_gates_reject_far_means():
    def payload(mean):
        return json.dumps({"policy": "greedy", "k": 3, "p": 0.25, "mean": mean, "stderr": 0.01})

    near = workloads.check_simulation(5.0, near=True)
    assert near(payload(5.04)) == []
    assert near(payload(5.06)) and near(payload(4.94))
    floor = workloads.check_simulation(5.0, near=False)
    assert floor(payload(9.0)) == []
    assert floor(payload(4.94))


def test_program_outputs_pass_their_gates():
    commands = [
        workloads.cli_command(["exact", "--k", "2", "--p", "0.5", "--oracle", "--json"],
                              workloads.check_oracle),
        workloads.cli_command(["bound", "--k", "8", "--p", "0.5", "--json"],
                              workloads.check_bound),
    ]
    assert all(not r.problems for r in run.run_pass(commands))


def _module_attributes() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "xorcast" or name.startswith("xorcast.")}


def _small_pass() -> list[workloads.Command]:
    def simulate(policy, k):
        return workloads.cli_command(
            ["simulate", "--policy", policy, "--k", str(k), "--p", "0.25",
             "--trials", "50", "--seed", "5", "--json"], lambda text: [])
    return [
        simulate("greedy", 3), simulate("greedy", 5), simulate("rl", 4), simulate("mds", 4),
        workloads.cli_command(["exact", "--k", "2", "--p", "0.5", "--oracle", "--json"],
                              workloads.check_oracle),
        workloads.cli_command(["bound", "--k", "4", "--p", "0.5", "--json"],
                              workloads.check_bound),
    ]


def test_traced_pass_restores_modules_and_matches_untraced_output():
    commands = _small_pass()
    before = _module_attributes()
    untraced = run.run_pass(commands)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run.run_pass(commands, tracer)
    after = _module_attributes()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"
    assert [r.output for r in traced] == [r.output for r in untraced]
    assert not any(r.problems for r in untraced + traced)

    for layer in ("cli", "sim", "markov", "bounds", "policy", "gf2"):
        assert tracer.layer_self_s[layer] > 0, layer
    assert sum(tracer.layer_self_s.values()) == pytest.approx(tracer.total_s["cli"], abs=1e-9)
    metrics = spans.layer_metrics(tracer, run.pass_seconds(untraced))
    assert metrics["sim.table.trials"] == 50 and metrics["sim.scalar.trials"] == 50
    assert metrics["sim.rl.trials"] == 50 and metrics["sim.counts.trials"] == 50
    assert metrics["markov.solve.states"] == (78 - 1) + (12 - 1)


def test_wrappers_restored_after_a_failing_call():
    before = _module_attributes()
    failing = workloads.Command("build_fine_chain(9)",
                                lambda: repr(workloads.markov.build_fine_chain(9)),
                                lambda text: [])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        runs = run.run_pass([failing], tracer)
    assert runs[0].problems and runs[0].output is None
    assert tracer.calls["markov.build_fine_chain"] == 1
    assert all(vars(sys.modules[name])[attr] is value
               for name, attrs in before.items() for attr, value in attrs.items())


def test_seed_changes_random_workloads_only():
    for workload in workloads.WORKLOADS:
        one = [c.label for c in workloads.build(workload, 1)]
        two = [c.label for c in workloads.build(workload, 2)]
        if workload == "analytic":
            assert one == two
        else:
            assert one != two
            assert all("--seed 2" in label for label in two)


def test_benchmark_json_matches_harness_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.unit_of(name)) for name in run.END_TO_END]
    names = spans.layer_metrics(spans.Tracer(), 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in names]
