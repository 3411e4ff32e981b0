"""The benchmark's three workloads: xorcast commands, each with an output gate.

A command is a CLI invocation (``xorcast.cli.main``) or one public API call.
Its gate reads the command's output and returns the problems it finds; an
empty list means the output is correct. Reference values the gates compare
against are computed before any command is timed.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from xorcast import bounds, cli, markov

WORKLOADS = ("figures", "analytic", "simulate")

CSV_HEADER = "figure,k,p,metric,value"
FIGURE_SERIES = {
    "fig1a": ("exact_xor", "mds", "rl_sim", "rl_sim_stderr"),
    "fig1b": ("exact_xor", "mds", "rl_sim", "rl_sim_stderr"),
    "fig1c": ("exact_minus_mds_rt",),
    "fig2": ("bound_ell", "mds", "rl_sim", "rl_sim_stderr"),
}
RT_METRICS = ("exact_xor", "mds", "rl_sim", "bound_ell")
DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(19))  # 0.00 .. 0.90
FIG_K_MAX = 32
FIG_TRIALS = {"fig1a": 20_000, "fig1b": 20_000, "fig1c": 20_000, "fig2": 2_000}

# Greedy k=3 chain vs the joint-state oracle: the documented tie-break
# residual at the analytic workload's p values (largest today 2.94e-3 at p=0.9).
K3_ORACLE_RESIDUAL = 3e-3
K2_ORACLE_TOL = 1e-12
# E[t_x] of greedy (smallest-bit tie-break) at k=4, p=0.5, from an independent
# brute-force dynamic program over reachable joint states.
K4_HALF_DP = 10.441042
K4_HALF_TOL = 1e-6
N_STDERR = 5.0
# Figure CSVs carry 6 decimals; a comparison of three rounded values can be
# off by this much through rounding alone.
CSV_ROUNDING = 2e-6

ANALYTIC_P = (0.1, 0.25, 0.5, 0.75, 0.9)
ANALYTIC_K4_P = (0.5, 0.25)
ANALYTIC_BOUNDS = ((32, 0.99), (8, 0.5), (2, 0.9))

# (policy, k, p, trials): table engine, scalar engine, rl with many short and
# few long trials, and the counts engine for mds and bound.
SIMULATIONS = (
    ("greedy", 3, 0.25, 1_000_000),
    ("greedy", 4, 0.5, 1_000_000),
    ("greedy", 8, 0.25, 2_000),
    ("rl", 3, 0.5, 300_000),
    ("rl", 32, 0.5, 5_000),
    ("mds", 32, 0.5, 100_000),
    ("bound", 32, 0.5, 100_000),
)


class CommandFailed(RuntimeError):
    """A CLI command exited with a nonzero code."""


@dataclass(frozen=True)
class Command:
    """One timed unit of a workload: run() returns output text, gate() checks it."""

    label: str
    run: Callable[[], str]
    gate: Callable[[str], list[str]]


def cli_command(argv: list[str], gate: Callable[[str], list[str]]) -> Command:
    """A command run as `xorcast <argv>` would run it, with its stdout captured."""
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CommandFailed(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return Command("xorcast " + " ".join(argv), run, gate)


def k4_oracle_command(p: float, gate: Callable[[str], list[str]]) -> Command:
    """The public API call absorption_time_fine(build_fine_chain(4), p)."""
    def run() -> str:
        return repr(markov.absorption_time_fine(markov.build_fine_chain(4), p))
    return Command(f"absorption_time_fine(build_fine_chain(4), {p})", run, gate)


def _figure_points(figure: str) -> list[tuple[int, float]]:
    if figure == "fig1a":
        return [(2, p) for p in DEFAULT_P_GRID]
    if figure == "fig1b":
        return [(3, p) for p in DEFAULT_P_GRID]
    if figure == "fig1c":
        return [(k, p) for k in (2, 3) for p in DEFAULT_P_GRID]
    return [(k, p) for p in (0.25, 0.5) for k in range(2, FIG_K_MAX + 1)]


def check_figure_csv(figure: str, text: str) -> list[str]:
    """Header, row set and row order as documented, plus the R_t orderings."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return [f"{figure}: header {lines[0]!r}"]
    if lines[-1] != "":
        return [f"{figure}: output does not end in a newline"]
    keys, values = [], {}
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 5:
            return [f"{figure}: malformed row {line!r}"]
        fig, k, p, metric, value = fields
        key = (fig, int(k), float(p), metric)
        keys.append(key)
        values[key] = float(value)
    expected = sorted((figure, k, p, m) for k, p in _figure_points(figure)
                      for m in FIGURE_SERIES[figure])
    if keys != expected:
        return [f"{figure}: rows differ from the documented set or order"]
    problems = []
    for (fig, k, p, metric), value in values.items():
        if metric in RT_METRICS and value < 1.0:
            problems.append(f"{figure} k={k} p={p}: {metric} = {value} < 1")
    for k, p in _figure_points(figure):
        row = {m: values[(figure, k, p, m)] for m in FIGURE_SERIES[figure]}
        where = f"{figure} k={k} p={p}"
        if "exact_xor" in row and row["exact_xor"] < row["mds"]:
            problems.append(f"{where}: exact_xor {row['exact_xor']} < mds {row['mds']}")
        if "bound_ell" in row and row["bound_ell"] < row["mds"]:
            problems.append(f"{where}: bound_ell {row['bound_ell']} < mds {row['mds']}")
        if "exact_minus_mds_rt" in row and row["exact_minus_mds_rt"] < -1e-12:
            problems.append(f"{where}: exact - mds gap {row['exact_minus_mds_rt']} < 0")
        if "rl_sim" in row:
            floor = row["mds"] - N_STDERR * row["rl_sim_stderr"] - CSV_ROUNDING
            if row["rl_sim"] < floor:
                problems.append(f"{where}: rl_sim {row['rl_sim']} below mds - "
                                f"{N_STDERR:g} stderr ({floor:.6f})")
    return problems


def check_oracle(text: str) -> list[str]:
    """`exact --oracle --json`: aggregated chain vs joint-state oracle."""
    payload = json.loads(text)
    k, diff = payload["k"], abs(payload["e_tx"] - payload["fine"])
    tol = K2_ORACLE_TOL if k == 2 else K3_ORACLE_RESIDUAL
    if not diff <= tol:
        return [f"exact k={k} p={payload['p']}: |e_tx - fine| = {diff:.3e} > {tol:g}"]
    return []


def check_bound(text: str) -> list[str]:
    """`bound --json`: the upper bound is not below the ideal-code mean."""
    payload = json.loads(text)
    if not payload["e_ell"] >= payload["mds"] >= payload["k"]:
        return [f"bound k={payload['k']} p={payload['p']}: need e_ell {payload['e_ell']} "
                f">= mds {payload['mds']} >= k"]
    return []


def check_equal(label: str, expected: float, tol: float) -> Callable[[str], list[str]]:
    def gate(text: str) -> list[str]:
        value = float(text)
        if not abs(value - expected) <= tol:
            return [f"{label} = {value!r}, expected {expected} to {tol:g}"]
        return []
    return gate


def check_at_least(label: str, floor: float) -> Callable[[str], list[str]]:
    def gate(text: str) -> list[str]:
        value = float(text)
        if not value >= floor:
            return [f"{label} = {value!r} below {floor!r}"]
        return []
    return gate


def check_simulation(reference: float, near: bool) -> Callable[[str], list[str]]:
    """`simulate --json`: mean within N_STDERR stderr of reference, or not below it."""
    def gate(text: str) -> list[str]:
        payload = json.loads(text)
        mean, margin = payload["mean"], N_STDERR * payload["stderr"]
        where = f"simulate {payload['policy']} k={payload['k']} p={payload['p']}"
        if near and not abs(mean - reference) <= margin:
            return [f"{where}: mean {mean} not within {N_STDERR:g} stderr of {reference}"]
        if not near and not mean >= reference - margin:
            return [f"{where}: mean {mean} below {reference} - {N_STDERR:g} stderr"]
        return []
    return gate


def _mds(k: int, p: float) -> float:
    return bounds.mds_expected(bounds.BoundQuery(k=k, p=p))


def figures(seed: int) -> list[Command]:
    """The paper's own output: every figure CSV on the default grid, reduced trials."""
    return [
        cli_command(["figure", "--which", fig, "--k-max", str(FIG_K_MAX),
                     "--trials", str(FIG_TRIALS[fig]), "--seed", str(seed)],
                    lambda text, fig=fig: check_figure_csv(fig, text))
        for fig in FIGURE_SERIES
    ]


def analytic(seed: int) -> list[Command]:
    """Exact chains, the joint-state oracle and bound series; no randomness, so
    the seed is unused."""
    commands = [
        cli_command(["exact", "--k", str(k), "--p", str(p), "--oracle", "--json"], check_oracle)
        for k in (2, 3) for p in ANALYTIC_P
    ]
    for p in ANALYTIC_K4_P:
        label = f"absorption_time_fine k=4 p={p}"
        gate = (check_equal(label, K4_HALF_DP, K4_HALF_TOL) if p == 0.5
                else check_at_least(label, _mds(4, p)))
        commands.append(k4_oracle_command(p, gate))
    commands += [cli_command(["bound", "--k", str(k), "--p", str(p), "--json"], check_bound)
                 for k, p in ANALYTIC_BOUNDS]
    return commands


def _simulation_reference(policy: str, k: int, p: float) -> tuple[float, bool]:
    """(value, near): the exact mean to match, or the ideal-code floor to stay above."""
    query = bounds.BoundQuery(k=k, p=p)
    if policy == "mds":
        return bounds.mds_expected(query), True
    if policy == "bound":
        return bounds.expected_ell(query), True
    if policy == "greedy" and (k, p) == (4, 0.5):
        # the analytic workload pins absorption_time_fine here to K4_HALF_DP;
        # solving the k=4 oracle again would put its 1.2 GB into this
        # workload's peak memory
        return K4_HALF_DP, True
    if policy == "greedy" and k <= 3:
        return markov.absorption_time_fine(markov.build_fine_chain(k), p), True
    return bounds.mds_expected(query), False


def simulate(seed: int) -> list[Command]:
    """Every simulation engine: table, scalar, rl short and long, counts."""
    commands = []
    for policy, k, p, trials in SIMULATIONS:
        reference, near = _simulation_reference(policy, k, p)
        commands.append(cli_command(
            ["simulate", "--policy", policy, "--k", str(k), "--p", str(p),
             "--trials", str(trials), "--seed", str(seed), "--json"],
            check_simulation(reference, near)))
    return commands


COMMAND_LISTS = {"figures": figures, "analytic": analytic, "simulate": simulate}


def build(workload: str, seed: int) -> list[Command]:
    """Commands of one workload at one seed; reference values are computed here."""
    commands = COMMAND_LISTS[workload](seed)
    clear_caches()
    return commands


def clear_caches() -> None:
    """Empty every memoized xorcast function, so no command reuses a chain that
    an earlier one built; separate CLI invocations could not."""
    for fn in _CACHED:
        fn.cache_clear()


def _cached_functions() -> list:
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "xorcast" or name.startswith("xorcast."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


_CACHED = _cached_functions()
