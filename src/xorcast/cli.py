"""Command-line front end: exact values, bounds, simulations, figure CSVs.

A thin layer over the library: FIGURES states each figure once, and _report
is the one writer of the exact, bound and simulate output.

Exit codes: 0 success, 1 usage error, 2 runtime/cap error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, markov, sim
from .gf2 import MAX_DIM

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0
DEFAULT_FIG2_KMAX = 32
DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(19))  # 0.00 .. 0.90
FIG2_P = (0.25, 0.5)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_k(k: int, upper: int = MAX_DIM) -> int:
    if not 2 <= k <= upper:
        why = " (single-packet runs are trivial)" if k < 2 else ""
        raise UsageError(f"k must be in [2, {upper}], got {k}{why}")
    return k


def _check_p(p: float) -> float:
    try:
        bounds._check_loss(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return p + 0.0  # -0.0 becomes 0.0


def _p_text(p: float) -> str:
    """p as %g where that reads back as p, else all of its digits."""
    text = f"{p:g}"
    return text if float(text) == p else repr(p)


def _parse_p_grid(text: str) -> list[float]:
    """Parse a comma-separated grid; figure_rows checks its values and order."""
    try:
        grid = [float(x) + 0.0 for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad p-grid: {exc}") from exc
    if not grid:
        raise UsageError("empty p-grid")
    return grid


def _report(args, out, payload: dict, header: str, lines: dict) -> int:
    """One JSON line of payload under --json, else header and label=value lines."""
    if args.json:
        out.write(json.dumps(payload) + "\n")
    else:
        out.write(header + "\n")
        for label, value in lines.items():
            text = value if isinstance(value, str) else f"{value:.6f}"  # floats as %.6f
            out.write(f"{label}={text}\n")
    return EXIT_OK


def cmd_exact(args, out) -> int:
    k = _check_k(args.k, upper=3)
    p = _check_p(args.p)
    e_tx = markov.expected_absorption_time(markov.build_chain(k), p)
    rt = bounds.retransmission_ratio(e_tx, k)
    payload = {"command": "exact", "k": k, "p": p, "e_tx": e_tx, "rt": rt}
    lines = {"E[t_x]": e_tx, "R_t": rt}
    if args.oracle:
        fine = markov.absorption_time_fine(markov.build_fine_chain(k), p)
        payload["fine"], payload["diff"] = fine, abs(e_tx - fine)
        lines.update(fine=fine, diff=f"{payload['diff']:.6e}")
    return _report(args, out, payload, f"k={k} p={_p_text(p)}", lines)


def cmd_bound(args, out) -> int:
    k = _check_k(args.k)
    p = _check_p(args.p)
    query = bounds.BoundQuery(k=k, p=p)
    ell = bounds.expected_ell(query)
    mds = bounds.mds_expected(query)
    delta = bounds.expected_delta(p)
    rt_ell = bounds.retransmission_ratio(ell, k)
    rt_mds = bounds.retransmission_ratio(mds, k)
    payload = {"command": "bound", "k": k, "p": p, "e_ell": ell, "e_delta": delta,
               "mds": mds, "rt_ell": rt_ell, "rt_mds": rt_mds,
               "rt_gap": rt_ell - rt_mds}
    return _report(args, out, payload, f"k={k} p={_p_text(p)}", {
        "E[l]": ell, "E[delta]": delta, "MDS": mds, "R_t upper": rt_ell,
        "R_t mds": rt_mds, "R_t gap": payload["rt_gap"]})


def cmd_simulate(args, out) -> int:
    k = _check_k(args.k)
    p = _check_p(args.p)
    if args.max_tx < 1:
        raise UsageError(f"max-tx must be >= 1, got {args.max_tx}")
    try:
        config = sim.ExperimentConfig(
            k=k, p=p, policy=args.policy, trials=args.trials,
            master_seed=args.seed, max_tx_per_trial=args.max_tx,
            rl_include_zero=args.include_zero,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = sim.run_experiment(config)
    payload = {"command": "simulate", "policy": args.policy, "k": k, "p": p,
               "trials": args.trials, "seed": args.seed,
               "mean": result.mean_tx, "stderr": result.stderr, "rt": result.rt}
    header = f"policy={args.policy} k={k} p={_p_text(p)} trials={args.trials} seed={args.seed}"
    return _report(args, out, payload, header,
                   {"mean": result.mean_tx, "stderr": result.stderr, "R_t": result.rt})


# figure id -> (curves, points(p_grid, k_max)): each point's metrics in row
# order, and the (k, p) points; a curve is computed in _point_rows
FIGURES = {
    "fig1a": (("exact_xor", "mds", "rl_sim", "rl_sim_stderr"),
              lambda grid, k_max: [(2, p) for p in grid]),
    "fig1b": (("exact_xor", "mds", "rl_sim", "rl_sim_stderr"),
              lambda grid, k_max: [(3, p) for p in grid]),
    "fig1c": (("exact_minus_mds_rt",),
              lambda grid, k_max: [(k, p) for k in (2, 3) for p in grid]),
    "fig2": (("bound_ell", "mds", "rl_sim", "rl_sim_stderr"),
             lambda grid, k_max: [(k, p) for p in FIG2_P for k in range(2, k_max + 1)]),
}


def _point_rows(which: str, k: int, p: float, trials: int,
                seed: int) -> list[tuple[str, int, float, str, float]]:
    series = FIGURES[which][0]
    values = {}
    if "exact_xor" in series or "exact_minus_mds_rt" in series:
        values["exact_xor"] = markov.expected_absorption_time(markov.build_chain(k), p) / k
    if "mds" in series or "exact_minus_mds_rt" in series:
        values["mds"] = bounds.mds_expected(bounds.BoundQuery(k=k, p=p)) / k
    if "bound_ell" in series:
        values["bound_ell"] = bounds.expected_ell(bounds.BoundQuery(k=k, p=p)) / k
    if "rl_sim" in series:
        config = sim.ExperimentConfig(k=k, p=p, policy="rl", trials=trials, master_seed=seed)
        result = sim.run_experiment(config)
        values["rl_sim"], values["rl_sim_stderr"] = result.rt, result.stderr / k
    if "exact_minus_mds_rt" in series:
        values["exact_minus_mds_rt"] = values["exact_xor"] - values["mds"]
    return [(which, k, p, metric, values[metric]) for metric in series]


def figure_rows(which: str, p_grid, trials: int, seed: int,
                k_max: int) -> list[tuple[str, int, float, str, float]]:
    """Rows (figure, k, p, metric, value); all transmission metrics in R_t units.

    Points come from FIGURES and run on sim.parallel_map's threads, with each
    point's simulation serial inside them; sorting fixes the row order.
    """
    if which not in FIGURES:
        raise UsageError(f"figure must be one of {tuple(FIGURES)}, got {which!r}")
    for p in p_grid:
        _check_p(p)
    if any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise UsageError("p-grid must be strictly increasing")
    points = FIGURES[which][1](p_grid, k_max)
    chunks = sim.parallel_map(lambda kp: _point_rows(which, *kp, trials, seed), points)
    return sorted(row for chunk in chunks for row in chunk)


def cmd_figure(args, out) -> int:
    try:  # the trials and seed of every point's simulation
        sim.ExperimentConfig(k=2, p=0.0, policy="rl", trials=args.trials, master_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    k_max = _check_k(args.k_max)
    if args.which == "fig2" and args.p_grid is not None:
        raise UsageError(f"fig2 runs at the fixed loss probabilities p in {FIG2_P} "
                         "and takes no --p-grid")
    p_grid = _parse_p_grid(args.p_grid) if args.p_grid is not None else DEFAULT_P_GRID
    rows = figure_rows(args.which, p_grid, args.trials, args.seed, k_max)

    if args.json:
        text = json.dumps([
            {"figure": f, "k": k, "p": p, "metric": m, "value": round(v, 6)}
            for f, k, p, m, v in rows
        ]) + "\n"
    else:
        text = "figure,k,p,metric,value\n" + "".join(
            f"{f},{k},{_p_text(p)},{m},{v:.6f}\n" for f, k, p, m, v in rows)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    else:
        out.write(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="xorcast",
                     description="Transmission counts for XOR-coded multicast to 3 clients")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact expected transmissions (k=2 or 3)")
    p_exact.add_argument("--k", type=int, required=True)
    p_exact.add_argument("--p", type=float, required=True)
    p_exact.add_argument("--oracle", action="store_true",
                         help="also solve the joint-state chain and print the difference")
    p_exact.set_defaults(func=cmd_exact)

    p_bound = sub.add_parser("bound", help="closed-form upper bound and MDS baseline")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--p", type=float, required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate under a policy")
    p_sim.add_argument("--policy", choices=sorted(sim.POLICIES), required=True)
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--max-tx", type=int, default=1_000_000,
                       help="per-trial transmission cap")
    p_sim.add_argument("--include-zero", action="store_true",
                       help="let the random-linear policy draw the zero vector")
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure", help="CSV data behind the summary figures")
    p_fig.add_argument("--which", required=True)
    p_fig.add_argument("--out", default=None, help="output path (default: stdout)")
    p_fig.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_fig.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_fig.add_argument("--p-grid", default=None,
                       help="comma-separated loss probabilities for fig1a/b/c "
                            "(default 0.00..0.90 step 0.05)")
    p_fig.add_argument("--k-max", type=int, default=DEFAULT_FIG2_KMAX,
                       help="largest packet count for the batch-size sweep")
    p_fig.set_defaults(func=cmd_figure)

    for command in sub.choices.values():  # the last option of every command
        command.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            sim._thread_count()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (sim.TransmissionCapError, MemoryError) as exc:  # e.g. counts for too many trials
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except markov.SolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
