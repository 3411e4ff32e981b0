import hashlib
import json

import pytest

from xorcast import bounds, cli, engines, gf2, markov, sim

from conftest import run_fresh, run_measuring_peak


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_lossless_k2(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--k", "2", "--p", "0")
        assert code == 0
        assert "E[t_x]=2.000000" in out
        assert "R_t=1.000000" in out

    def test_lossless_k3(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--k", "3", "--p", "0")
        assert code == 0
        assert "E[t_x]=3.000000" in out

    def test_oracle_flag_k2(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--k", "2", "--p", "0.5", "--oracle")
        assert code == 0
        payload = dict(line.split("=", 1) for line in out.strip().splitlines()[1:])
        assert float(payload["diff"]) <= 1e-9

    def test_oracle_flag_k3_reports_residual(self, capsys):
        # the k=3 table lumps the joint-state chain exactly; only solver
        # rounding remains
        code, out, _ = run_cli(capsys, "exact", "--k", "3", "--p", "0.5", "--oracle")
        assert code == 0
        payload = dict(line.split("=", 1) for line in out.strip().splitlines()[1:])
        assert float(payload["diff"]) <= 1e-9

    def test_oracle_near_p1(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--k", "3", "--p", "0.99999999",
                               "--oracle", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["diff"] <= 1e-15 * data["e_tx"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--k", "2", "--p", "0.25", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2
        exact = markov.expected_absorption_time(markov.build_chain(2), 0.25)
        assert data["e_tx"] == pytest.approx(exact)

    def test_solver_error_is_internal_error(self, capsys, monkeypatch):
        def fail(chain, p):
            raise markov.SolverError("transition 1 -> 0 goes to a lower index")
        monkeypatch.setattr(markov, "expected_absorption_time", fail)
        code, out, err = run_cli(capsys, "exact", "--k", "2", "--p", "0.5")
        assert code == cli.EXIT_INTERNAL == 3 and out == ""
        assert err == "internal error: transition 1 -> 0 goes to a lower index\n"

    def test_k_validation(self, capsys):
        assert run_cli(capsys, "exact", "--k", "1", "--p", "0.2")[0] == 1
        assert run_cli(capsys, "exact", "--k", "4", "--p", "0.2")[0] == 1

    def test_p_validation(self, capsys):
        assert run_cli(capsys, "exact", "--k", "2", "--p", "1.0")[0] == 1
        assert run_cli(capsys, "exact", "--k", "2", "--p", "-0.1")[0] == 1
        assert run_cli(capsys, "exact", "--k", "2", "--p", "-0")[1].startswith("k=2 p=0\n")


class TestBound:
    def test_lossless_k3(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--k", "3", "--p", "0")
        assert code == 0
        assert "E[l]=4.000000" in out
        assert "MDS=3.000000" in out
        assert "E[delta]=1.000000" in out

    def test_delta_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--k", "2", "--p", "0.5")
        assert code == 0
        assert "E[delta]=0.653061" in out

    def test_gap_bounded_k8(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--k", "8", "--p", "0.25", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["e_ell"] >= data["mds"]
        assert data["e_ell"] - data["mds"] <= 1.0

    def test_k1_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--k", "1", "--p", "0.2")
        assert code == 1
        assert "got 1 (single-packet runs are trivial)" in err

    def test_k64_rejected_without_the_single_packet_note(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--k", "64", "--p", "0.2")
        assert code == 1
        assert "k must be in [2, 63], got 64" in err
        assert "single-packet" not in err

    def test_near_p1_answered_by_the_chain(self, capsys):
        # the series would need over 10^7 terms here; the reception-count chain does not
        code, out, _ = run_cli(capsys, "bound", "--k", "63", "--p", "0.99999", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["e_ell"] == pytest.approx(7016489.426919, abs=1e-6)
        assert data["mds"] == pytest.approx(6979560.517315, abs=1e-6)
        assert run_cli(capsys, "bound", "--k", "2", "--p", "0.999999")[0] == 0


class TestSimulate:
    def test_lossless_greedy(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--policy", "greedy", "--k", "2",
                               "--p", "0", "--trials", "100", "--seed", "1")
        assert code == 0
        assert "mean=2.000000" in out
        assert "stderr=0.000000" in out

    def test_mds_against_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--policy", "mds", "--k", "3",
                               "--p", "0.5", "--trials", "20000", "--seed", "7", "--json")
        assert code == 0
        data = json.loads(out)
        exact = bounds.mds_expected(bounds.BoundQuery(k=3, p=0.5))
        assert abs(data["mean"] - exact) <= 3 * data["stderr"]

    def test_rl_not_better_than_greedy(self, capsys):
        _, out_rl, _ = run_cli(capsys, "simulate", "--policy", "rl", "--k", "3",
                               "--p", "0.25", "--trials", "5000", "--seed", "7", "--json")
        _, out_g, _ = run_cli(capsys, "simulate", "--policy", "greedy", "--k", "3",
                              "--p", "0.25", "--trials", "5000", "--seed", "7", "--json")
        assert json.loads(out_rl)["mean"] >= json.loads(out_g)["mean"]

    def test_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--policy", "greedy", "--k", "3",
                               "--p", "0.9", "--trials", "10", "--seed", "1",
                               "--max-tx", "2")
        assert code == 2
        assert "cap" in err
        # k/(1-p) = 2e6 is above the default 10^6 cap, so no trial runs
        code, out, err = run_cli(capsys, "simulate", "--policy", "rl", "--k", "2",
                                 "--p", "0.999999")
        assert code == 2 and out == ""
        assert err.startswith("runtime error: the ideal-code mean") and "Traceback" not in err

    def test_cap_limits(self, capsys):
        # counts are int32, so the cap stops at 2^31 - 1; the run configuration checks both ends
        for cap in ("0", "2147483648"):
            code, out, err = run_cli(capsys, "simulate", "--policy", "mds", "--k", "2",
                                     "--p", "0.1", "--trials", "10", "--max-tx", cap)
            assert code == 1 and out == ""
            assert err.startswith("usage error:") and "2^31 - 1" in err and err.count("\n") == 1

    def test_bad_policy(self, capsys):
        assert run_cli(capsys, "simulate", "--policy", "magic", "--k", "2",
                       "--p", "0.1")[0] == 1

    def test_bad_trials(self, capsys):
        assert run_cli(capsys, "simulate", "--policy", "mds", "--k", "2",
                       "--p", "0.1", "--trials", "0")[0] == 1

    def test_greedy_above_scan_limit_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--policy", "greedy", "--k", "21",
                               "--p", "0.1", "--trials", "1")
        assert code == 1
        assert err.startswith("usage error:") and "k <= 20" in err

    @pytest.mark.parametrize("threads", ["abc", "-3", "0"])
    def test_invalid_thread_setting_is_usage_error(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("XORCAST_THREADS", threads)
        code, _, err = run_cli(capsys, "simulate", "--policy", "mds", "--k", "2",
                               "--p", "0.1", "--trials", "10")
        assert code == 1
        assert err.startswith("usage error:") and "XORCAST_THREADS" in err


class TestFigure:
    def test_fig1c_zero_loss_rows_are_zero(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig1c",
                               "--p-grid", "0,0.25,0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "figure,k,p,metric,value"
        zero_rows = [ln for ln in lines[1:] if ln.split(",")[2] == "0"]
        assert len(zero_rows) == 2
        assert all(ln.endswith("0.000000") for ln in zero_rows)
        # a negative zero is the same grid point, written as 0
        assert run_cli(capsys, "figure", "--which", "fig1c",
                       "--p-grid=-0.0,0.25,0.5")[1] == out

    def test_fig1c_near_p1(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig1c", "--p-grid", "0.99999999")
        assert code == 0
        assert [line.split(",")[:3] for line in out.strip().splitlines()[1:]] == [
            ["fig1c", "2", "0.99999999"], ["fig1c", "3", "0.99999999"]]

    def test_distinct_p_print_distinct(self, capsys):
        # %g keeps six digits: p that it would merge print all of their digits
        out = run_cli(capsys, "figure", "--which", "fig1c",
                      "--p-grid", "0.1234567,0.1234568")[1]
        keys = [tuple(line.split(",")[:3]) for line in out.strip().splitlines()[1:]]
        assert len(set(keys)) == len(keys) == 4
        assert ("fig1c", "2", "0.1234567") in keys
        assert run_cli(capsys, "exact", "--k", "2", "--p", "0.99999999")[1].startswith(
            "k=2 p=0.99999999\n")

    def test_fig1c_values_finite_nonnegative(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig1c")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            value = float(line.rsplit(",", 1)[1])
            assert value >= 0.0

    def test_fig1a_deterministic_and_thread_invariant(self, capsys, monkeypatch, tmp_path):
        args = ["figure", "--which", "fig1a", "--seed", "42", "--trials", "500",
                "--p-grid", "0,0.2,0.5"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("XORCAST_THREADS", "4")
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_fig1a_rows_rt_at_least_one(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig1a", "--trials", "400",
                               "--seed", "3", "--p-grid", "0.1,0.5")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            figure, k, p, metric, value = line.split(",")
            assert figure == "fig1a" and k == "2"
            if metric != "rl_sim_stderr":
                assert float(value) >= 1.0

    # SHA-256 of the figure CSVs at --seed 1 --k-max 10. A change that alters
    # the random streams on purpose must update these pins and say so in
    # CHANGES.md.
    PINNED_CSV_SHA256 = {
        ("fig1a", 2000): "310ac6070a9f15179f7e23369b09d6226a21e878cdbb5c63e80bdad520763fdf",
        ("fig1b", 2000): "632ab2c876f7925332f0480d0af1ef60a69ad7aed6ae3a2aa199b0ab83384dfd",
        ("fig2", 400): "207d96a059dae9fa6bcefb411aa4305ec944b87c444f73f9da2f61c30a177b02",
    }
    # the same for the JSON writer; a key's third element is the extra flag
    PINNED_JSON_SHA256 = {
        ("fig1c", 2000, "--json"):
            "213472f72e603c7bc338d07248e3d1c1fdeb61d2ae5789a83d2e891c83bc535f",
    }

    def test_csv_bytes_pinned_at_fixed_seed(self, capsys, tmp_path):
        pins = {**self.PINNED_CSV_SHA256, **self.PINNED_JSON_SHA256}
        for (which, trials, *flags), want in pins.items():
            path = tmp_path / f"{which}.out"
            assert cli.main(["figure", "--which", which, "--k-max", "10", "--trials",
                             str(trials), "--seed", "1", "--out", str(path), *flags]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want, (which, flags)
        capsys.readouterr()

    def test_fig2_matches_bound_command(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig2", "--k-max", "4",
                               "--trials", "200", "--seed", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        ell_row = next(r for r in rows
                       if r["metric"] == "bound_ell" and r["k"] == 3 and r["p"] == 0.25)
        want = bounds.expected_ell(bounds.BoundQuery(k=3, p=0.25)) / 3
        assert ell_row["value"] == pytest.approx(want, abs=1e-6)
        # mds lower-bounds the schedule bound in every row pair
        for k in (2, 3, 4):
            for p in (0.25, 0.5):
                ell = next(r["value"] for r in rows
                           if r["metric"] == "bound_ell" and r["k"] == k and r["p"] == p)
                mds = next(r["value"] for r in rows
                           if r["metric"] == "mds" and r["k"] == k and r["p"] == p)
                assert mds <= ell + 1e-9

    def test_rows_sorted(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--which", "fig1c",
                               "--p-grid", "0.1,0.3")
        keys = []
        for line in out.strip().splitlines()[1:]:
            figure, k, p, metric, _ = line.split(",")
            keys.append((figure, int(k), float(p), metric))
        assert keys == sorted(keys)

    def test_unknown_figure(self, capsys):
        assert run_cli(capsys, "figure", "--which", "fig9")[0] == 1

    def test_bad_p_grid(self, capsys):
        assert run_cli(capsys, "figure", "--which", "fig1c", "--p-grid", "0.5,0.2")[0] == 1
        assert run_cli(capsys, "figure", "--which", "fig1c", "--p-grid", "0.5,1.5")[0] == 1
        code, out, err = run_cli(capsys, "figure", "--which", "fig1c", "--p-grid", "")
        assert code == 1 and out == "" and "empty p-grid" in err
        code, out, err = run_cli(capsys, "figure", "--which", "fig1c", "--p-grid", "0.1,abc")
        assert code == 1 and out == "" and err.startswith("usage error: bad p-grid")

    def test_fig2_rejects_p_grid(self, capsys):
        # fig2 sweeps k at two fixed loss probabilities; a grid it would ignore is refused
        code, out, err = run_cli(capsys, "figure", "--which", "fig2", "--p-grid", "0.1",
                                 "--trials", "10", "--k-max", "3")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "0.25, 0.5" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f.csv"
        code, _, err = run_cli(capsys, "figure", "--which", "fig1c",
                               "--p-grid", "0.1", "--out", str(target))
        assert code == 2
        assert "cannot write" in err

    def test_series_term_limit_is_runtime_error(self, capsys):
        # rl_sim's ideal-code mean 2e6 is above the transmission cap: refused up front
        code, _, err = run_cli(capsys, "figure", "--which", "fig1a", "--p-grid", "0.999999")
        assert code == 2
        assert err.startswith("runtime error:") and "Traceback" not in err
        assert "ideal-code mean" in err


# simulate and figure take the same trials and seed; greedy at k = 16 runs the
# scalar path, the others the trial driver
RUN_COMMANDS = {
    "simulate": ["simulate", "--policy", "mds", "--k", "2", "--p", "0.5"],
    "simulate-scalar": ["simulate", "--policy", "greedy", "--k", "16", "--p", "0.5"],
    "figure": ["figure", "--which", "fig1a", "--p-grid", "0.5"],
}


class TestRunArguments:
    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, command, seed):
        # such a seed would alias one inside [0, 2^64)
        code, out, err = run_cli(capsys, *RUN_COMMANDS[command], "--trials", "10",
                                 "--seed", str(seed))
        assert code == 1 and out == ""
        assert err.startswith("usage error: seed must be in [0, 2^64)")

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_too_many_trials_is_runtime_error(self, capsys, command):
        code, out, err = run_cli(capsys, *RUN_COMMANDS[command], "--trials", str(10**15))
        assert code == 2 and out == ""
        assert err.startswith("runtime error: Unable to allocate") and err.count("\n") == 1

    def test_too_many_trials_refused_before_touching_memory(self):
        run = ("import contextlib, io\nfrom xorcast import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    codes = [cli.main([*argv, '--trials', '{{}}']) for argv in {list(RUN_COMMANDS.values())}]\n"
               "print(*codes)")
        few, few_mb = run_measuring_peak(run.format(10))
        many, many_mb = run_measuring_peak(run.format(10**15))
        assert few == ["0"] * len(RUN_COMMANDS) and many == ["2"] * len(RUN_COMMANDS)
        assert many_mb < few_mb + 5


class TestFigureRows:
    def test_validation(self):
        with pytest.raises(cli.UsageError, match="figure must be one of"):
            cli.figure_rows("fig9", [0.1], 10, 0, 4)
        with pytest.raises(cli.UsageError, match="strictly increasing"):
            cli.figure_rows("fig1a", [0.5, 0.2], 10, 0, 4)
        with pytest.raises(cli.UsageError, match="0 <= p < 1"):
            cli.figure_rows("fig1a", [0.5, 1.0], 10, 0, 4)

    def test_parallel_dispatch_matches_serial(self, monkeypatch):
        # fig1a points each run an rl simulation above one _BLOCK inside the point pool
        trials = sim._BLOCK + 1
        for which in ("fig1c", "fig1a"):
            monkeypatch.delenv("XORCAST_THREADS", raising=False)
            serial = cli.figure_rows(which, [0.1, 0.4], trials, 11, 4)
            # cold caches: the threads build the chains and tables concurrently
            markov._aggregated_chain.cache_clear()
            gf2.subspace_table.cache_clear()
            monkeypatch.setenv("XORCAST_THREADS", "6")
            assert cli.figure_rows(which, [0.1, 0.4], trials, 11, 4) == serial, which

    def test_point_blocks_run_on_one_thread(self, monkeypatch):
        # figure points take the threads; a point's simulation, though above one
        # _BLOCK, runs as one slice on its point's thread and opens no second pool
        seen = []
        block = engines._rl_table_block

        def traced(config, lo, out):
            seen.append((config.p, lo, lo + len(out)))
            block(config, lo, out)

        monkeypatch.setattr(engines, "_rl_table_block", traced)
        monkeypatch.setenv("XORCAST_THREADS", "2")
        cli.figure_rows("fig1a", [0.1, 0.5], sim._BLOCK + 1, 3, 4)
        assert sorted(seen) == [(p, 0, sim._BLOCK + 1) for p in (0.1, 0.5)]


# Whole stdout of each report command, byte for byte. The text and JSON
# layouts are part of the interface; a change to either must update these.
PINNED_STDOUT = {
    "exact --k 3 --p 0.5": (
        "k=3 p=0.5\n"
        "E[t_x]=8.109220\n"
        "R_t=2.703073\n"),
    "exact --k 2 --p 0.5 --oracle": (
        "k=2 p=0.5\n"
        "E[t_x]=5.707807\n"
        "R_t=2.853903\n"
        "fine=5.707807\n"
        "diff=0.000000e+00\n"),
    "exact --k 2 --p 0.25 --json": (
        '{"command": "exact", "k": 2, "p": 0.25, "e_tx": 3.432137350178167, '
        '"rt": 1.7160686750890835}\n'),
    "exact --k 3 --p 0.5 --oracle": (
        "k=3 p=0.5\n"
        "E[t_x]=8.109220\n"
        "R_t=2.703073\n"
        "fine=8.109220\n"
        "diff=0.000000e+00\n"),
    "exact --k 3 --p 0.5 --oracle --json": (
        '{"command": "exact", "k": 3, "p": 0.5, "e_tx": 8.109220139666636, '
        '"rt": 2.703073379888879, "fine": 8.109220139666636, "diff": 0.0}\n'),
    "bound --k 8 --p 0.25": (
        "k=8 p=0.25\n"
        "E[l]=12.902876\n"
        "E[delta]=0.825585\n"
        "MDS=12.286972\n"
        "R_t upper=1.612859\n"
        "R_t mds=1.535871\n"
        "R_t gap=0.076988\n"),
    "bound --k 8 --p 0.25 --json": (
        '{"command": "bound", "k": 8, "p": 0.25, "e_ell": 12.902875562207146, '
        '"e_delta": 0.8255845202902445, "mds": 12.286971610385283, '
        '"rt_ell": 1.6128594452758933, "rt_mds": 1.5358714512981604, '
        '"rt_gap": 0.07698799397773293}\n'),
    "bound --k 8 --p 0.5": (
        "k=8 p=0.5\n"
        "E[l]=20.339959\n"
        "E[delta]=0.653061\n"
        "MDS=19.456633\n"
        "R_t upper=2.542495\n"
        "R_t mds=2.432079\n"
        "R_t gap=0.110416\n"),
    # the reception-count chain, which takes over from the series near p = 1
    "bound --k 32 --p 0.99 --json": (
        '{"command": "bound", "k": 32, "p": 0.99, "e_ell": 3721.9917286664577, '
        '"e_delta": 0.010198939914097375, "mds": 3683.595501026689, '
        '"rt_ell": 116.3122415208268, "rt_mds": 115.11235940708403, '
        '"rt_gap": 1.199882113742774}\n'),
    "simulate --policy rl --k 5 --p 0.3 --trials 300 --seed 4": (
        "policy=rl k=5 p=0.3 trials=300 seed=4\n"
        "mean=11.410000\n"
        "stderr=0.171639\n"
        "R_t=2.282000\n"),
    "simulate --policy rl --k 5 --p 0.3 --trials 300 --seed 4 --json": (
        '{"command": "simulate", "policy": "rl", "k": 5, "p": 0.3, "trials": 300, '
        '"seed": 4, "mean": 11.41, "stderr": 0.1716394161787325, "rt": 2.282}\n'),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == PINNED_STDOUT[command]


def test_package_exact_and_bound_load_no_numpy():
    # numpy was most of a fresh `import xorcast`; it now loads with the first
    # simulation or reception-count chain, and those still print their pins
    free = ["exact --k 3 --p 0.5 --oracle", "bound --k 8 --p 0.5"]
    loading = ["bound --k 32 --p 0.99 --json",
               "simulate --policy rl --k 5 --p 0.3 --trials 300 --seed 4"]
    report = json.loads(run_fresh(
        "import contextlib, io, json, sys\n"
        "import xorcast\n"
        "report = {'import xorcast': [0, '', 'numpy' in sys.modules]}\n"
        "from xorcast import cli\n"
        "report['import xorcast.cli'] = [0, '', 'numpy' in sys.modules]\n"
        f"for command in {free + loading!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(command.split())\n"
        "    report[command] = [code, out.getvalue(), 'numpy' in sys.modules]\n"
        "print(json.dumps(report))\n"))
    for step in ["import xorcast", "import xorcast.cli", *free]:
        assert report[step][2] is False, step
    for command in free + loading:
        assert report[command][:2] == [0, PINNED_STDOUT[command]], command


def test_unknown_figure_message_pinned(capsys):
    code, out, err = run_cli(capsys, "figure", "--which", "fig9")
    assert (code, out) == (1, "")
    assert err == ("usage error: figure must be one of "
                   "('fig1a', 'fig1b', 'fig1c', 'fig2'), got 'fig9'\n")


def test_no_arguments_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 1
