import json
import math
import random
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Optional

import pytest

from shoreline import coil, golden
from shoreline.cli import build_parser, main
from shoreline.numerics import lambert_w0
from shoreline.spiral_geometry import Spiral, second_contact
from shoreline.spiral_objectives import erroneous_objective, minmax_objective, minmean_objective


def run_cli(*args: str, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "shoreline", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def _json_results(capsys, *argv: str) -> dict:
    # the printed record of an in-process `main` call that succeeded
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def _assert_usage_error(capsys, argv: list, name: str) -> None:
    # the library's one rule for `name` refused the value: exit 2, one
    # error line and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {name} must be finite")
    assert err.count("\n") == 1 and not caught


class TestSpiralCommands:
    def test_minmax_text(self, capsys):
        assert main(["spiral", "minmax"]) == 0
        out = capsys.readouterr().out
        # both routes print the published tenth digit
        assert "\nsystem_kappa = 0.2124695594\n" in out
        assert "\nkappa = 0.2124695594\n" in out
        assert "objective = 13.81113518" in out

    def test_minmean_json(self, capsys):
        assert main(["spiral", "minmean", "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "spiral minmean"
        assert rec["results"]["kappa"] == pytest.approx(0.3732051316, abs=1e-8)
        assert rec["results"]["objective"] == pytest.approx(7.0321857865, abs=1e-7)
        assert rec["results"]["route_gap_kappa"] < 1e-12

    def test_eval_with_radius_scaling(self, capsys):
        r1 = _json_results(capsys, "spiral", "eval", "--kappa", "0.5")
        r5 = _json_results(capsys, "spiral", "eval", "--kappa", "0.5", "--R", "5")
        # lengths scale by R, angles shift by ln(R)/kappa
        assert r5["minmax_objective"] == pytest.approx(5 * r1["minmax_objective"], rel=1e-9)
        assert r5["minmean_objective"] == pytest.approx(5 * r1["minmean_objective"], rel=1e-9)
        assert r5["theta1"] - r1["theta1"] == pytest.approx(math.log(5.0) / 0.5, abs=1e-9)

    def test_eval_requires_kappa(self, capsys):
        assert main(["spiral", "eval"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_eval_invalid_kappa(self):
        assert main(["spiral", "eval", "--kappa", "-0.3"]) == 2

    @pytest.mark.parametrize("radius", ["-2", "0", "nan", "inf", "-inf"])
    def test_invalid_radius(self, radius, capsys):
        for mode in (["minmax"], ["minmean"], ["eval", "--kappa", "0.5"]):
            _assert_usage_error(capsys, ["spiral", *mode, f"--R={radius}"], "R")


class TestCoilCommands:
    def test_minmax(self, capsys):
        res = _json_results(capsys, "coil", "minmax")
        assert res["gamma"] == pytest.approx(2.0, abs=1e-9)
        assert res["ratio"] == pytest.approx(9.0, abs=1e-9)

    def test_minmean(self, capsys):
        res = _json_results(capsys, "coil", "minmean")
        assert res["gamma_for_min"] == pytest.approx(5.7041372673, abs=1e-8)
        assert res["mean_min"] == pytest.approx(4.0089813375, abs=1e-8)
        assert res["gamma_for_max"] == pytest.approx(3.2232549401, abs=1e-8)
        assert res["mean_max"] == pytest.approx(4.8131558458, abs=1e-8)

    def test_minmean_text(self, capsys):
        # the period-min gamma prints the published tenth digit
        assert main(["coil", "minmean"]) == 0
        out = capsys.readouterr().out
        assert "\ngamma_for_min = 5.704137267\n" in out
        assert "\ngamma_for_max = 3.22325494\n" in out

    def test_mixed(self, capsys):
        res = _json_results(capsys, "coil", "mixed")
        assert res["gamma"] == pytest.approx(3.591121476669, abs=1e-10)

    def test_mixed_cross_check_failure(self, monkeypatch, capsys):
        # a Lambert W off by 1e-9 fails the 4-ulp cross-check against the
        # stationary root: one classified line, exit 1, no traceback
        monkeypatch.setattr(coil, "lambert_w0", lambda x: lambert_w0(x) + 1e-9)
        assert main(["coil", "mixed"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: coil mixed: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_eval(self, capsys):
        res = _json_results(capsys, "coil", "eval", "--gamma", "2", "--X", "3")
        assert res["delta"] == 11.0
        assert res["ratio"] == pytest.approx(11.0 / 3.0, rel=1e-12)
        assert res["bracket_index"] == 0

    def test_eval_at_origin(self):
        assert main(["coil", "eval", "--gamma", "2", "--X", "0"]) == 2

    @pytest.mark.parametrize("target", ["inf", "-inf", "nan", "0"])
    def test_eval_invalid_target(self, target, capsys):
        _assert_usage_error(capsys, ["coil", "eval", "--gamma", "2", f"--X={target}"], "X")


class TestSimulateCommands:
    def test_spiral_small(self, capsys):
        res = _json_results(capsys, "simulate", "spiral", "--kappa", "0.3732051316",
                            "-n", "20000", "--seed", "7")
        assert res["reference"] == pytest.approx(7.0321857865, abs=1e-7)
        assert abs(res["z_score"]) <= 3.0

    def test_mixed_z_bound(self, capsys):
        res = _json_results(capsys, "simulate", "mixed", "--gamma", "2", "-n", "50000",
                            "--seed", "7")
        assert res["reference"] == pytest.approx(1.0 + 3.0 / math.log(2.0), rel=1e-12)
        assert abs(res["z_score"]) <= 3.0

    def test_coil_sampler(self, capsys):
        res = _json_results(capsys, "simulate", "coil", "--gamma", "2", "--X", "1.7",
                            "-n", "4000", "--seed", "3")
        assert abs(res["z_score"]) <= 3.0

    @pytest.mark.parametrize("target", ["coil", "mixed"])
    @pytest.mark.parametrize("x", ["inf", "-inf", "nan", "-1", "0"])
    def test_invalid_target(self, target, x, capsys):
        _assert_usage_error(capsys, ["simulate", target, "--gamma", "2", f"--X={x}", "-n", "10"],
                            "X")

    def test_march_step_option_is_gone(self, capsys):
        # the Monte Carlo spiral run bisects without a march
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "spiral", "--kappa", "0.5", "--march-step", "0.02"])
        assert exc.value.code == 2
        assert "--march-step" in capsys.readouterr().err

    def test_no_hard_coded_diagnostics(self, capsys):
        # only a measured diagnostic is printed; these commands measure none
        for argv in (["coil", "eval", "--gamma", "2", "--X", "3"],
                     ["simulate", "mixed", "--gamma", "2", "-n", "100"]):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out.startswith("command = ") and "diag." not in out

    def test_seed_reproducibility_byte_identical(self, capsys):
        argv = ["simulate", "mixed", "--gamma", "2", "-n", "10000", "--seed", "42"]
        a = main(argv), capsys.readouterr().out
        b = main(argv), capsys.readouterr().out
        assert a[1] == b[1]
        assert a[0] == b[0] == 0


@pytest.mark.parametrize("argv", [
    ["spiral", "eval", "--kappa", "1000"],
    # e^(kappa*theta) overflows already at R = 1, so no R rescues these
    ["spiral", "eval", "--kappa", "1e300"],
    ["spiral", "eval", "--kappa", "1000", "--R", "1e-300"],
    ["coil", "eval", "--gamma", "1.000000001", "--X", "1e300"],
    ["coil", "eval", "--gamma", "1e300", "--X", "5"],
    ["spiral", "eval", "--kappa", "1e300", "--R", "10"],
])
def test_domain_edge_is_numerical_failure(argv, capsys):
    # one line naming the command and each input, never raw libm text
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"numerical failure: {argv[0]} {argv[1]} (")
    for flag, value in zip(argv[2::2], argv[3::2]):
        assert f"{flag.lstrip('-')}={float(value)!r}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "range error" not in err and "out of range" not in err


@pytest.mark.parametrize("radius", [1e-300, 0.1, 1.0, 10.0, 1e300])
def test_eval_equals_the_per_function_route(radius, capsys):
    # spiral eval solves the R = 1 contact once, reads the three objectives
    # from it and shifts it to R; each field is bit for bit what the public
    # functions give one by one
    rng = random.Random(f"spiral eval {radius!r}")
    for k in [rng.uniform(0.05, 2.0) for _ in range(20)]:
        assert main(["spiral", "eval", "--kappa", repr(k), "--R", repr(radius),
                     "--format", "json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        contact = second_contact(Spiral(k, radius))
        assert res == {
            "theta0": contact.theta0, "omega0": contact.omega0, "theta1": contact.theta1,
            "minmax_objective": radius * minmax_objective(k),
            "minmean_objective": radius * minmean_objective(k),
            "erroneous_objective": radius * erroneous_objective(k),
        }


@pytest.mark.parametrize("argv", [
    ["spiral", "eval", "--kappa", "5", "--R", "1e300"],
    ["spiral", "eval", "--kappa", "30", "--R", "1e-300"],
])
def test_domain_edge_is_finite(argv, capsys):
    # theta1 is solved at R = 1 and shifted by ln(R)/kappa, so these give
    # finite results; at kappa = 30 the cosine at theta1 is ~1e-43, far below
    # the rounding of theta1 - omega0, so the defining equation is checked as
    # a sign change within a few ulps of theta1
    assert main(argv + ["--format", "json"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert all(math.isfinite(v) for v in res.values())
    k, R = float(argv[3]), float(argv[5])
    th1, om0 = res["theta1"], res["omega0"]
    step = 4.0 * math.ulp(max(abs(th1), abs(om0)))

    def log_eq(th):
        cos = math.cos(th - om0)
        return k * th + math.log(cos) - math.log(R) if cos > 0.0 else -math.inf

    assert log_eq(th1 - step) < 0.0 <= log_eq(th1 + step)
    assert res["minmax_objective"] == pytest.approx(
        R * math.sqrt(1.0 + k * k) / k * math.exp(k * (th1 - math.log(R) / k)), rel=1e-12)


@pytest.mark.parametrize("mode, kappa", [("minmax", golden.MINMAX_KAPPA_REF),
                                         ("minmean", golden.MINMEAN_KAPPA_REF)])
def test_optimum_diagnostics(mode, kappa, capsys):
    # the direct route reports the find_root solve of the objective's
    # log-derivative: its iterations, its value at the root and the flag;
    # diagnostics stay out of the csv and json results
    assert main(["spiral", mode, "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    diag = rec["diagnostics"]
    assert set(diag) == {"iterations", "residual", "converged"}
    assert diag["converged"] is True and 0 < diag["iterations"] <= 200
    assert abs(diag["residual"]) <= 1e-13
    assert abs(rec["results"]["kappa"] - kappa) <= 1e-12
    assert not set(diag) & set(rec["results"])
    assert main(["spiral", mode, "--format", "csv"]) == 0
    assert "residual" not in capsys.readouterr().out


@pytest.mark.parametrize("x", ["8.9e307", "1e308", "1.7976931348623157e308"])
def test_simulate_coil_huge_target_is_walk_overflow(x, capsys):
    # 2*X overflows from 8.99e307 on; the draws are then X*(2u - 1), so the
    # run fails as the walk's own overflow, not as a non-finite target
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "coil", "--gamma", "2", "--X", x, "-n", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not caught and err.count("\n") == 1
    assert err.startswith("numerical failure: simulate coil (")
    assert "overflow: target beyond representable sweeps" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "spiral", "--kappa", "150", "-n", "50"],
    ["simulate", "spiral", "--kappa", "1000", "-n", "50"],
    ["simulate", "coil", "--gamma", "1.000000001", "--X", "1e300", "-n", "5"],
    ["simulate", "spiral", "--kappa", "1e300", "-n", "50"],
    ["simulate", "spiral", "--kappa", "1.7e308", "-n", "50"],
])
def test_sample_overflow_is_one_failure_line(argv):
    # statistics of overflowing samples fail without numpy warning text; run
    # in a subprocess, where a warning would reach stderr instead of pytest
    cp = run_cli(*argv)
    assert cp.returncode == 1
    assert cp.stdout == "" and "Warning" not in cp.stderr
    assert cp.stderr.startswith("numerical failure:") and cp.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    # at gamma = 1 + 1e-9 the 1000 draws on [-1e300, 1e300] start about 1e10
    # segments apart; the walk reads turning points only where rows are, and
    # the overflowing distances fail as one classified line
    ["--gamma", "1.000000001", "--X", "1e300", "-n", "1000"],
    # at gamma = 1 + 1e-14 and |X| <= 1e-300 the segment index is near 7e16,
    # past 2^53, where (-gamma)**k loses its sign; the 1e5 rows fail at once
    ["--gamma", "1.00000000000001", "--X", "1e-300"],
])
def test_coil_walk_spanning_many_segments_fails_fast(argv):
    cp = run_cli("simulate", "coil", *argv, timeout=10.0)
    assert cp.returncode == 1
    assert cp.stdout == "" and "Warning" not in cp.stderr
    assert cp.stderr.startswith("numerical failure:") and cp.stderr.count("\n") == 1


@pytest.mark.parametrize("gamma", ["7", "1.5"])
def test_underflowed_turning_point_is_one_failure_line(gamma, capsys):
    # draws of +-5e-324 sit in segments that start at a turning point
    # rounded to 0 or a subnormal, whose delta would fall below |X|
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "coil", "--gamma", gamma, "--X", "5e-324", "-n", "100"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not caught
    assert err.startswith("numerical failure: simulate coil (") and "underflow:" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, reason", [
    # powers of gamma near |X| round to one subnormal for ~1e12 indices
    (["--gamma", "1.000000000001", "--X", "5e-324"], "underflow:"),
    (["--gamma", "1.000000000001", "--X", "3e-320"], "underflow:"),
    (["--gamma", "1.000000000001", "--X=-5e-324"], "underflow:"),
    # the bracket index is past 2^53, where exponents are rounded
    (["--gamma", "1.00000000000001", "--X", "1e-300"], "beyond exact doubles"),
])
def test_unresolvable_bracket_fails_fast(argv, reason):
    # a bracket nudge that leaves its turning point unchanged is a failure,
    # not the first of up to ~1e12 more nudges
    cp = run_cli("coil", "eval", *argv, timeout=10.0)
    assert cp.returncode == 1
    assert cp.stdout == "" and "Warning" not in cp.stderr
    assert cp.stderr.startswith("numerical failure: coil eval (") and reason in cp.stderr
    assert cp.stderr.count("\n") == 1


@pytest.mark.parametrize("gamma, target", [("2", "5e-324"), ("1.000000000001", "1e-310")])
def test_subnormal_departure_is_refused(gamma, target, capsys):
    # the path to X leaves from a subnormal turning point (2^-1075 rounds to
    # 0 at gamma = 2), whose delta the coil walk refuses too
    assert main(["coil", "eval", "--gamma", gamma, "--X", target]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: coil eval (")
    assert "underflow:" in err and err.count("\n") == 1


def test_plot_data_non_finite_is_one_failure_line(tmp_path: Path):
    # average_ratio is inf - inf there; nothing is written
    out = tmp_path / "i.csv"
    cp = run_cli("plot-data", "I", "--gamma", "1.000000001", "--range", "4e299:5e299",
                 "--points", "5", "--out", str(out), timeout=30.0)
    assert cp.returncode == 1 and cp.stdout == "" and "Warning" not in cp.stderr
    assert cp.stderr.startswith("numerical failure: plot-data I (")
    assert cp.stderr.endswith("is not finite\n") and cp.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--gamma", "2", "--X", "1e308"],       # turning points overflow
    ["--gamma", "1e200", "--X", "1"],       # gamma^(2i+2+H) overflows
    ["--gamma", "1.0000001", "--X", "5e-324"],  # (gamma - 1)*X underflows to 0
    ["--gamma", "2", "--X", "5e-324"],      # x*gamma^(-H) below the smallest normal
    ["--gamma", "1.000000000000001", "--X", "1e-300"],  # bracket index beyond 2^52
])
def test_mixed_overflow_is_one_failure_line(argv, capsys):
    # the sampler's blocks run without numpy warnings; _summarize classifies
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "mixed", *argv, "-n", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not caught and "Warning" not in err
    assert err.startswith("numerical failure: simulate mixed (") and err.count("\n") == 1


def test_unholdable_sample_count_is_one_failure_line(capsys, tmp_path: Path):
    # a grid of 10^14 points needs 728 TiB, more than a process can address,
    # so numpy refuses the array without touching memory; nothing is written
    out_file = tmp_path / "i.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["plot-data", "I", "--gamma", "2", "--range", "1:2",
                     "--points", "100000000000000", "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not caught and not out_file.exists()
    assert err.startswith("memory failure: plot-data I (") and err.count("\n") == 1


def test_sample_count_beyond_exact_doubles_is_usage_error(capsys):
    # the sampler holds one block at any n, so a count is refused before the
    # first block where the merge's counts stop being exact doubles
    assert main(["simulate", "mixed", "--gamma", "2", "-n", str(2 ** 53 + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: samples must be >= 1 and <= 2**53, not 9007199254740993\n"


def test_parser_is_built_once_and_reused(capsys):
    # main shares one parser per process; successes, usage errors and
    # numerical failures in between leave nothing behind for the next call
    assert build_parser() is build_parser()
    first = ["coil", "eval", "--gamma", "2", "--X", "3", "--format", "json"]
    assert main(first) == 0
    out = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["coil", "eval", "--gamma", "2", "--X", "3", "--format", "yaml"])
    assert exc.value.code == 2
    assert main(["spiral", "eval", "--kappa", "1000"]) == 1
    assert main(["spiral", "eval", "--kappa", "0.5", "--R=-2"]) == 2
    capsys.readouterr()
    assert main(first) == 0
    assert capsys.readouterr().out == out


def test_parser_defaults_do_not_leak_between_calls(capsys):
    assert main(["simulate", "coil", "--gamma", "2", "--X", "5", "-n", "10", "--seed", "3",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["seed"] == 3
    assert main(["simulate", "coil", "--gamma", "2", "-n", "10", "--format", "json"]) == 0
    params = json.loads(capsys.readouterr().out)["parameters"]
    assert params["X"] == 1.0 and params["seed"] == golden.CHECK_SEED


KAPPA_COMMANDS = [["spiral", "eval"], ["simulate", "spiral", "-n", "10"],
                  ["plot-data", "spiral-path", "--range", "0:1"]]
GAMMA_COMMANDS = [["coil", "eval", "--X", "3"], ["simulate", "coil", "-n", "10"],
                  ["simulate", "mixed", "-n", "10"],
                  ["plot-data", "delta-ratio", "--range", "0.5:8"],
                  ["plot-data", "I", "--range", "1:4"]]
# (commands, flag, the rule's name in the error line, id prefix, values
# outside the rule's domain): kappa finite and > 0, gamma finite and > 1,
# an averaged radius finite and > 0.  R and X have their own tests above.
DOMAIN_CASES = [
    (KAPPA_COMMANDS, "--kappa", "kappa", "", ("nan", "inf", "-inf", "0")),
    (GAMMA_COMMANDS, "--gamma", "gamma", "", ("nan", "inf", "-inf", "1")),
    ([["plot-data", "I", "--gamma", "2"]], "--range", "X", "range=", ("-1:1", "0:1")),
]


@pytest.mark.parametrize("argv, flag, name, value", [
    pytest.param(cmd, flag, name, v, id=f"{cmd[0]}-{cmd[1]}-{prefix}{v}")
    for commands, flag, name, prefix, values in DOMAIN_CASES
    for cmd in commands for v in values])
def test_parameter_outside_domain_is_usage_error(argv, flag, name, value, tmp_path, capsys):
    # every command reads the library's one rule for its parameter, and
    # writes no file
    out_file = tmp_path / "out.csv"
    if argv[0] == "plot-data":
        argv = argv + ["--out", str(out_file)]
    _assert_usage_error(capsys, argv + [f"{flag}={value}"], name)
    assert not out_file.exists()


class TestPlotData:
    def test_delta_ratio_bounds(self, tmp_path: Path):
        out = tmp_path / "ratio.csv"
        assert main(["plot-data", "delta-ratio", "--gamma", "2",
                     "--range", "0.5:8", "--points", "400", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,ratio"
        ratios = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(1.0 < r <= 9.0 for r in ratios)

    def test_average_ratio_bounds(self, tmp_path: Path):
        out = tmp_path / "avg.csv"
        assert main(["plot-data", "I", "--gamma", "2",
                     "--range", "1:4", "--points", "300", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "X,I"
        vals = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(5.1588 <= v <= 5.4146 for v in vals)

    def test_spiral_path_radii_increase(self, tmp_path: Path):
        out = tmp_path / "path.csv"
        theta1 = 4.962789055213278
        assert main(["plot-data", "spiral-path", "--kappa", "0.2124695594",
                     f"--range=-10:{theta1}", "--points", "500", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,x,y"
        radii = [math.hypot(float(r.split(",")[1]), float(r.split(",")[2]))
                 for r in lines[1:]]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_csv_bit_identical(self, tmp_path: Path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            main(["plot-data", "delta-ratio", "--gamma", "2",
                  "--range", "0.5:8", "--points", "128", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path(self, tmp_path: Path):
        assert main(["plot-data", "I", "--gamma", "2", "--range", "1:4",
                     "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv")]) == 1

    def test_bad_range(self, tmp_path: Path):
        # a reversed or non-finite range is a usage error; run in a
        # subprocess, where a numpy warning would reach stderr
        out = tmp_path / "x.csv"
        for argv in (["I", "--gamma", "2", "--range", "4:1"],
                     ["spiral-path", "--kappa", "0.2", "--range=-inf:1"],
                     ["delta-ratio", "--gamma", "2", "--range", "0:inf"]):
            cp = run_cli("plot-data", *argv, "--out", str(out))
            assert cp.returncode == 2
            assert cp.stderr.startswith("error: --range") and "Warning" not in cp.stderr
            assert not out.exists()


class TestOutputFormats:
    def test_json_round_trip(self):
        from shoreline.cli import OutputRecord, emit
        rec = OutputRecord(command="coil minmax",
                           parameters={"gamma": 2.0},
                           results={"ratio": 9.0, "n": 3},
                           diagnostics={"converged": True})
        parsed = json.loads(emit(rec, "json"))
        assert parsed == rec.to_dict()

    def test_csv_shape(self, capsys):
        assert main(["coil", "minmax", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.startswith("command,")
        assert len(header.split(",")) == len(row.split(","))
        # 17-significant-digit round-trip: values reparse exactly
        gamma = float(row.split(",")[header.split(",").index("gamma")])
        assert gamma == pytest.approx(2.0, abs=1e-9)

    def test_text_prints_each_input_as_given(self, capsys):
        # param.* lines give each input shortest round-trip, so a gamma that
        # 10 significant digits would print as 1 reads back exactly; results
        # keep 10 significant digits
        argv = ["simulate", "coil", "--gamma", "1.0000000000001", "--X", "1e290", "-n", "10",
                "--seed", "3"]
        assert main(argv) == 0
        fields = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
        assert (fields["param.gamma"], fields["param.X"]) == ("1.0000000000001", "1e+290")
        assert (fields["param.n"], fields["param.seed"]) == ("10", "3")
        assert float(fields["param.gamma"]) == 1.0000000000001
        assert fields["mean"] == "2.001599834e+13"

    def test_usage_error_exit_code(self):
        assert run_cli("spiral", "bogus").returncode == 2
        assert run_cli().returncode == 2

    def test_stray_check_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coil", "eval", "--gamma", "2", "--X", "3", "--check"])
        assert exc.value.code == 2
        assert "--check" in capsys.readouterr().err

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "shoreline" in capsys.readouterr().out


def test_check_command_runs_full_suite(capsys):
    code = main(["check"])
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert "12/12 criteria passed" in out
    assert out.count("PASS") == 12
    assert "FAIL" not in out
