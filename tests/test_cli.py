import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdep
from maxdep import cli
from maxdep.cli import Table, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# maxdep ")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows[0], rows[1:]


def test_diagonal_movingmax_row(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "movingmax", "--k", "1", "--n", "3", "--u-grid", "0.5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "u", "delta", "distortion"]
    assert float(rows[0][2]) == pytest.approx(0.25, abs=1e-15)
    assert float(rows[0][3]) == pytest.approx(0.5 ** (4.0 / 6.0), rel=1e-14)


def test_diagonal_independence_distortion_is_identity(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "independence", "--rate", "n", "--n", "2,64", "--u-grid", "0.1:0.9:9")
    assert code == 0
    _, _, rows = parse_csv(out)
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[1]), abs=1e-12)


def test_diagonal_clayton_value(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--u-grid", "0.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_diagonal_power_rate_spec(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "independence", "--rate", "n^0.5", "--n", "16", "--u-grid", "0.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(0.5 ** (16.0 / 4.0), rel=1e-12)


def test_distortion_gumbel_density_is_one(capsys):
    code, out = run_cli(capsys, "distortion", "--generator", "gumbel", "--theta", "2", "--u-grid", "0.1:0.9:9")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(abs(float(r[3]) - 1.0) < 1e-8 for r in rows)


def test_distortion_clayton_boundary_density(capsys):
    code, out = run_cli(capsys, "distortion", "--generator", "clayton", "--theta", "1", "--u-grid", "1.0")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-12)


def test_distortion_efgm_symmetry(capsys):
    _, plus = run_cli(capsys, "distortion", "--generator", "efgm", "--theta", "0.5", "--u-grid", "0.1:0.9:17")
    _, minus = run_cli(capsys, "distortion", "--generator", "efgm", "--theta", "-0.5", "--u-grid", "0.1:0.9:17")
    _, _, rp = parse_csv(plus)
    _, _, rm = parse_csv(minus)
    assert [r[2] for r in rp] == [r[2] for r in rm]


def test_bound_scenarios(capsys):
    code, out = run_cli(capsys, "bound", "--model", "movingmax-normal", "--k", "1", "--n", "10000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.5707, abs=1e-3)

    code, out = run_cli(capsys, "bound", "--model", "cuadras-auge", "--theta", "0.5", "--n", "10")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(3.60e-4, abs=2e-6)
    assert float(rows[0][2]) == pytest.approx(1.078e-3, abs=1e-6)

    code, out = run_cli(capsys, "bound", "--model", "iid-frechet", "--n", "2^3..2^5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["8", "16", "32"]
    assert all(float(r[1]) == 0.0 for r in rows)

    code, out = run_cli(capsys, "bound", "--model", "logistic-normal", "--theta", "2", "--n", "1000000")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(3.0 / math.log(1000) + 3.0 / (math.e * 1000.0), rel=1e-12)


def test_converge_iid(capsys):
    code, out = run_cli(
        capsys, "converge", "--model", "iid", "--margin", "unit-frechet", "--n", "64", "--reps", "5000", "--seed", "11"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["n", "sup_distance", "max_se", "bound"]
    # exactly max-stable margin: only MC noise remains
    assert float(rows[0][1]) <= 4.0 * float(rows[0][2])


def test_converge_movingmax_bound_column(capsys):
    code, out = run_cli(
        capsys, "converge", "--model", "movingmax", "--k", "1", "--margin", "unit-frechet",
        "--n", "256", "--reps", "5000", "--seed", "5",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    sup, max_se, bound = float(rows[0][1]), float(rows[0][2]), float(rows[0][3])
    assert sup <= bound + 4.0 * max_se
    # the exponential margin has no known uniform rate, so no bound is printed
    code, out = run_cli(
        capsys, "converge", "--model", "movingmax", "--k", "1", "--margin", "exponential",
        "--n", "16", "--reps", "4096", "--seed", "5",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[0][3] == ""


def test_converge_clayton_trajectory(capsys):
    # pinned fixture run: beyond n ~ 1e3 the analytic distance sits below the
    # MC noise floor at these reps, so the strict ordering is a property of
    # this seeded trajectory, not of every seed
    code, out = run_cli(
        capsys, "converge", "--model", "clayton", "--theta", "2", "--margin", "exponential",
        "--n", "100,1000,10000", "--reps", "20000", "--seed", "45",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    sups = [float(r[1]) for r in rows]
    assert sups[0] > sups[1] > sups[2]


@pytest.mark.parametrize("family,flags,t1,t2,schedule", [
    ("clayton", ["--theta", "2"], 0.3, 0.2, "2^4..2^14"),
    ("logistic", ["--theta", "2"], 0.25, 0.25, "2^10..2^20"),
])
def test_mixing_rows_are_the_per_n_discrepancies(capsys, family, flags, t1, t2, schedule):
    # the schedule is evaluated in one call; each row is the scalar call at its n
    code, out = run_cli(capsys, "mixing", "--family", family, *flags, "--t1", str(t1), "--t2", str(t2),
                        "--u", "0.41", "--n", schedule)
    assert code == 0
    _, _, rows = parse_csv(out)
    fam = maxdep.make_diagonal(family, theta=2.0)
    lo, hi = (int(e) for e in schedule.replace("2^", "").split(".."))
    assert [int(r[0]) for r in rows] == [2**e for e in range(lo, hi + 1)]
    for n, v, disc in rows:
        assert float(v) == math.exp(math.log(0.41) / fam.canonical_rate(int(n)))
        assert float(disc) == maxdep.mixing_discrepancy(fam, int(n), t1, t2, float(v))


def test_mixing_command(capsys):
    code, out = run_cli(
        capsys, "mixing", "--family", "logistic", "--theta", "2", "--t1", "0.25", "--t2", "0.25",
        "--u", "0.5", "--n", "1000000",
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.5 ** (1.0 / math.sqrt(2.0)) - 0.5, abs=5e-3)

    code, out = run_cli(capsys, "mixing", "--family", "independence", "--t1", "0.25", "--t2", "0.25", "--u", "0.5", "--n", "100")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) < 1e-12

    code, out = run_cli(
        capsys, "mixing", "--family", "clayton", "--theta", "1", "--t1", "0.25", "--t2", "0.25", "--u", "0.5", "--n", "10000"
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) > 0.01


def test_n_schedule_single_power_of_two(capsys):
    code, out = run_cli(capsys, "bound", "--model", "iid-frechet", "--n", "2^4")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["16"]
    code, out = run_cli(capsys, "bound", "--model", "iid-frechet", "--n", "2^2,100")
    assert code == 0
    assert [r[0] for r in parse_csv(out)[2]] == ["4", "100"]
    for bad in ("2^-1", "2^x", "2^x..2^4", "2^4..2^2", "2^\u00b2", "2^\u00b2..2^4"):
        code, _ = run_cli(capsys, "bound", "--model", "iid-frechet", "--n", bad)
        assert code == 2, bad


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _ = run_cli(capsys, "diagonal", "--family", "nonsense", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "-1", "--n", "2", "--u-grid", "0.5")
    assert code == 3
    # an infinite model parameter is a domain error; frank and clayton once
    # printed a degenerate law, and diagonal and converge raised a traceback.
    # An overflowing rate n^400 (once an OverflowError traceback) is an
    # arithmetic error, and a logistic-normal theta of 0 or 1e-300 (once a
    # ZeroDivisionError or OverflowError) lies outside the logistic domain:
    # each is a numeric error, exit 3 and one line
    for argv in (
        ["distortion", "--generator", "frank", "--theta", "inf", "--u-grid", "0.3,0.6"],
        ["distortion", "--generator", "clayton", "--theta", "inf", "--u-grid", "0.3,0.6"],
        ["distortion", "--generator", "power", "--theta", "inf", "--u-grid", "0.3,0.6"],
        ["diagonal", "--family", "clayton", "--theta", "inf", "--n", "4", "--u-grid", "0.5"],
        ["diagonal", "--family", "logistic", "--theta", "inf", "--n", "4", "--u-grid", "0.5"],
        ["converge", "--model", "clayton", "--theta", "inf", "--margin", "normal", "--n", "16", "--reps", "4096"],
        ["diagonal", "--family", "clayton", "--theta", "2", "--rate", "n^400", "--n", "1024", "--u-grid", "0.5"],
        ["mixing", "--family", "clayton", "--theta", "2", "--rate", "n^400", "--n", "1024", "--t1", "0.2",
         "--t2", "0.2", "--u", "0.5"],
        ["bound", "--model", "logistic-normal", "--theta", "0", "--n", "2"],
        ["bound", "--model", "logistic-normal", "--theta", "1e-300", "--n", "2"],
        # a non-finite margin parameter, once "sigma must be a positive real" or "c_n must be positive"
        ["converge", "--model", "iid", "--margin", "pareto", "--alpha", "inf", "--n", "16", "--reps", "4096"],
        ["converge", "--model", "iid", "--margin", "exponential", "--lam", "inf", "--n", "16", "--reps", "4096"],
        # u^(1/r_n) rounds to 1 at n = 2^53, once blamed on a level v the user never passed
        ["mixing", "--family", "clayton", "--theta", "2", "--t1", "0.25", "--t2", "0.25", "--u", "0.5",
         "--n", "2^50,2^52,2^53"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        # the overflow names the rate and n, not errno 34
        if "n^400" in argv:
            assert captured.err == "error: rate n^400 overflows at n=1024\n", argv
        if "inf" in argv[-5:]:
            assert "must be finite, got inf" in captured.err, argv
        if "2^50,2^52,2^53" in argv:
            assert captured.err == "error: u^(1/r_n) rounds to 1 at n=9007199254740992 for --u 0.5\n"
    # logistic-normal takes the logistic model's rate, and with it its domain
    # message; theta = -1 at n = 4 once read "n must be an integer >= 2, got 1"
    assert main(["bound", "--model", "logistic-normal", "--theta", "-1", "--n", "4"]) == 3
    assert capsys.readouterr().err == "error: logistic theta must be >= 1, got -1.0\n"
    code, _ = run_cli(capsys, "mixing", "--family", "movingmax", "--k", "1", "--t1", "0.2", "--t2", "0.2", "--u", "0.5", "--n", "10")
    assert code == 2
    # a missing model parameter, a model without a diagonal, a model without a sampler
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "diagonal", "--family", "ar1", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "converge", "--model", "ballerini", "--margin", "normal", "--n", "64")
    assert code == 2
    # distortion: a generator without its --theta, an unknown generator
    code, _ = run_cli(capsys, "distortion", "--generator", "clayton", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "distortion", "--generator", "nosuch", "--theta", "1", "--u-grid", "0.5")
    assert code == 2
    # distortion: a model whose parameter it has no flag for, models without a limit
    for name in ("movingmax", "comonotone", "ar1"):
        code, _ = run_cli(capsys, "distortion", "--generator", name, "--theta", "1", "--u-grid", "0.5")
        assert code == 2, name
    # malformed text is a usage error, not a numeric one
    for grid in ("0:1:x", "0:1:-3", "0:1", "0:1:2:3"):
        code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--u-grid", grid)
        assert code == 2, grid
    # an empty grid asks for nothing; converge must refuse it before drawing
    for grid in ("0:1:0", ","):
        code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--u-grid", grid)
        assert code == 2, grid
    code, _ = run_cli(capsys, "converge", "--model", "iid", "--margin", "normal", "--n", "64", "--x-grid", "0:1:0")
    assert code == 2
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--u-grid", "0.5", "--rate", "n^x")
    assert code == 2
    # a family without a canonical rate, an unknown rate spec, a schedule end
    # that is not 2^k, a config line without '=' (after a comment line) and an
    # unknown bound scenario: one line each
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("# a comment\ntheta 2\n")
    clayton = ["diagonal", "--family", "clayton", "--theta", "2", "--u-grid", "0.5"]
    for argv, err in (
        (["diagonal", "--family", "comonotone", "--n", "2", "--u-grid", "0.5"], "family comonotone has no canonical rate; pass --rate n"),
        ([*clayton, "--n", "2", "--rate", "foo"], "unknown rate spec 'foo'"),
        ([*clayton, "--n", "2^4..8"], "bad n schedule '2^4..8'; use e.g. 2^4..2^12"),
        ([*clayton, "--n", "2", "--config", str(bad_line)], "bad config line 'theta 2'"),
        (["bound", "--model", "nosuch", "--n", "4"], "unknown bound scenario 'nosuch'"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"usage error: {err}\n", argv
    with pytest.raises(cli.UsageError, match="^unknown format 'xml'$"):
        Table("diagonal", {}, ["n"]).render("xml")
    bad_value = tmp_path / "bad.cfg"
    bad_value.write_text("theta=abc\n")
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--n", "2", "--u-grid", "0.5", "--config", str(bad_value))
    assert code == 2
    # a config value is cast with its flag's own type, as the flag's text is
    movingmax = ["converge", "--model", "movingmax", "--margin", "unit-frechet", "--n", "16"]
    for text in ("k=2.5\n", "reps=1e4\n"):
        bad_value.write_text(text)
        assert main([*movingmax, "--config", str(bad_value)]) == 2, text
        assert capsys.readouterr().err.startswith("usage error: bad value for config key"), text
    with pytest.raises(SystemExit) as err:
        main([*movingmax, "--k", "2.5"])
    assert err.value.code == 2 and "invalid int value: '2.5'" in capsys.readouterr().err
    # a required flag set neither on the command line nor in the file: one line
    assert main(["diagonal", "--n", "2", "--u-grid", "0.5"]) == 2
    assert capsys.readouterr().err == "usage error: --family is required\n"
    # an unknown margin is a usage error that lists the margin names, as an unknown model is
    assert main(["converge", "--model", "iid", "--margin", "cauchy", "--n", "16"]) == 2
    assert capsys.readouterr().err == (
        "usage error: unknown margin 'cauchy'; pick from unit-frechet, frechet, exponential, normal, uniform, pareto\n"
    )
    # an unreadable config and an unwritable output: one line, no traceback
    row = ["diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--u-grid", "0.5"]
    for flags in (["--config", str(tmp_path / "missing.cfg")], ["--config", str(tmp_path)], ["--out", str(tmp_path / "no" / "x.csv")]):
        assert main(row + flags) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    # a seed outside [0, 2^64) would alias another seed's stream: a domain error
    converge = ["converge", "--model", "iid", "--margin", "unit-frechet", "--n", "16", "--reps", "4096"]
    for seed in ("18446744073709551616", "18446744073709551621", "-5"):
        code, out = run_cli(capsys, *converge, "--seed", seed)
        assert code == 3 and out == "", seed
    monkeypatch.setenv("MAXDEP_SEED", "-1")
    code, out = run_cli(capsys, *converge)
    assert code == 3 and out == ""
    monkeypatch.delenv("MAXDEP_SEED")
    # fewer than one worker is a usage error, not a silent inline run
    for workers in ("0", "-3"):
        code, _ = run_cli(capsys, *converge, "--workers", workers)
        assert code == 2, workers
    # a NaN --x-grid point is a domain error raised before any block is drawn;
    # unit-frechet once read it as ecdf = target = 0 and exited 0
    with monkeypatch.context() as patch:
        patch.setattr(maxdep.samplers.RngStream, "block_generator", lambda *a: pytest.fail("drew a block"))
        for margin in ("unit-frechet", "normal"):
            argv = ["converge", "--model", "iid", "--margin", margin, "--n", "8", "--reps", "4096", "--x-grid", "nan,1"]
            assert main(argv) == 3, margin
            out, err = capsys.readouterr()
            assert out == "" and "NaN threshold" in err, margin
    # a level outside [0, 1] is a domain error before any row is written
    for argv in (["--generator", "figure1", "--u-grid", "2"], ["--generator", "clayton", "--theta", "2", "--u-grid", "1.5,-0.5"],
                 ["--generator", "power", "--theta", "2", "--u-grid", "0.5,nan"]):
        assert main(["distortion", *argv]) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and "must lie in [0, 1]" in err, argv
    # so is a NaN level of diagonal, which once read as u = 1
    assert main(["diagonal", "--family", "clayton", "--theta", "2", "--n", "2", "--u-grid", "0.5,nan"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "diagonal argument must lie in [0, 1]" in err
    # mixing names the domain of --u instead of a bare math domain error
    for u in ("0", "1", "-0.5"):
        assert main(["mixing", "--family", "clayton", "--theta", "2", "--t1", "0.2", "--t2", "0.3", "--u", u, "--n", "10"]) == 3
        assert "(0, 1)" in capsys.readouterr().err, u
    # diagonal has no --phi flag, so the parser rejects it before any lookup
    with pytest.raises(SystemExit) as err:
        main(["diagonal", "--family", "ar1", "--phi", "0.5", "--n", "2", "--u-grid", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_unknown_name_lists_the_names_with_the_role(capsys):
    assert main(["distortion", "--generator", "nosuch", "--u-grid", "0.5"]) == 2
    names = capsys.readouterr().err.split("pick from ")[1].strip().split(", ")
    assert {"power", "amh-mixture", "efgm", "clayton", "independence"} <= set(names)
    assert not {"comonotone", "ar1"} & set(names)
    assert main(["converge", "--model", "nosuch", "--margin", "normal", "--n", "64"]) == 2
    names = capsys.readouterr().err.split("pick from ")[1].strip().split(", ")
    assert "ar1" in names and not {"power", "ballerini", "comonotone"} & set(names)


def test_distortion_limit_only_models(capsys):
    code, out = run_cli(capsys, "distortion", "--generator", "power", "--theta", "2", "--u-grid", "0.25,0.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows == [["power(2.0)", "0.25", "0.0625", "0.5", "0.5"], ["power(2.0)", "0.5", "0.25", "1.0", "0.7071067811865476"]]
    _, mix = run_cli(capsys, "distortion", "--generator", "amh-mixture", "--u-grid", "0.3")
    _, alias = run_cli(capsys, "distortion", "--generator", "amh-uniform-mixture", "--u-grid", "0.3")
    assert parse_csv(mix)[2] == parse_csv(alias)[2]
    assert parse_csv(mix)[2][0][0] == "amh-uniform-mixture"


def test_distortion_identity_limits_are_exact(capsys):
    # the independence diagonal and the efgm diagonal at theta = 0 both tend to u
    grid = "0,0.1,0.30000000000000004,0.7,1"
    for argv in (["--generator", "independence"], ["--generator", "efgm", "--theta", "0"]):
        code, out = run_cli(capsys, "distortion", *argv, "--u-grid", grid)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["power(1.0)"] * 5
        assert [r[2] for r in rows] == [r[1] for r in rows]
        assert [r[4] for r in rows] == ["", "0.1", "0.30000000000000004", "0.7", ""]
        assert all(r[3] == "1.0" for r in rows)


def test_distortion_boundary_grid_has_no_quantiles(capsys):
    # no level inside (0, 1): the quantile call gets an empty array
    for argv in (["efgm", "--theta", "0.8"], ["ballerini"], ["amh-mixture"], ["power", "--theta", "0.5"], ["figure1"]):
        code, out = run_cli(capsys, "distortion", "--generator", *argv, "--u-grid", "0,1")
        assert code == 0, argv
        _, _, rows = parse_csv(out)
        assert rows and all(r[2] == r[1] and r[4] == "" for r in rows), argv


def test_amh_diagonal_mixed_grid_is_quiet(capsys):
    # 1 - psi(t) is taken only where t < 1e-6; at u = 1e-300 it once overflowed
    code, out = run_cli(capsys, "diagonal", "--family", "amh", "--theta", "0.6", "--n", "2", "--u-grid", "1e-300,0.99999999")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert [r[2] for r in rows] == ["0.0", "0.99999998"]


def _rows(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return parse_csv(out)[2]


@pytest.mark.parametrize("family", [["ballerini"], ["movingmax", "--k", "2"], ["logistic", "--theta", "2"],
                                    ["efgm", "--theta", "-0.8"], ["amh", "--theta", "0.6"], ["frank", "--theta", "3"]])
def test_diagonal_schedule_equals_per_n_rows(capsys, family):
    # the schedule is evaluated in one call; unsorted and with a repeat, it
    # prints the rows of one call per n, in the order of the schedule
    ns = ["16", "2", "4", "2^10", "16"]
    grid = ["--u-grid", "0:1:23"]
    rows = _rows(capsys, "diagonal", "--family", *family, "--n", ",".join(ns), *grid)
    assert rows == [row for n in ns for row in _rows(capsys, "diagonal", "--family", *family, "--n", n, *grid)]
    assert [row[0] for row in rows[::23]] == ["16", "2", "4", "1024", "16"]


def test_diagonal_n_past_int64(capsys):
    # n is exact in its column and in the rate past 2^63, with no wraparound
    argv = ["diagonal", "--n", "2^63,2^70", "--u-grid", "0.3,0.999", "--family"]
    assert _rows(capsys, *argv, "clayton", "--theta", "2") == [
        ["9223372036854775808", "0.3", "1.0355133330371713e-10", "0.6735919438354738"],
        ["9223372036854775808", "0.999", "7.35722821588712e-09", "0.9995001248958567"],
        ["1180591620717411303424", "0.3", "9.152731247495845e-12", "0.6735919438354738"],
        ["1180591620717411303424", "0.999", "6.502932452738484e-10", "0.9995001248958567"],
    ]
    assert _rows(capsys, *argv, "ballerini") == [
        ["9223372036854775808", "0.3", "5.244414825714687e-20", "0.218421575469236"],
        ["9223372036854775808", "0.999", "4.079414608863648e-16", "0.9930648186954967"],
        ["1180591620717411303424", "0.3", "4.0971990825896038e-22", "0.218489527195804"],
        ["1180591620717411303424", "0.999", "3.1870426631747286e-18", "0.9929814331457363"],
    ]
    assert _rows(capsys, *argv, "movingmax", "--k", "2") == [
        ["9223372036854775808", "0.3", "0.0", "0.6694329500821695"],
        ["9223372036854775808", "0.999", "0.0", "0.9996665554937859"],
        ["1180591620717411303424", "0.3", "0.0", "0.6694329500821695"],
        ["1180591620717411303424", "0.999", "0.0", "0.9996665554937859"],
    ]


def test_diagonal_schedule_with_n_below_one(capsys):
    # wherever n = 0 sits in the schedule, nothing is printed
    for ns in ("0,4", "4,0"):
        assert main(["diagonal", "--family", "clayton", "--theta", "2", "--n", ns, "--u-grid", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: n must be an integer >= 1, got 0\n", ns


def test_diagonal_ballerini_output_is_pinned(capsys):
    # the numeric-inverse path with both grid endpoints, at u (delta) and
    # at the root u^(1/r_n) (distortion)
    code, out = run_cli(capsys, "diagonal", "--family", "ballerini", "--n", "2,16,1024", "--u-grid", "0:1:11")
    assert code == 0
    assert out == (
        "# maxdep diagonal family=archimedean[ballerini] n=2,16,1024 rate=1/(1-psi(1/eta)) u-grid=0:1:11 version=0.1.0\n"
        "n,u,delta,distortion\n"
        "2,0.0,0.0,0.0\n"
        "2,0.1,0.05351597009273897,0.14304529038573102\n"
        "2,0.2,0.11455858665521798,0.23917903554817102\n"
        "2,0.30000000000000004,0.1839239883653273,0.3297276147608935\n"
        "2,0.4,0.2624906051657514,0.4191424438935188\n"
        "2,0.5,0.3512389186096473,0.509200571049222\n"
        "2,0.6000000000000001,0.4512857243142231,0.6008950913830464\n"
        "2,0.7000000000000001,0.5639481016637313,0.6949403803997556\n"
        "2,0.8,0.6908795132515695,0.7920039807982237\n"
        "2,0.9,0.8344416301825254,0.8929495200549091\n"
        "2,1.0,1.0,1.0\n"
        "16,0.0,0.0,0.0\n"
        "16,0.1,0.007137567748483242,0.11405596101047703\n"
        "16,0.2,0.01650254885008306,0.17382255418205209\n"
        "16,0.30000000000000004,0.0290463456757918,0.23417633341268965\n"
        "16,0.4,0.04629679991196563,0.2994746011943567\n"
        "16,0.5,0.07084115532097292,0.3724498134782548\n"
        "16,0.6000000000000001,0.10736545464004679,0.45580478486409487\n"
        "16,0.7000000000000001,0.16514100755017924,0.552864980704704\n"
        "16,0.8,0.2649064257688711,0.6683450324506138\n"
        "16,0.9,0.4627750930222525,0.810139767012189\n"
        "16,1.0,1.0,1.0\n"
        "1024,0.0,0.0,0.0\n"
        "1024,0.1,0.00011259797156207638,0.11884973450709231\n"
        "1024,0.2,0.0002636513382873194,0.16706968933795116\n"
        "1024,0.30000000000000004,0.00047207184403303147,0.21549400361724952\n"
        "1024,0.4,0.000770611190414539,0.2684684295264944\n"
        "1024,0.5,0.0012207032633915326,0.32907247598794137\n"
        "1024,0.6000000000000001,0.0019508912753740829,0.40080986295576515\n"
        "1024,0.7000000000000001,0.0032767231558134,0.48862998549904174\n"
        "1024,0.8,0.006202653421728802,0.6006285303740297\n"
        "1024,0.9,0.01613478313065354,0.7527295603692192\n"
        "1024,1.0,1.0,1.0\n"
    )


def test_nan_cell_is_a_numeric_error(capsys, monkeypatch):
    table = Table("t", {}, ["a", "b"])
    table.add(1, None)
    with pytest.raises(ValueError):
        table.add(1, float("nan"))
    with pytest.raises(ValueError):
        table.add(np.float64("nan"), 2.0)
    # a NaN anywhere in an array column: the call appends no row at all
    with pytest.raises(ValueError):
        table.add(np.array([1, 2, 3]), np.array([0.5, 1.5, np.nan]))
    with pytest.raises(ValueError):
        table.add(2, np.array([None, 0.5, math.nan], dtype=object))
    assert table.rows == [[1, None]]
    # a scalar repeats down the array column; cells are Python numbers
    table.add(2, np.array([0.25, 0.5]))
    assert table.rows == [[1, None], [2, 0.25], [2, 0.5]]
    assert [type(v) for v in table.rows[1]] == [int, float]
    # a None cell is an empty csv cell and a JSON null
    assert table.render("csv").splitlines()[1:] == ["a,b", "1,", "2,0.25", "2,0.5"]
    assert json.loads(table.render("jsonl").splitlines()[1]) == {"a": 1, "b": None}
    monkeypatch.setattr(cli.ratebounds, "cuadras_auge_sup", lambda n, theta: (math.nan, 0.0))
    code, out = run_cli(capsys, "bound", "--model", "cuadras-auge", "--theta", "0.5", "--n", "10")
    assert code == 3
    assert out == ""


# cells csv.writer treats in its own ways: floats it prints with repr (the
# signed zero, infinities, subnormals, 1e16 and 2^53 + 2 at the edges of
# repr's forms), ints past 2^63 that only an object array holds, None, and
# text that it quotes or leaves bare
FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, 1e-310, 1e16, 2.0**53 + 2, 1e-4, 9.999999999999999e-05]),
)
INTS = st.integers(-(2**63), 2**63 - 1)
TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "\u00e9"]), max_size=4)
OBJECTS = st.one_of(st.none(), FLOATS, st.integers(-(2**80), 2**80), TEXT)


@st.composite
def table_columns(draw, k: int, m: int):
    """The value of one add argument: a Python scalar, or an array of shape
    (m,), (k, 1) or (k, m) holding floats, ints, bools, text or objects."""
    kind = draw(st.sampled_from(["float", "int", "bool", "str", "object"]))
    shape = draw(st.sampled_from([(), (m,), (k, 1), (k, m)]))
    size = math.prod(shape)
    cells = {"float": FLOATS, "int": INTS, "bool": st.booleans(), "str": TEXT, "object": OBJECTS}[kind]
    values = draw(st.lists(cells, min_size=size, max_size=size))
    if not shape:
        return values[0]
    if kind == "object":
        arr = np.empty(size, dtype=object)
        arr[:] = values
        return arr.reshape(shape)
    return np.array(values, dtype={"float": float, "int": np.int64, "bool": bool, "str": str}[kind]).reshape(shape)


@st.composite
def table_adds(draw, unique: bool = False):
    """The column names of a Table of 1-5 columns, and the values of 1-3 add
    calls filling it, each broadcasting (k, 1) against (m,)."""
    width = draw(st.integers(1, 5))
    names = draw(st.lists(TEXT.filter(bool), min_size=width, max_size=width, unique=unique))
    adds = []
    for _ in range(draw(st.integers(1, 3))):
        k, m = draw(st.integers(1, 3)), draw(st.integers(0, 4))
        adds.append([draw(table_columns(k, m)) for _ in range(width)])
    return names, adds


def _filled(names, adds) -> Table:
    table = Table("t", {"x": 1}, names)
    for values in adds:
        table.add(*values)
    return table


def tables():
    """A Table of 1-5 columns filled by 1-3 add calls."""
    return table_adds().map(lambda drawn: _filled(*drawn))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tables())
def test_csv_render_is_what_csv_writer_writes(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    assert table.render("csv") == f"# {table._meta()}\n" + buf.getvalue()


def _cell(x):
    return x.item() if isinstance(x, np.generic) else x


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(table_adds(unique=True))
def test_rows_jsonl_and_csv_are_the_added_values(drawn):
    # the rows of each add call built apart from the table: broadcast, then
    # read cell by cell in C order
    names, adds = drawn
    table = _filled(names, adds)
    rows = []
    for values in adds:
        cols = np.broadcast_arrays(*(np.array(v, ndmin=1) for v in values))
        rows += [[_cell(col[i]) for col in cols] for i in np.ndindex(cols[0].shape)]
    assert table.rows == rows
    assert [list(map(type, row)) for row in table.rows] == [list(map(type, row)) for row in rows]
    lines = table.render("jsonl").splitlines()
    assert json.loads(lines[0]) == {"_meta": table._meta()}
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = [repr(v) if isinstance(v, float) and math.isinf(v) else v for v in row]
        assert json.loads(line, parse_constant=_no_constant) == dict(zip(names, cells))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(rows)
    assert table.render("csv") == f"# {table._meta()}\n" + buf.getvalue()


def test_csv_render_formats_a_repeated_column_once(monkeypatch):
    # figure1's u column is added once per family; its text is made once
    calls = []
    real = cli._csv_text
    monkeypatch.setattr(cli, "_csv_text", lambda a: calls.append(a.shape) or real(a))
    table = Table("t", {}, ["family", "u", "cdf"])
    grid = np.linspace(0.0, 1.0, 5)
    n = np.array([2, 4, 2**70], dtype=object)[:, None]
    for label in ("a", "b", "c"):
        table.add(label, grid, grid**2)
    table.add(n, grid, n * grid)
    lines = table.render("csv").splitlines()
    assert len(lines) == 2 + 3 * 5 + 3 * 5
    assert lines[-1] == "1180591620717411303424,1.0,1.1805916207174113e+21"
    # three labels, one grid, one grid**2, the object n column and n * grid
    assert sorted(calls) == sorted([(1,)] * 3 + [(5,)] * 2 + [(3, 1), (3, 5)])
    # a later change to an added array changes neither rows nor the text
    text = table.render("csv")
    grid[:] = 0.5
    assert table.render("csv") == text
    assert table.rows[1][1] == 0.25
    # equal bytes in another shape or dtype are other text
    table = Table("t", {}, ["a", "b"])
    table.add(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    table.add(np.zeros(1, dtype=np.int64), np.zeros(1))
    assert table.render("csv").splitlines()[2:] == ["1.0,1.0", "1.0,2.0", "2.0,1.0", "2.0,2.0", "0,0.0"]


def test_jsonl_format(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "independence", "--n", "2", "--u-grid", "0.5", "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["_meta"].endswith(f" version={maxdep.__version__}")
    rec = json.loads(lines[1])
    assert rec["n"] == 2 and rec["u"] == 0.5


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_jsonl_is_strict_json(capsys):
    # the density of the Clayton limit is infinite at u = 0
    code, out = run_cli(capsys, "distortion", "--generator", "clayton", "--theta", "2", "--u-grid", "0:1:3", "--format", "jsonl")
    assert code == 0
    recs = [json.loads(line, parse_constant=_no_constant) for line in out.splitlines()]
    assert recs[1]["density"] == "inf"
    table = Table("t", {}, ["a", "b"])
    table.add(math.inf, -math.inf)
    assert table.render("csv").splitlines()[2] == "inf,-inf"
    assert json.loads(table.render("jsonl").splitlines()[1]) == {"a": "inf", "b": "-inf"}
    # a NaN that got past add is refused, not printed
    table._blocks.append([np.array([0.0]), np.array([math.nan])])
    with pytest.raises(ValueError):
        table.render("jsonl")


def test_distortion_jsonl_matches_csv(capsys):
    argv = ["distortion", "--generator", "figure1", "--u-grid", "0:1:11"]
    _, text = run_cli(capsys, *argv)
    _, header, rows = parse_csv(text)
    _, lines = run_cli(capsys, *argv, "--format", "jsonl")
    recs = [json.loads(line, parse_constant=_no_constant) for line in lines.splitlines()[1:]]
    assert len(recs) == len(rows) == 8 * 11
    for row, rec in zip(rows, recs):
        assert set(rec) == set(header)
        for col, cell in zip(header, row):
            value = rec[col]
            if cell == "":
                assert value is None
            elif col == "family" or cell in ("inf", "-inf"):
                assert value == cell
            else:
                assert value == float(cell)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=2\nu-grid=0.5\n")
    code, out = run_cli(capsys, "diagonal", "--family", "clayton", "--n", "2", "--config", str(cfg))
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(float(np.asarray(7.0) ** -0.5), rel=1e-12)
    # explicit flag beats the file
    code, out = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "1", "--n", "2", "--config", str(cfg))
    _, _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # the file may set any flag, the required --family, --n and --t1 included
    cfg.write_text("family=clayton\nn=2\ntheta=2\nu-grid=0.5\n")
    code, from_file = run_cli(capsys, "diagonal", "--config", str(cfg))
    assert (code, from_file) == run_cli(capsys, "diagonal", "--family", "clayton", "--n", "2", "--theta", "2", "--u-grid", "0.5")
    cfg.write_text("t1=0.25\n")
    mixing = ["mixing", "--family", "logistic", "--theta", "2", "--t2", "0.25", "--u", "0.5", "--n", "1000"]
    code, from_file = run_cli(capsys, *mixing, "--config", str(cfg))
    assert code == 0 and from_file == run_cli(capsys, *mixing, "--t1", "0.25")[1]


def test_config_keys_are_the_subcommand_flags(tmp_path, capsys, monkeypatch):
    # command and config name no flag a file may set: command=bound once ran
    # diagonal and exited 0
    cfg = tmp_path / "run.cfg"
    diagonal = ["diagonal", "--family", "clayton", "--theta", "2", "--n", "2", "--u-grid", "0.5", "--config", str(cfg)]
    for line in ("command=bound", "config=other.cfg", "phi=0.5"):
        cfg.write_text(line + "\n")
        assert main(diagonal) == 2, line
        key = line.partition("=")[0]
        assert capsys.readouterr() == ("", f"usage error: unknown config key {key!r}\n"), line

    # a file value outside its flag's choices fails before any draw, with the
    # message an unknown format gave once the table was rendered
    def no_draw(*args, **kwargs):
        raise AssertionError("converge drew paths for a bad config value")

    monkeypatch.setattr(cli.samplers, "normalized_max_ecdf", no_draw)
    cfg.write_text("format=xml\n")
    converge = ["converge", "--model", "iid", "--margin", "normal", "--n", "1024", "--reps", "200000", "--config", str(cfg)]
    assert main(converge) == 2
    assert capsys.readouterr() == ("", "usage error: unknown format 'xml'\n")
    # the flag wins over the file, as for any other key
    monkeypatch.undo()
    code, out = run_cli(capsys, "converge", "--model", "iid", "--margin", "normal", "--n", "16", "--reps", "4096",
                        "--config", str(cfg), "--format", "jsonl")
    assert code == 0 and out.startswith('{"_meta"')


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("MAXDEP_SEED", "999")
    _, out1 = run_cli(capsys, "converge", "--model", "iid", "--margin", "unit-frechet", "--n", "32", "--reps", "2000", "--seed", "1")
    monkeypatch.delenv("MAXDEP_SEED")
    _, out2 = run_cli(capsys, "converge", "--model", "iid", "--margin", "unit-frechet", "--n", "32", "--reps", "2000", "--seed", "999")
    _, out3 = run_cli(capsys, "converge", "--model", "iid", "--margin", "unit-frechet", "--n", "32", "--reps", "2000", "--seed", "1")
    assert out1 == out2
    assert out1 != out3


def test_output_file_and_repeatability(tmp_path, capsys):
    args = ["converge", "--model", "clayton", "--theta", "2", "--margin", "exponential", "--n", "64", "--reps", "3000", "--seed", "42"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2), "--workers", "3"]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_converge_joe_is_worker_invariant(capsys):
    args = ["converge", "--model", "joe", "--theta", "2", "--margin", "unit-frechet", "--n", "64,256",
            "--reps", "12288", "--seed", "17"]
    code1, out1 = run_cli(capsys, *args, "--workers", "1")
    code3, out3 = run_cli(capsys, *args, "--workers", "3")
    assert code1 == code3 == 0
    assert out1 == out3


def test_converge_frank_output_is_pinned(capsys):
    # the Frank frailty and psi paths print exactly these bytes; a change to
    # any shared sampler code that moves a draw shows here
    code, out = run_cli(
        capsys, "converge", "--model", "frank", "--theta", "3", "--margin", "exponential",
        "--n", "16,64", "--reps", "8192", "--seed", "7",
    )
    assert code == 0
    assert out == (
        "# maxdep converge margin=exponential(1.0) model=arch-frailty[frank(3.0)] n=16,64 reps=8192 seed=7"
        " x-grid=auto41 version=0.1.0\n"
        "n,sup_distance,max_se,bound\n"
        "16,0.08421852484570652,0.0055225248271436305,\n"
        "64,0.0339436605834329,0.005523659083020005,\n"
    )


# generated before the samplers took their row maxima on the draw scale (iid:
# before paths were drawn as raw Philox words); the path models must print
# these bytes however they draw and reduce a row
PINNED_PATH_MODELS = {
    "efgm": (
        ["--theta", "0.8", "--margin", "unit-frechet"],
        "# maxdep converge margin=unit-frechet model=efgm(0.8) n=16,64 reps=8192 seed=7 x-grid=auto41 version=0.1.0\n"
        "n,sup_distance,max_se,bound\n"
        "16,0.01957636209719882,0.005524058355478607,\n"
        "64,0.008505274026883392,0.005524092436368126,\n",
    ),
    "ar1": (
        ["--phi", "0.5", "--margin", "normal"],
        "# maxdep converge margin=normal model=ar1(0.5) n=16,64 reps=8192 seed=7 x-grid=auto41 version=0.1.0\n"
        "n,sup_distance,max_se,bound\n"
        "16,0.17538867187499996,0.005524133267301905,\n"
        "64,0.11380078124999998,0.005523191444764823,\n",
    ),
    "iid": (
        ["--margin", "unit-frechet"],
        "# maxdep converge margin=unit-frechet model=iid n=16,64 reps=8192 seed=7 x-grid=auto41 version=0.1.0\n"
        "n,sup_distance,max_se,bound\n"
        "16,0.008465820312499983,0.005523938329802191,0.0\n"
        "64,0.009882812500000004,0.005524113510436149,0.0\n",
    ),
    "movingmax": (
        ["--k", "2", "--margin", "unit-frechet"],
        "# maxdep converge margin=unit-frechet model=movingmax(2) n=16,64 reps=8192 seed=7 x-grid=auto41 version=0.1.0\n"
        "n,sup_distance,max_se,bound\n"
        "16,0.04016862259510634,0.005522351078353951,0.04330492701432732\n"
        "64,0.01576679823490018,0.005523860122368337,0.011319813984547325\n",
    ),
}


@pytest.mark.parametrize("model", sorted(PINNED_PATH_MODELS))
def test_converge_path_model_output_is_pinned(capsys, model):
    flags, expected = PINNED_PATH_MODELS[model]
    code, out = run_cli(capsys, "converge", "--model", model, *flags, "--n", "16,64", "--reps", "8192", "--seed", "7")
    assert code == 0
    assert out == expected


SRC = os.path.dirname(os.path.dirname(os.path.abspath(maxdep.__file__)))


def _fresh_main(argv, seed=None):
    """(exit code, stdout, stderr) of argv as the first call of a new interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "MAXDEP_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if seed is not None:
        env["MAXDEP_SEED"] = seed
    proc = subprocess.run([sys.executable, "-m", "maxdep.cli", *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_keeps_no_state(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "theta.cfg"
    cfg.write_text("theta=2\n")
    diagonal = ["diagonal", "--family", "clayton", "--n", "2,16", "--u-grid", "0.25,0.5"]
    converge = ["converge", "--model", "iid", "--margin", "unit-frechet", "--n", "32", "--reps", "2000", "--seed", "1"]
    # (argv, MAXDEP_SEED, exit code): without the config clayton has no --theta
    calls = [
        (diagonal + ["--config", str(cfg), "--format", "jsonl"], None, 0),
        (diagonal, None, 2),
        (["diagonal", "--family", "independence", "--n", "2,16", "--u-grid", "0.25,0.5"], None, 0),
        (converge, "999", 0),
        (converge, None, 0),
    ]
    outputs = []
    for argv, seed, expected in calls:
        if seed is None:
            monkeypatch.delenv("MAXDEP_SEED", raising=False)
        else:
            monkeypatch.setenv("MAXDEP_SEED", seed)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expected, argv
        assert (code, captured.out, captured.err) == _fresh_main(argv, seed), argv
        outputs.append(captured.out)
    assert outputs[3] != outputs[4]
