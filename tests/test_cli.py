import csv
import io
import json
import math

import numpy as np
import pytest

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


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "diagonal", "--family", "nonsense", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--theta", "-1", "--n", "2", "--u-grid", "0.5")
    assert code == 3
    code, _ = run_cli(capsys, "mixing", "--family", "movingmax", "--k", "1", "--t1", "0.2", "--t2", "0.2", "--u", "0.5", "--n", "10")
    assert code == 2
    # a missing model parameter, a model without a diagonal, a model without a sampler
    code, _ = run_cli(capsys, "diagonal", "--family", "clayton", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "diagonal", "--family", "ar1", "--n", "2", "--u-grid", "0.5")
    assert code == 2
    code, _ = run_cli(capsys, "converge", "--model", "ballerini", "--margin", "normal", "--n", "64")
    assert code == 2
    # diagonal has no --phi flag, so the parser rejects it before any lookup
    with pytest.raises(SystemExit) as err:
        main(["diagonal", "--family", "ar1", "--phi", "0.5", "--n", "2", "--u-grid", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_nan_cell_is_a_numeric_error(capsys, monkeypatch):
    table = Table("t", {}, ["a", "b"])
    table.add(1, None)
    with pytest.raises(ValueError):
        table.add(1, float("nan"))
    with pytest.raises(ValueError):
        table.add(np.float64("nan"), 2.0)
    assert table.rows == [[1, None]]
    monkeypatch.setattr(cli.ratebounds, "cuadras_auge_sup", lambda n, theta: (math.nan, 0.0))
    code, out = run_cli(capsys, "bound", "--model", "cuadras-auge", "--theta", "0.5", "--n", "10")
    assert code == 3
    assert out == ""


def test_jsonl_format(capsys):
    code, out = run_cli(capsys, "diagonal", "--family", "independence", "--n", "2", "--u-grid", "0.5", "--format", "jsonl")
    assert code == 0
    lines = out.strip().splitlines()
    assert "_meta" in json.loads(lines[0])
    rec = json.loads(lines[1])
    assert rec["n"] == 2 and rec["u"] == 0.5


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
