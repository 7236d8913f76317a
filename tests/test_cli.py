import json
import os
from pathlib import Path

import numpy as np
import pytest

from qwalksim import classical, cli
from qwalksim.decoherence import DENSITY_DIMENSION_LIMIT
from qwalksim.graphs import build_cycle


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as handle:
        header, *rows = handle.read().strip().split("\n")
    parsed = [row.split(",") for row in rows]
    return header, parsed


def read_meta(path):
    with open(path + ".meta.json") as handle:
        return json.load(handle)


# --- walk command ---------------------------------------------------------

def test_walk_coined_line(tmp_path, capsys):
    out = str(tmp_path / "walk.csv")
    assert run(["walk", "--graph", "line", "--steps", "4", "-o", out]) == 0
    header, rows = read_csv(out)
    assert header == "x,probability"
    xs = [float(x) for x, _ in rows]
    probs = [float(p) for _, p in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert all(x % 2 == 0 for x in xs)  # parity after an even step count
    assert "wrote" in capsys.readouterr().out

    meta = read_meta(out)
    assert meta["config"]["walk"] == "coined"
    assert meta["config"]["steps"] == 4
    assert meta["summary"]["probability_sum"] == pytest.approx(1.0, abs=1e-12)
    assert meta["wall_time_seconds"] > 0
    assert meta["version"] == cli.__version__


def test_walk_rerun_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    argv = ["walk", "--graph", "cycle", "--n", "9", "--steps", "12",
            "--initial", "symmetric"]
    assert run(argv + ["-o", a]) == 0
    assert run(argv + ["-o", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_walk_classical_matches_module(tmp_path):
    out = str(tmp_path / "cls.csv")
    assert run(["walk", "--walk", "classical", "--graph", "cycle", "--n", "7",
                "--steps", "5", "-o", out]) == 0
    _, rows = read_csv(out)
    got = {float(x): float(p) for x, p in rows}
    exact = classical.evolve_classical_exact(build_cycle(7), 0, 5).probabilities
    for v in range(7):
        assert got.get(float(v), 0.0) == pytest.approx(exact[v], abs=1e-12)


def test_walk_density_mode(tmp_path):
    out = str(tmp_path / "dens.csv")
    assert run(["walk", "--graph", "line", "--steps", "10", "--p", "0.1",
                "-o", out]) == 0
    meta = read_meta(out)
    assert meta["config"]["p"] == 0.1
    assert meta["summary"]["probability_sum"] == pytest.approx(1.0, abs=1e-10)


def test_walk_density_above_limit_exits_2(tmp_path, capsys):
    # cycle(513) has 1026 half-edges, two above the density limit
    out = tmp_path / "dens.csv"
    assert run(["walk", "--graph", "cycle", "--n", "513", "--steps", "1",
                "--p", "0.1", "-o", str(out)]) == 2
    assert f"limit {DENSITY_DIMENSION_LIMIT}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walk_trajectory_mode_deterministic(tmp_path):
    argv = ["walk", "--graph", "cycle", "--n", "8", "--steps", "15",
            "--p", "0.2", "--trajectories", "50", "--seed", "7"]
    a = str(tmp_path / "t1.csv")
    b = str(tmp_path / "t2.csv")
    assert run(argv + ["-o", a]) == 0
    assert run(argv + ["-o", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    # the sampled answer's error reaches the metadata, not the distribution
    stderr = read_meta(a)["summary"]["ensemble_max_stderr"]
    assert 0.0 < stderr < 0.2
    with open(a) as handle:
        assert "stderr" not in handle.read()


def test_walk_continuous_cycle(tmp_path):
    out = str(tmp_path / "ct.csv")
    assert run(["walk", "--walk", "continuous", "--graph", "cycle", "--n", "6",
                "--time", "2.5", "--gamma", "0.7", "-o", out]) == 0
    meta = read_meta(out)
    assert meta["summary"]["probability_sum"] == pytest.approx(1.0, abs=1e-10)
    assert "exit_peak_time" not in meta["summary"]


def test_walk_glued_trees_exit_series(tmp_path):
    out = str(tmp_path / "gt.csv")
    series = str(tmp_path / "exit.csv")
    assert run(["walk", "--walk", "continuous", "--graph", "glued-trees",
                "--depth", "2", "--time", "8", "--exit-series", series,
                "-o", out]) == 0
    header, rows = read_csv(series)
    assert header == "time,exit_probability"
    assert len(rows) == 2001
    meta = read_meta(out)
    assert meta["summary"]["exit_peak_time"] == pytest.approx(2.924, abs=0.02)
    assert meta["summary"]["exit_peak_height"] == pytest.approx(0.568, abs=0.01)


def test_walk_json_format(tmp_path):
    out = str(tmp_path / "walk.json")
    assert run(["walk", "--graph", "line", "--steps", "3",
                "--format", "json", "-o", out]) == 0
    data = json.loads(Path(out).read_bytes())
    assert data["metadata"]["config"]["steps"] == 3
    total = sum(pt["probability"] for pt in data["points"])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(set(pt) == {"x", "probability"} for pt in data["points"])


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"walk": "classical", "graph": "cycle", "n": 9, "steps": 3}))
    out = str(tmp_path / "out.csv")
    assert run(["walk", "--config", str(cfg_path), "--steps", "5",
                "-o", out]) == 0
    meta = read_meta(out)
    assert meta["config"]["walk"] == "classical"
    assert meta["config"]["n"] == 9
    assert meta["config"]["steps"] == 5  # flag wins over the file


# --- configuration errors -------------------------------------------------

@pytest.mark.parametrize("argv, field", [
    (["walk", "--graph", "line", "--steps", "3", "--num-positions", "6"],
     "num-positions"),
    (["walk", "--graph", "line", "--steps", "3", "--num-positions", "5"],
     "num-positions"),  # 3 steps need 7 positions
    (["walk", "--graph", "cycle", "--steps", "3"], "n"),
    (["walk", "--graph", "glued-trees", "--steps", "1"], "depth"),
    (["walk", "--graph", "glued-trees", "--depth", "2", "--steps", "1",
      "--glue-mode", "random-cycle"], "glue-seed"),
    (["walk", "--graph", "line", "--steps", "2", "--p", "1.5"], "p"),
    (["walk", "--graph", "line", "--steps", "2", "--p", "0.1",
      "--trajectories", "10"], "seed"),
    (["walk", "--graph", "line"], "steps"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5"], "time"),
    (["walk", "--graph", "line", "--steps", "2", "--initial", "sideways"],
     "initial"),
    (["walk", "--graph", "line", "--steps", "2", "--start", "99"], "start"),
    (["walk", "--graph", "cycle", "--n", "5", "--steps", "2", "--start", "9"],
     "start"),
    (["walk", "--graph", "line", "--steps", "2",
      "--exit-series", "x.csv"], "exit-series"),
])
def test_bad_configuration_exits_2(tmp_path, capsys, argv, field):
    out = str(tmp_path / "never.csv")
    assert run(argv + ["-o", out]) == 2
    assert field in capsys.readouterr().err
    assert not os.path.exists(out)


def test_walk_requires_output(capsys):
    assert run(["walk", "--graph", "line", "--steps", "2"]) == 2
    assert "output" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"walkk": "coined"}))
    assert run(["walk", "--config", str(cfg_path), "--steps", "2",
                "-o", str(tmp_path / "x.csv")]) == 2
    assert "walkk" in capsys.readouterr().err


def test_malformed_config_file_exits_2(tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert run(["walk", "--config", str(cfg_path), "--steps", "2",
                "-o", str(tmp_path / "x.csv")]) == 2


# --- sweep command --------------------------------------------------------

def test_sweep_over_p(tmp_path):
    outdir = str(tmp_path / "sweep")
    assert run(["sweep", "--graph", "line", "--steps", "20", "--axis", "p",
                "--values", "0,0.1", "--output-dir", outdir]) == 0
    for name in ("sweep_p=0.csv", "sweep_p=0.1.csv", "sweep_summary.csv"):
        assert os.path.exists(os.path.join(outdir, name))
    header, rows = read_csv(os.path.join(outdir, "sweep_summary.csv"))
    columns = header.split(",")
    assert columns[0] == "p"
    assert {"std_dev", "tv_to_uniform", "flatness_ratio", "flatness_tv"} <= set(columns)
    table = {float(r[0]): dict(zip(columns[1:], map(float, r[1:]))) for r in rows}
    # measurement narrows the quantum spread
    assert table[0.0]["std_dev"] > table[0.1]["std_dev"]
    meta = json.loads(Path(outdir, "sweep_summary.csv.meta.json").read_bytes())
    assert meta["axis"] == "p"
    assert meta["values"] == [0.0, 0.1]


def test_sweep_increments_seed_per_run(tmp_path):
    outdir = str(tmp_path / "seeds")
    assert run(["sweep", "--graph", "cycle", "--n", "7", "--axis", "steps",
                "--values", "2,4", "--p", "0.3", "--trajectories", "20",
                "--seed", "100", "--output-dir", outdir]) == 0
    meta_a = read_meta(os.path.join(outdir, "sweep_steps=2.csv"))
    meta_b = read_meta(os.path.join(outdir, "sweep_steps=4.csv"))
    assert meta_a["config"]["seed"] == 100
    assert meta_b["config"]["seed"] == 101


def test_sweep_threads_do_not_change_results(tmp_path, monkeypatch):
    base = ["sweep", "--graph", "line", "--steps", "10", "--axis", "p",
            "--values", "0,0.05,0.2"]
    serial = str(tmp_path / "serial")
    threaded = str(tmp_path / "threaded")
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)
    assert run(base + ["--output-dir", serial]) == 0
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "3")
    assert run(base + ["--output-dir", threaded]) == 0
    a = Path(serial, "sweep_summary.csv").read_bytes()
    b = Path(threaded, "sweep_summary.csv").read_bytes()
    assert a == b


def test_sweep_validates_before_running(tmp_path):
    outdir = str(tmp_path / "never")
    assert run(["sweep", "--graph", "line", "--steps", "3", "--axis", "spin",
                "--values", "1,2", "--output-dir", outdir]) == 2
    assert run(["sweep", "--graph", "line", "--steps", "3", "--axis", "p",
                "--values", "0,zebra", "--output-dir", outdir]) == 2
    # one invalid run in the set aborts the whole sweep up front
    assert run(["sweep", "--graph", "cycle", "--axis", "n", "--values", "5,2",
                "--steps", "3", "--output-dir", outdir]) == 2
    assert not os.path.exists(outdir)


def test_bad_threads_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "many")
    assert run(["sweep", "--graph", "line", "--steps", "2", "--axis", "p",
                "--values", "0", "--output-dir", str(tmp_path)]) == 2
    assert "threads" in capsys.readouterr().err


# --- trace command --------------------------------------------------------

def test_trace_stdout_three_steps(capsys):
    assert run(["trace", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "step,x,coin,amplitude_re,amplitude_im"
    table = {}
    for line in lines[1:]:
        step, x, coin, re, im = line.split(",")
        table[(int(step), int(x), int(coin))] = complex(float(re), float(im))
    assert table[(0, 0, 0)] == 1.0
    r2, r8 = np.sqrt(2.0), np.sqrt(8.0)
    assert table[(1, -1, 0)].real == pytest.approx(1 / r2, abs=1e-12)
    assert table[(2, 2, 1)].real == pytest.approx(-0.5, abs=1e-12)
    # step 3: the x=+1 row is negative and x=+3 positive, forced by
    # linearity from the minus sign on the step-2 (2,1) component
    assert table[(3, 1, 0)].real == pytest.approx(-1 / r8, abs=1e-12)
    assert table[(3, 3, 1)].real == pytest.approx(1 / r8, abs=1e-12)
    assert table[(3, -1, 0)].real == pytest.approx(2 / r8, abs=1e-12)
    assert table[(3, -3, 0)].real == pytest.approx(1 / r8, abs=1e-12)
    assert table[(3, -1, 1)].real == pytest.approx(1 / r8, abs=1e-12)
    assert len([k for k in table if k[0] == 3]) == 5


def test_trace_to_file(tmp_path):
    out = str(tmp_path / "trace.csv")
    assert run(["trace", "--steps", "1", "-o", out]) == 0
    header, rows = read_csv(out)
    assert header == "step,x,coin,amplitude_re,amplitude_im"
    assert [r[0] for r in rows] == ["0", "1", "1"]


def test_trace_rejects_negative_steps(capsys):
    assert run(["trace", "--steps", "-1"]) == 2


# --- figures command ------------------------------------------------------

def test_figures_emits_canned_datasets(tmp_path):
    outdir = str(tmp_path / "figs")
    assert run(["figures", "--outdir", outdir]) == 0
    for name in ("line_t100_basis0.csv", "line_t100_symmetric.csv",
                 "line_t100_classical.csv", "decoherence_summary.csv"):
        assert os.path.exists(os.path.join(outdir, name))

    header, rows = read_csv(os.path.join(outdir, "decoherence_summary.csv"))
    columns = header.split(",")
    table = [dict(zip(columns, row)) for row in rows]
    ps = [float(r["p"]) for r in table]
    assert ps == [0.0, 0.003, 0.01, 0.03, 0.1]
    flatness = [float(r["flatness_tv"]) for r in table]
    sigmas = [float(r["std_dev"]) for r in table]
    # the flattest profile sits at intermediate measurement strength and
    # the spread shrinks monotonically toward the classical limit
    assert ps[int(np.argmin(flatness))] == 0.03
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


# --- misc -----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert cli.__version__ in capsys.readouterr().out
