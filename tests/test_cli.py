import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from qwalksim import classical, cli, coined, continuous, decoherence, stats
from qwalksim.decoherence import DENSITY_DIMENSION_LIMIT
from qwalksim.errors import ConfigError, InvariantViolationError
from qwalksim.graphs import (Graph, GlueSpec, build_cycle, build_glued_trees, build_line,
                             glued_trees_entrance_exit)


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


def exit_code(argv):
    """The exit status of a run, whether ``main`` returns it or argparse exits."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


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


@pytest.mark.parametrize("extra", [[], ["--walk", "classical"], ["--p", "0.3"]])
def test_zero_step_walk_on_the_default_line(tmp_path, extra):
    out = tmp_path / "zero.csv"
    assert run(["walk", "--graph", "line", "--steps", "0", "-o", str(out)] + extra) == 0
    assert out.read_text() == "x,probability\n0,1\n"


def test_one_step_default_line_keeps_its_size(tmp_path):
    # steps >= 1 still get 2*steps+1 positions, so their bytes do not move
    for walk in ("coined", "classical"):
        default, sized = tmp_path / f"{walk}_a.csv", tmp_path / f"{walk}_b.csv"
        assert run(["walk", "--walk", walk, "--graph", "line", "--steps", "1",
                    "-o", str(default)]) == 0
        assert run(["walk", "--walk", walk, "--graph", "line", "--steps", "1",
                    "--num-positions", "3", "-o", str(sized)]) == 0
        assert default.read_bytes() == sized.read_bytes()


def test_environment_reaches_the_metadata_only(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = str(tmp_path / "walk.json")
    assert run(["walk", "--graph", "cycle", "--n", "5", "--steps", "3",
                "--format", "json", "-o", out]) == 0
    outdir = tmp_path / "sweep"
    assert run(["sweep", "--graph", "cycle", "--n", "5", "--steps", "3", "--axis", "p",
                "--values", "0", "--output-dir", str(outdir)]) == 0
    for meta in (read_meta(out), read_meta(str(outdir / "sweep_summary.csv"))):
        env = meta["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert (env["blas"], env["blas_version"]) == (blas["name"], blas["version"])
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None
        assert "OMP_NUM_THREADS" in env
    # the distribution's own metadata stays free of it, so its bytes do not move
    assert "environment" not in json.loads(Path(out).read_text())["metadata"]
    # a numpy that does not say which BLAS it links records null
    monkeypatch.setattr(np.__config__, "CONFIG", {})
    env = cli.environment_metadata()
    assert env["blas"] is None and env["blas_version"] is None


def test_density_check_residuals_reach_the_metadata_only(tmp_path, capsys):
    out = str(tmp_path / "dens.csv")
    assert run(["walk", "--graph", "line", "--steps", "6", "--p", "0.2", "-o", out]) == 0
    residuals = read_meta(out)["summary"]["density_check"]
    assert sorted(residuals) == ["hermiticity_deviation", "live_dimension",
                                 "min_eigenvalue", "trace_deviation"]
    # the 7 even sites: two half-edges at the 5 inside, one at each end
    assert residuals["live_dimension"] == 12
    assert residuals["min_eigenvalue"] >= -1e-12
    printed = capsys.readouterr().out.split()[2:]
    assert [item.split("=")[0] for item in printed] == [
        "flatness_tv", "probability_sum", "std_dev", "tv_to_uniform"]
    outdir = tmp_path / "sweep"
    assert run(["sweep", "--graph", "line", "--steps", "4", "--axis", "p",
                "--values", "0,0.2", "--output-dir", str(outdir)]) == 0
    header = (outdir / "sweep_summary.csv").read_text().split("\n")[0]
    assert header == "p,std_dev,tv_to_uniform,flatness_tv"


def test_pure_run_norm_residual_reaches_the_metadata_only(tmp_path, capsys):
    out = str(tmp_path / "pure.csv")
    assert run(["walk", "--graph", "line", "--steps", "100", "--initial", "symmetric",
                "-o", out]) == 0
    residuals = read_meta(out)["summary"]["pure_check"]
    assert sorted(residuals) == ["norm_deviation"]
    assert 0.0 <= residuals["norm_deviation"] < 1e-12
    assert "pure_check" not in capsys.readouterr().out


# --- summary statistics ---------------------------------------------------

@pytest.mark.parametrize("argv, expected", [
    (["--graph", "line", "--steps", "30", "--p", "0.05", "--initial", "symmetric"],
     {"std_dev": 13.800541673371674, "tv_to_uniform": 0.6193680009071637,
      "flatness_tv": 0.108262458289135}),
    (["--graph", "cycle", "--n", "9", "--steps", "25", "--p", "0.05", "--initial", "symmetric"],
     {"std_dev": 4.853079397424706, "tv_to_uniform": 0.06372838831872454,
      "flatness_tv": 0.06372838831872457}),
    (["--graph", "cycle", "--n", "15", "--steps", "100", "--coin", "dft",
      "--initial", "0.6,0.8j"],
     {"std_dev": 7.734652680592985, "tv_to_uniform": 0.25134529131159644,
      "flatness_tv": 0.2513452913115965}),
    (["--walk", "classical", "--graph", "line", "--steps", "40"],
     {"std_dev": 6.324555320336759, "tv_to_uniform": 0.8010288645553059,
      "flatness_tv": 0.18469860820065764}),
])
def test_coordinate_graphs_keep_their_summary_values(tmp_path, argv, expected):
    # pinned to the last bit: limiting the statistics to coordinate graphs moves none
    out = str(tmp_path / "walk.csv")
    assert run(["walk", *argv, "-o", out]) == 0
    summary = read_meta(out)["summary"]
    assert {key: summary[key] for key in expected} == expected


@pytest.fixture
def no_flatness(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("flatness_tv called without coordinates")

    monkeypatch.setattr(stats, "flatness_tv", never)


@pytest.mark.parametrize("argv", [
    [*graph, *walk]
    for graph in (["--graph", "hypercube", "--dimension", "4"],
                  ["--graph", "glued-trees", "--depth", "3"])
    for walk in (["--steps", "6"], ["--steps", "6", "--p", "0.1"],
                 ["--walk", "classical", "--steps", "6"],
                 ["--walk", "continuous", "--time", "2"])
])
def test_graphs_without_coordinates_report_no_flatness(tmp_path, capsys, no_flatness, argv):
    # the hypercube's and the glued trees' vertex order is only a numbering,
    # so neither moments nor contiguous windows mean anything there
    out = str(tmp_path / "walk.csv")
    assert run(["walk", *argv, "-o", out]) == 0
    summary = read_meta(out)["summary"]
    assert not {"std_dev", "flatness_tv"} & set(summary)
    assert "tv_to_uniform" in summary
    assert "flatness" not in capsys.readouterr().out


def test_deep_continuous_glued_trees_run_pays_for_its_chain_only(tmp_path, no_flatness):
    out = str(tmp_path / "deep.csv")
    assert run(GLUED_CONTINUOUS + ["--depth", "12", "--time", "20", "-o", out]) == 0
    header, rows = read_csv(out)
    assert header == "vertex,probability"
    assert len(rows) == 2 ** 13 + 2 ** 13 - 2
    assert read_meta(out)["summary"]["continuous_check"]["route"] == "column-chain"


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


def test_classical_walk_on_a_large_hypercube(tmp_path):
    # 131,072 vertices: a V x V transition matrix would take 128 GiB
    out = str(tmp_path / "cube.csv")
    assert run(["walk", "--walk", "classical", "--graph", "hypercube", "--dimension", "17",
                "--steps", "30", "-o", out]) == 0
    assert read_meta(out)["summary"]["probability_sum"] == pytest.approx(1.0, abs=1e-12)


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


def test_walk_hadamard_line_runs_on_every_route(tmp_path):
    # the line rule keeps the walker off the degree-1 ends, where the
    # Hadamard coin is undefined, so the density route runs as the pure and
    # trajectory routes do; its distribution lies within 5 standard errors
    # of a 2,000-trajectory ensemble
    argv = ["walk", "--graph", "line", "--steps", "5", "--p", "0.1", "--coin", "hadamard"]
    paths = {route: str(tmp_path / f"{route}.csv") for route in ("density", "ensemble", "pure")}
    assert run(argv + ["-o", paths["density"]]) == 0
    assert run(argv + ["--trajectories", "2000", "--seed", "1", "-o", paths["ensemble"]]) == 0
    assert run(argv[:-4] + ["--coin", "hadamard", "-o", paths["pure"]]) == 0
    g = build_line(11)

    def by_vertex(path):
        # rows list the reached positions x, vertex x + 5
        dist = np.zeros(g.num_vertices)
        for x, p in read_csv(path)[1]:
            dist[int(float(x)) + 5] = float(p)
        return dist
    density, sampled = by_vertex(paths["density"]), by_vertex(paths["ensemble"])
    mean, stderr = decoherence.run_ensemble(
        coined.initial_state(g, 5, "basis0"), decoherence.DecoherenceSpec(0.1), 5, 2000,
        1, "hadamard")
    assert np.allclose(sampled, mean, rtol=1e-12, atol=1e-15)
    # a bin's variance is at most q(1 - q) / M, which covers bins with no sample
    floor = np.sqrt(density * (1 - density) / 2000)
    assert np.all(np.abs(density - mean) <= 5 * np.maximum(stderr, floor) + 1e-12)
    assert read_meta(paths["density"])["summary"]["density_check"]["trace_deviation"] < 1e-12


@pytest.mark.parametrize("graph", [["--graph", "hypercube", "--dimension", "3"],
                                   ["--graph", "glued-trees", "--depth", "3"]],
                         ids=["hypercube3", "glued-trees3"])
@pytest.mark.parametrize("route", [[], ["--p", "0.1"],
                                   ["--p", "0.1", "--trajectories", "3", "--seed", "1"]],
                         ids=["pure", "density", "trajectories"])
def test_walk_hadamard_off_degree_2_exits_2(tmp_path, capsys, graph, route):
    # the walker reaches a vertex of degree 3, where the Hadamard coin is
    # undefined: every route refuses with the lone walker's message
    out = tmp_path / "walk.csv"
    assert run(["walk", *graph, "--steps", "4", "--coin", "hadamard", *route,
                "-o", str(out)]) == 2
    assert "hadamard coin undefined for degree 3 but amplitude occupies such a vertex" in \
        capsys.readouterr().err
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


def test_exit_peak_is_written_only_for_a_walk_from_the_entrance(tmp_path):
    # the column chain follows the walk from the entrance and no other
    argv = ["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "3",
            "--time", "6"]
    entrance, inside = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(argv + ["--start", "0", "-o", entrance]) == 0
    assert run(argv + ["--start", "5", "-o", inside]) == 0
    assert "exit_peak_time" in read_meta(entrance)["summary"]
    assert not {"exit_peak_time", "exit_peak_height"} & set(read_meta(inside)["summary"])


@pytest.mark.parametrize("route, argv", [
    ("column-chain", ["--graph", "glued-trees", "--depth", "4", "--time", "3"]),
    ("full-graph", ["--graph", "glued-trees", "--depth", "4", "--time", "3", "--start", "6"]),
    ("full-graph", ["--graph", "cycle", "--n", "9", "--time", "3"]),
])
def test_continuous_route_and_norm_reach_the_metadata_only(tmp_path, capsys, route, argv):
    out = str(tmp_path / "ct.csv")
    assert run(["walk", "--walk", "continuous", *argv, "-o", out]) == 0
    check = read_meta(out)["summary"]["continuous_check"]
    assert sorted(check) == ["norm_deviation", "route"]
    assert check["route"] == route
    assert 0.0 <= check["norm_deviation"] < 1e-12
    assert "continuous_check" not in capsys.readouterr().out
    text = Path(out).read_text()
    assert "route" not in text and "norm" not in text


GLUED_CONTINUOUS = ["walk", "--walk", "continuous", "--graph", "glued-trees"]


@pytest.mark.parametrize("argv", [
    ["--depth", "3", "--time", "6"],
    ["--depth", "4", "--time", "10"],
    ["--depth", "7", "--time", "14", "--glue-mode", "random-cycle", "--glue-seed", "3"],
    ["--depth", "4", "--time", "1.7", "--glue-mode", "random-cycle", "--glue-seed", "4",
     "--convention", "adjacency", "--gamma", "0.6"],
])
def test_exit_series_agrees_with_the_distribution_file(tmp_path, argv):
    alone, paired, series = (str(tmp_path / name) for name in ("a.csv", "b.csv", "exit.csv"))
    assert run(GLUED_CONTINUOUS + argv + ["-o", alone]) == 0
    assert run(GLUED_CONTINUOUS + argv + ["--exit-series", series, "-o", paired]) == 0
    assert Path(alone).read_bytes() == Path(paired).read_bytes()
    # the roots' numbers do not depend on the glue
    _, exit_vertex = glued_trees_entrance_exit(build_glued_trees(int(argv[1]), GlueSpec()))
    _, rows = read_csv(paired)
    exit_probability = dict(rows)[str(exit_vertex)]
    _, series_rows = read_csv(series)
    assert float(series_rows[-1][0]) == float(argv[3])
    assert series_rows[-1][1] == exit_probability


def test_dense_route_above_its_limit_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    # glued_trees(12) has 16,382 vertices: a dense Hamiltonian would take 2.1 GB
    def never(self):
        raise AssertionError("adjacency matrix built above the limit")

    monkeypatch.setattr(Graph, "adjacency_matrix", never)
    argv = GLUED_CONTINUOUS + ["--depth", "12", "--time", "1"]
    out = tmp_path / "deep.csv"
    assert run(argv + ["--start", "1", "-o", str(out)]) == 2
    assert f"limit {continuous.CONTINUOUS_DIMENSION_LIMIT}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # from the entrance the column chain runs at this depth
    assert run(argv + ["-o", str(out)]) == 0
    assert read_meta(str(out))["summary"]["continuous_check"]["route"] == "column-chain"


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
    # also when the flag comes before --config
    assert run(["walk", "--steps", "4", "--config", str(cfg_path), "-o", out]) == 0
    assert read_meta(out)["config"]["steps"] == 4


def test_config_file_reads_like_the_flags_and_replays_metadata(tmp_path):
    argv = ["walk", "--graph", "cycle", "--n", "9", "--steps", "12", "--p", "0.1",
            "--coin", "dft", "--initial=-0.6,0.8j", "--format", "json"]
    by_flags = tmp_path / "flags.json"
    assert run(argv + ["-o", str(by_flags)]) == 0
    # the same run from a file, with values given as the flags' text
    equivalent = tmp_path / "equivalent.cfg"
    equivalent.write_text(json.dumps(
        {"graph": "cycle", "n": "9", "steps": 12, "p": 0.1, "coin": "dft",
         "initial": "-0.6,0.8j", "format": "json"}))
    by_file = tmp_path / "file.json"
    assert run(["walk", "--config", str(equivalent), "-o", str(by_file)]) == 0
    # the configuration echo of a run reproduces it
    echo = tmp_path / "echo.cfg"
    echo.write_text(json.dumps(read_meta(str(by_flags))["config"]))
    replayed = tmp_path / "replayed.json"
    assert run(["walk", "--config", str(echo), "-o", str(replayed)]) == 0
    assert by_file.read_bytes() == by_flags.read_bytes()
    assert replayed.read_bytes() == by_flags.read_bytes()
    assert read_meta(str(replayed))["config"] == read_meta(str(by_flags))["config"]


@pytest.mark.parametrize("command, content, message", [
    pytest.param("walk", {"steps": "x"}, "argument --steps: invalid int value: 'x'",
                 id="text-for-int"),
    pytest.param("walk", {"graph": "cycle", "n": 5.0, "steps": 2},
                 "argument --n: invalid int value", id="float-for-int"),
    pytest.param("walk", {"walk": "quantum"}, "argument --walk: invalid choice: 'quantum'",
                 id="bad-choice"),
    pytest.param("walk", {"steps": 2, "seed": [1]}, "config: 'seed'", id="list"),
    pytest.param("walk", {"steps": 2, "p": {"value": 0.1}}, "config: 'p'", id="object"),
    pytest.param("walk", {"steps": True}, "config: 'steps'", id="boolean"),
    pytest.param("sweep", {"steps": 2, "output": "x.csv"}, "config: unknown key 'output'",
                 id="no-flag-under-sweep"),
])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, command, content,
                                                   message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(content))
    outputs = (["-o", str(tmp_path / "x.csv")] if command == "walk" else
               ["--axis", "p", "--values", "0", "--output-dir", str(tmp_path / "sweep")])
    assert exit_code([command, "--config", str(cfg_path)] + outputs) == 2
    assert message in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]


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
    (["walk", "--graph", "hypercube", "--dimension", "3", "--steps", "2",
      "--initial", "symmetric"], "initial"),  # the preset needs degree 2
    (["walk", "--graph", "line", "--steps", "2", "--initial", "1"], "initial"),
    (["walk", "--graph", "line", "--steps", "2", "--initial", "1,1"], "initial"),
    (["walk", "--graph", "hypercube", "--steps", "2"], "dimension"),
    (["walk", "--graph", "hypercube", "--dimension", "0", "--steps", "2"], "dimension"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--gamma", "0"], "gamma"),
    (["walk", "--graph", "line", "--steps", "2", "--p", "0.1", "--trajectories", "0",
      "--seed", "1"], "trajectories"),
    (["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "3",
      "--time", "6", "--start", "5", "--exit-series", "x.csv"], "exit-series"),
    (["walk", "--graph", "line", "--steps", "2", "--start=-1"], "start"),
    (["walk", "--walk", "classical", "--graph", "line", "--num-positions", "5",
      "--steps", "2", "--start", "5"], "start"),
    (["walk", "--walk", "continuous", "--graph", "line", "--num-positions", "5",
      "--time", "1", "--start", "5"], "start"),
    (["walk", "--graph", "hypercube", "--dimension", "3", "--steps", "2",
      "--start", "8"], "start"),
    (["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "2",
      "--time", "1", "--start=-1"], "start"),
    (["walk", "--steps", "5", "--p", "0.1", "--trajectories", "4", "--seed=-3"], "seed"),
    (["walk", "--walk", "continuous", "--graph", "glued-trees", "--depth", "3",
      "--glue-mode", "random-cycle", "--glue-seed=-2", "--time", "1"], "glue-seed"),
    # NaN and infinity pass every "< 0" test; the run wrote an empty distribution
    (["walk", "--walk", "continuous", "--graph", "hypercube", "--dimension", "3",
      "--time", "nan"], "time"),
    (["walk", "--walk", "continuous", "--graph", "hypercube", "--dimension", "3",
      "--time", "inf"], "time"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--gamma", "nan"], "gamma"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--gamma", "inf"], "gamma"),
    # fields only a coined walk reads; the run ignored them and echoed them
    (["walk", "--walk", "classical", "--graph", "line", "--steps", "10",
      "--trajectories", "5", "--seed", "1"], "trajectories"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--trajectories", "5", "--seed", "1"], "trajectories"),
    (["walk", "--walk", "classical", "--graph", "line", "--steps", "10", "--p", "0.5"], "p"),
    (["walk", "--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--p", "0.5"], "p"),
])
def test_bad_configuration_exits_2(tmp_path, capsys, argv, field):
    out = str(tmp_path / "never.csv")
    assert run(argv + ["-o", out]) == 2
    assert f"invalid configuration: {field}:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, field", [
    # 16 TiB and 8 TiB of half-edge table: both died allocating, exit 1
    (["--walk", "continuous", "--graph", "glued-trees", "--depth", "40", "--time", "1"],
     "depth"),
    (["--walk", "classical", "--graph", "hypercube", "--dimension", "40", "--steps", "1"],
     "dimension"),
    (["--walk", "continuous", "--graph", "glued-trees", "--depth", "10000000",
      "--time", "1"], "depth"),
    (["--walk", "classical", "--graph", "line", "--num-positions",
      str(cli.MAX_HALF_EDGES // 2 + 3), "--steps", "1"], "num-positions"),
    (["--walk", "classical", "--graph", "line", "--steps",
      str(cli.MAX_HALF_EDGES // 4 + 1)], "steps"),
    (["--graph", "cycle", "--n", str(cli.MAX_HALF_EDGES // 2 + 1), "--steps", "1"], "n"),
])
def test_oversized_graph_exits_2_before_building(tmp_path, capsys, monkeypatch, argv, field):
    def never(*args, **kwargs):
        raise AssertionError("graph built above the half-edge limit")

    monkeypatch.setattr(Graph, "__init__", never)
    assert run(["walk", *argv, "-o", str(tmp_path / "big.csv")]) == 2
    err = capsys.readouterr().err
    assert f"invalid configuration: {field}: " in err
    assert f"above the limit {cli.MAX_HALF_EDGES}" in err
    assert list(tmp_path.iterdir()) == []


def test_validate_builds_no_graph_and_admits_the_documented_sizes(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("graph built during validation")

    monkeypatch.setattr(Graph, "__init__", never)
    WalkConfig = cli.WalkConfig
    WalkConfig(walk="classical", graph="hypercube", dimension=17, steps=1).validate()
    WalkConfig(walk="continuous", graph="glued-trees", depth=18, time=1.0,
               glue_mode="random-cycle", glue_seed=1).validate()
    at_limit = cli.MAX_HALF_EDGES // 2 + 1
    WalkConfig(walk="classical", graph="line", num_positions=at_limit, steps=1).validate()
    # the line's start is checked against its size, with the origin as default
    WalkConfig(graph="line", num_positions=9, steps=4).validate()
    with pytest.raises(ConfigError, match=r"^start: vertex 9 out of range \[0, 9\)$"):
        WalkConfig(graph="line", num_positions=9, steps=1, start=9).validate()
    with pytest.raises(ConfigError, match="^num-positions: "):
        WalkConfig(graph="line", num_positions=9, steps=4, start=5).validate()


def test_sweep_and_figures_take_no_threads_flag(capsys):
    for argv in (["sweep", "--graph", "line", "--steps", "3", "--axis", "p",
                  "--values", "0", "--threads", "2"], ["figures", "--threads", "2"]):
        assert exit_code(argv) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_validate_parses_initial_before_any_computation():
    with pytest.raises(ConfigError) as info:
        cli.WalkConfig(graph="line", steps=2, initial="sideways").validate()
    assert info.value.field == "initial"


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
    # a path that cannot be read, and a JSON list where an object belongs
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([{"steps": 2}]))
    for path in (tmp_path / "missing.json", listed):
        assert run(["walk", "--config", str(path), "--steps", "2",
                    "-o", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_invariant_failure_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def failing_evolve(self, state, steps):
        raise InvariantViolationError("norm drifted by 1e-3")

    monkeypatch.setattr(coined.CoinedWalk, "evolve", failing_evolve)
    out = tmp_path / "never.csv"
    assert run(["walk", "--graph", "line", "--steps", "2", "-o", str(out)]) == 3
    assert "numeric invariant failure: norm drifted" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

    # the continuous and trajectory results, 1% off, fail the distribution's own check
    evolve_ct, run_ensemble = continuous.evolve_ct, decoherence.run_ensemble

    def scaled_ensemble(*args):
        mean, stderr = run_ensemble(*args)
        return 1.01 * mean, stderr

    monkeypatch.setattr(continuous, "evolve_ct", lambda *args: 1.01 * evolve_ct(*args))
    monkeypatch.setattr(decoherence, "run_ensemble", scaled_ensemble)
    for route in (["--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1"],
                  ["--graph", "line", "--steps", "2", "--p", "0.1", "--trajectories", "5",
                   "--seed", "1"]):
        assert run(["walk", *route, "-o", str(out)]) == 3
        assert "numeric invariant failure: probabilities sum to" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_nothing_when_the_rename_fails(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli.atomic_write(str(tmp_path / "out.csv"), "x,probability\n")
    assert list(tmp_path.iterdir()) == []


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
    assert {"std_dev", "tv_to_uniform", "flatness_tv"} <= set(columns)
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


def test_sweep_validates_before_running(tmp_path, capsys):
    outdir = str(tmp_path / "never")
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--graph", "line", "--steps", "3", "--axis", "spin",
             "--values", "1,2", "--output-dir", outdir])
    assert exc.value.code == 2
    assert run(["sweep", "--graph", "line", "--steps", "3", "--axis", "p",
                "--values", "0,zebra", "--output-dir", outdir]) == 2
    assert run(["sweep", "--graph", "line", "--steps", "3", "--axis", "p",
                "--values", ",", "--output-dir", outdir]) == 2
    # one invalid run in the set aborts the whole sweep up front
    assert run(["sweep", "--graph", "cycle", "--axis", "n", "--values", "5,2",
                "--steps", "3", "--output-dir", outdir]) == 2
    capsys.readouterr()
    # both values would be labelled 0.1 and share one file and one summary label
    assert run(["sweep", "--graph", "line", "--steps", "10", "--axis", "p",
                "--values", "0.1,0.10000001", "--output-dir", outdir]) == 2
    assert "values: 0.1 would label more than one run" in capsys.readouterr().err
    # a coined walk never reads gamma: two identical files under two labels
    assert run(["sweep", "--graph", "line", "--steps", "10", "--axis", "gamma",
                "--values", "1,2", "--output-dir", outdir]) == 2
    assert "axis: a coined walk on the line never reads gamma" in capsys.readouterr().err
    assert not os.path.exists(outdir)


@pytest.mark.parametrize("argv, field", [
    (["--graph", "cycle", "--n", "5", "--axis", "steps", "--values", "3,3"], "values"),
    (["--graph", "cycle", "--n", "5", "--axis", "steps", "--values", "1000000,1000001"],
     "values"),
    (["--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--axis", "p", "--values", "0,0.1"], "axis"),
    (["--walk", "continuous", "--graph", "cycle", "--n", "5", "--time", "1",
      "--axis", "steps", "--values", "1,2"], "axis"),
    (["--walk", "classical", "--graph", "cycle", "--n", "5", "--steps", "3",
      "--axis", "p", "--values", "0,0.1"], "axis"),
    (["--graph", "line", "--steps", "3", "--axis", "n", "--values", "5,7"], "axis"),
    (["--graph", "cycle", "--n", "5", "--steps", "3", "--axis", "dimension",
      "--values", "2,3"], "axis"),
    (["--graph", "hypercube", "--dimension", "3", "--steps", "3", "--axis", "depth",
      "--values", "2,3"], "axis"),
    (["--graph", "glued-trees", "--depth", "2", "--steps", "3", "--axis", "num-positions",
      "--values", "5,7"], "axis"),
])
def test_sweep_refuses_runs_it_could_not_tell_apart(tmp_path, capsys, argv, field):
    outdir = tmp_path / "never"
    assert run(["sweep", *argv, "--output-dir", str(outdir)]) == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["--graph", "cycle", "--steps", "5", "--start", "7", "--axis", "n", "--values", "10,5"],
    ["--graph", "hypercube", "--steps", "3", "--initial", "0.6,0.8,0",
     "--axis", "dimension", "--values", "3,4"],
    ["--graph", "cycle", "--steps", "3", "--p", "0.1", "--axis", "n",
     "--values", "10,600"],
])
def test_sweep_refused_partway_writes_nothing(tmp_path, capsys, argv):
    # the first run succeeds and the second is refused by the library
    outdir = tmp_path / "never"
    assert run(["sweep", *argv, "--output-dir", str(outdir)]) == 2
    capsys.readouterr()
    assert not outdir.exists()


def test_sweep_refuses_an_exit_series_before_any_run(tmp_path, capsys, monkeypatch):
    # every run would write the one series file, the last to finish winning
    monkeypatch.setattr(cli, "run_walk", None)
    outdir = tmp_path / "never"
    assert run(["sweep", "--walk", "continuous", "--graph", "glued-trees", "--time", "5",
                "--axis", "depth", "--values", "2,3", "--output-dir", str(outdir),
                "--exit-series", str(tmp_path / "d" / "exit.csv")]) == 2
    assert "exit-series:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_trace_takes_comma_separated_amplitudes(capsys):
    assert run(["trace", "--steps", "1", "--initial", "0.6,0.8"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    table = {}
    for line in rows:
        step, x, coin, re, im = line.split(",")
        table[(int(step), int(x), int(coin))] = complex(float(re), float(im))
    assert table[(0, 0, 0)] == 0.6 and table[(0, 0, 1)] == 0.8
    assert table[(1, -1, 0)].real == pytest.approx(1.4 / np.sqrt(2.0), abs=1e-12)
    assert table[(1, 1, 1)].real == pytest.approx(-0.2 / np.sqrt(2.0), abs=1e-12)
    assert len(table) == 4


@pytest.mark.parametrize("initial", ["0.6,zebra", "1", "sideways"])
def test_trace_rejects_a_bad_initial_naming_it(initial, capsys):
    assert run(["trace", "--steps", "1", "--initial", initial]) == 2
    assert "invalid configuration: initial:" in capsys.readouterr().err


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
