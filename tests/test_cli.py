import json

import numpy as np
import pytest

import stargraph.cli
from stargraph.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from stargraph.errors import StabilityError
from stargraph.geometry import GridSpec, StarFunction, StarGraph, StarPoint
from stargraph.kernels import OU, star_kernel


def test_kernel_csv_matches_library(capsys):
    assert main(["kernel", "--m", "3", "--t", "0.7", "--x", "0,1.5", "--y", "0.5",
                 "--x-edge", "1", "--y-edge", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_edge,x,y_edge,y,value"
    assert len(lines) == 3
    for row in lines[1:]:
        t, xe, x, ye, y, value = row.split(",")
        want = star_kernel(OU, 3, float(t), StarPoint(int(xe), float(x)), StarPoint(int(ye), float(y)))
        # 17 significant digits round-trip doubles exactly
        assert float(value) == want


def test_trace_verdict_passes(capsys):
    assert main(["trace", "--m", "4", "--t", "0.8"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["check"] == "trace_matches_closed_form"
    assert verdict["pass"] is True
    assert verdict["partial_gap"] < 1e-10


def test_trace_impossible_tolerance_fails(capsys):
    assert main(["trace", "--tol", "1e-20"]) == EXIT_NUMERIC
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_spectrum_outputs(tmp_path):
    assert main(["spectrum", "--m", "3", "--out", str(tmp_path)]) == EXIT_OK
    verdict = json.loads((tmp_path / "spectrum_verdict.json").read_text())
    assert verdict["check"] == "spectrum_clusters_at_integers"
    assert verdict["pass"] is True
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue,level,multiplicity,defect"
    # six levels on three edges: 1 + 2 + 1 + 2 + 1 + 2 eigenvalues
    assert len(rows) - 1 == 9
    first = rows[1].split(",")
    assert abs(float(first[1])) < 1e-6  # the constant sits at zero


def test_spectrum_levels_beyond_the_grid_are_usage_errors(capsys):
    # 10 levels on three edges need 15 eigenvalues; 4 points give 1 + 3 * 3
    for levels, why in (("10", "needs 15 eigenvalues"), ("0", "at least 1"), ("-1", "at least 1")):
        assert main(["spectrum", "--m", "3", "--points", "4", "--levels", levels]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --levels"), levels
        assert why in err, levels


def test_evolve_summary_and_snapshots(tmp_path):
    assert main(["evolve", "--m", "2", "--times", "0.3", "--init", "bump",
                 "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    snap = summary["snapshots"][0]
    assert snap["time"] == 0.3
    assert snap["vertex_continuity"] == 0.0
    assert snap["sup_norm"] < 1.0  # contraction from a bump below 1
    assert (tmp_path / "evolve_ou_t0.3.csv").exists()


def test_evolve_file_initial_round_trip(tmp_path, capsys):
    grid = GridSpec(cutoff=6.0, points_per_edge=257)
    f = StarFunction.from_callables(
        StarGraph(2), grid, (lambda x: np.exp(-np.asarray(x) ** 2),) * 2
    )
    path = tmp_path / "init.csv"
    f.to_csv(path)
    assert main(["evolve", "--m", "2", "--times", "0.5", f"--init=file:{path}"]) == EXIT_OK
    plain = capsys.readouterr().out
    # blank rows are skipped
    lines = path.read_text().splitlines(keepends=True)
    blank = tmp_path / "blank.csv"
    blank.write_text("".join(lines[:5] + ["\n"] + lines[5:] + ["\n"]))
    assert main(["evolve", "--m", "2", "--times", "0.5", f"--init=file:{blank}"]) == EXIT_OK
    assert capsys.readouterr().out == plain
    # the output lives on the --cutoff/--points grid, not on the file's own grid
    out = tmp_path / "out"
    assert main(["evolve", "--m", "2", "--times", "0.5", "--points", "33",
                 f"--init=file:{path}", "--out", str(out)]) == EXIT_OK
    snapshot = StarFunction.from_csv(out / "evolve_ou_t0.5.csv")
    assert snapshot.grid == GridSpec(cutoff=6.0, points_per_edge=33)
    # edge-count mismatch is a usage error
    assert main(["evolve", "--m", "3", "--times", "0.5", f"--init=file:{path}"]) == EXIT_USAGE


def test_evolve_unknown_initial(tmp_path, capsys):
    assert main(["evolve", "--m", "1", "--init", "gibberish"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: unknown initial condition")
    # unreadable or malformed files are usage errors too, never tracebacks,
    # and the message names the file and what is wrong with it
    header = "edge,radius,value\n"
    files = {
        "missing": (None, "No such file"),
        "non_numeric": (header + "1,0,1\n1,1,zap\n", "could not convert"),
        "fractional_edge": (header + "1.5,0,1\n1.5,1,1\n", "invalid literal for int()"),
        "short_row": (header + "1,0.0\n", "row 2 has 2 fields, not 3"),
        # every NaN spacing comparison is false
        "nan_radius": (header + "1,0,1\n1,nan,1\n1,2,1\n", "is not finite"),
        # 1,5 meant as 1.5
        "decimal_comma": (header + "1,0,1,5\n1,1,1,5\n1,2,1,5\n", "row 2 has 4 fields"),
        "wrong_header": ("edge,r,value\n1,0,1\n1,1,1\n", "expected header"),
        "header_only": (header, "no data rows"),
        "edge_gap": (header + "1,0,1\n1,1,1\n3,0,1\n3,1,1\n", "must cover 1..3"),
        "unequal_counts": (header + "1,0,1\n1,1,1\n1,2,1\n2,0,1\n2,1,1\n",
                           "different sample counts"),
        "one_sample": (header + "1,0,1\n", "need >= 2 samples per edge"),
        "grids_differ": (header + "1,0,1\n1,1,1\n2,0,1\n2,1.5,1\n", "different radial grids"),
        "not_uniform": (header + "1,0,1\n1,1,1\n1,3,1\n", "uniform starting at 0"),
        "not_from_zero": (header + "1,0.5,1\n1,1.5,1\n", "uniform starting at 0"),
    }
    for name, (text, refusal) in files.items():
        path = tmp_path / f"{name}.csv"
        if text is not None:
            path.write_text(text)
        assert main(["evolve", "--m", "1", f"--init=file:{path}"]) == EXIT_USAGE, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("error:"), name
        assert str(path) in captured.err and refusal in captured.err, (name, captured.err)


def test_evolve_ground_state_initial(capsys):
    # the oscillator semigroup fixes its ground state
    assert main(["evolve", "--model", "ho", "--m", "3", "--points", "65", "--times", "0.5",
                 "--init", "ground"]) == EXIT_OK
    snap = json.loads(capsys.readouterr().out)["snapshots"][0]
    assert snap["sup_norm"] == pytest.approx(1.0, abs=1e-10)
    assert snap["vertex_continuity"] == 0.0


def test_bad_float_list():
    assert main(["evolve", "--times", "0.5,zap"]) == EXIT_USAGE


def test_empty_float_list_is_usage_error(capsys):
    # a check that checked nothing must not pass
    for argv in (["invariance", "--times", ",", "--m", "2", "--points", "33"],
                 ["evolve", "--times", ",", "--m", "2", "--points", "33"]):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float list ','" in captured.err, argv


def test_non_finite_or_negative_numbers_are_usage_errors(capsys):
    oracle = ["oracle", "--n", "2", "--h", "0.125", "--dt", "0.1", "--t", "0.2", "--m", "2"]
    for argv, named in ((oracle + ["--window", "-1"], "window radius must be >= 0, got -1"),
                        (oracle + ["--window", "nan"], "window radius must be >= 0, got nan"),
                        (["trace", "--t", "nan"], "time t >= 0.05, got nan"),
                        # two points per edge are too few for the vertex stencil
                        (["oracle", "--m", "2", "--n", "0.25", "--h", "0.25", "--dt", "0.1",
                          "--t", "0.2"], "vertex stencil needs >= 3 points per edge")):
        assert main(argv) == EXIT_USAGE, argv
        assert named in capsys.readouterr().err, argv


def test_time_between_steps_is_usage_error(capsys):
    # t/dt = 9.9999999 is within 1e-6 of 10, but 10 dt misses t by 1e-8:
    # refused before any march, not after it when the final level is missing
    argv = ["oracle", "--m", "2", "--n", "2", "--h", "0.25", "--dt", "0.100000001", "--t", "1.0"]
    assert main(argv) == EXIT_USAGE
    assert "t_final must be a whole number of steps dt" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    # --cutoff and --points belong to the commands that sample a grid only
    for argv in (["trace", "--no-such-flag"], ["kernel", "--points", "7"],
                 ["trace", "--cutoff", "1"], ["oracle", "--points", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


def test_invariance_both_models(capsys):
    assert main(["invariance", "--m", "3", "--times", "0.2,1.0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    checks = {v["check"] for v in payload["verdicts"]}
    assert "constants_preserved_t0.2" in checks
    assert "invariant_measure_preserved_t1" in checks
    assert "similar_pictures_agree_t1" in checks
    assert all(v["pass"] for v in payload["verdicts"])

    assert main(["invariance", "--model", "ho", "--m", "2", "--times", "0.4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {v["check"] for v in payload["verdicts"]} == {"ground_state_fixed_t0.4"}
    assert all(v["pass"] for v in payload["verdicts"])


def test_oracle_quick(capsys):
    assert main(["oracle", "--m", "2", "--n", "4", "--h", "0.03125", "--dt", "0.002",
                 "--t", "0.25", "--window", "2", "--tol", "2e-3"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["check"] == "evolution_matches_kernel_quadrature"
    assert verdict["pass"] is True
    assert verdict["vertex_continuity_max"] < 1e-12


def test_oracle_truncation_table(capsys):
    # the far field is irrelevant: successive truncation radii agree ever closer
    assert main(["oracle", "--m", "2", "--n-list", "2,3,4,6", "--h", "0.125", "--dt", "0.01",
                 "--t", "0.5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,t,sup_defect"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[:2] for row in rows] == [[3.0, 0.5], [4.0, 0.5], [6.0, 0.5]]
    assert rows[-1][2] < 1e-6 * rows[0][2]


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def unstable(*args, **kwargs):
        raise StabilityError("sup norm exceeds the growth bound")

    monkeypatch.setattr(stargraph.cli, "solve_star", unstable)
    assert main(["oracle", "--m", "2", "--n", "2", "--h", "0.25", "--dt", "0.1",
                 "--t", "0.2"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: sup norm exceeds the growth bound\n"


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["kernel", "--m", "5", "--t", "0.3", "--out", str(out)]) == EXIT_OK
        assert main(["trace", "--m", "5", "--out", str(out)]) == EXIT_OK
        assert main(["invariance", "--m", "2", "--points", "129", "--times", "0.5",
                     "--out", str(out)]) == EXIT_OK
    for name in ("kernel.csv", "trace_verdict.json", "invariance.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # JSON ends with a newline and is sorted
    text = (a / "trace_verdict.json").read_text()
    assert text.endswith("}\n")
    keys = list(json.loads(text))
    assert keys == sorted(keys)
