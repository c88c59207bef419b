import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import stargraph.cli
import stargraph.spectral
from stargraph.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from stargraph.errors import StabilityError
from stargraph.geometry import GridSpec, StarFunction, StarGraph, StarPoint
from stargraph.kernels import OU, star_kernel


def _refuse(constant):
    raise AssertionError(f"{constant} is not JSON")


def _json(text):
    """Parse CLI output as strict JSON: NaN and infinities fail the test."""

    return json.loads(text, parse_constant=_refuse)


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
    verdict = _json(capsys.readouterr().out)
    assert verdict["check"] == "trace_matches_closed_form"
    assert verdict["pass"] is True
    assert verdict["partial_gap"] < 1e-10


def test_trace_outside_tolerance_fails(capsys, monkeypatch):
    # a closed form 1e-3 away from the kernel trace, so that the verdict does
    # not hang on the last bits of either value
    kernel_trace = stargraph.spectral.trace_partial(1.0, 3, 40).kernel_trace
    monkeypatch.setattr(stargraph.cli, "trace_closed_form", lambda t, m: kernel_trace + 1e-3)
    assert main(["trace", "--m", "3", "--t", "1", "--terms", "40"]) == EXIT_NUMERIC
    assert _json(capsys.readouterr().out)["pass"] is False


def test_tolerance_must_be_finite_and_non_negative(capsys):
    for tol in ("inf", "nan", "-1", "zap"):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--tol", tol])
        assert exc.value.code == EXIT_USAGE, tol
        captured = capsys.readouterr()
        assert captured.out == "", tol
        assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in captured.err, tol


def test_spectrum_outputs(tmp_path):
    assert main(["spectrum", "--m", "3", "--out", str(tmp_path)]) == EXIT_OK
    verdict = _json((tmp_path / "spectrum_verdict.json").read_text())
    assert verdict["check"] == "spectrum_clusters_at_integers"
    assert verdict["pass"] is True
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue,level,multiplicity,defect"
    # six levels on three edges: 1 + 2 + 1 + 2 + 1 + 2 eigenvalues
    assert len(rows) - 1 == 9
    first = rows[1].split(",")
    assert abs(float(first[1])) < 1e-6  # the constant sits at zero


def test_spectrum_levels_beyond_the_grid_are_usage_errors(capsys):
    # 10 levels on three edges need 15 eigenvalues; 4 points give 3 + 2 * 2,
    # and the count is checked before the grid's Peclet number (12 here)
    for levels, why in (("10", "needs 15 eigenvalues"), ("0", "at least 1"), ("-1", "at least 1")):
        assert main(["spectrum", "--m", "3", "--points", "4", "--levels", levels]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --levels"), levels
        assert why in err, levels


def test_evolve_summary_and_snapshots(tmp_path):
    assert main(["evolve", "--m", "2", "--times", "0.3", "--init", "bump",
                 "--out", str(tmp_path)]) == EXIT_OK
    summary = _json((tmp_path / "summary.json").read_text())
    snap = summary["snapshots"][0]
    assert snap["time"] == 0.3
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
    # so is data whose vertex samples disagree, and the refusal names the spread
    split = tmp_path / "split.csv"
    split.write_text("edge,radius,value\n1,0,1\n1,1,1\n1,2,1\n2,0,0\n2,1,0\n2,2,0\n")
    capsys.readouterr()
    assert main(["evolve", "--m", "2", "--times", "0.5", f"--init=file:{split}"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: semigroup input must be vertex-continuous: vertex values disagree by "
        "1.000e+00 (tolerance 1e-09 times max(1, |vertex value|))\n"
    )


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
        "text_edge": (header + "x,1,1\n", "row 2 does not parse"),
        "zero_edge": (header + "0,0,1\n0,1,1\n", "edge index 0 on row 2 is not >= 1"),
        # a large index once built the list 1..index before the refusal: 412 MB
        # for 10^7, and a MemoryError for 10^12
        "large_edge": (header + "1,0,1\n1,1,1\n10000000,0,1\n10000000,1,1\n",
                       "edge indices must cover 1..10000000"),
        "huge_edge": (header + "1,0,1\n1,1,1\n1000000000000,0,1\n1000000000000,1,1\n",
                      "edge indices must cover 1..1000000000000"),
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
    snap = _json(capsys.readouterr().out)["snapshots"][0]
    assert snap["sup_norm"] == pytest.approx(1.0, abs=1e-10)


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
    for argv, named in ((oracle + ["--window", "-1"], "radius must be finite and >= 0, got -1.0"),
                        (oracle + ["--window", "nan"], "radius must be finite and >= 0, got nan"),
                        (["trace", "--t", "nan"], "time must be finite, got nan"),
                        # two points per edge are too few for the vertex stencil
                        (["oracle", "--m", "2", "--n", "0.25", "--h", "0.25", "--dt", "0.1",
                          "--t", "0.2"], "points per edge must be an integer >= 3, got 2")):
        assert main(argv) == EXIT_USAGE, argv
        assert named in capsys.readouterr().err, argv


def test_time_between_steps_is_usage_error(capsys):
    # t/dt = 9.9999999 is within 1e-6 of 10, but 10 dt misses t by 1e-8:
    # refused before any march, not after it when the final level is missing
    argv = ["oracle", "--m", "2", "--n", "2", "--h", "0.25", "--dt", "0.100000001", "--t", "1.0"]
    assert main(argv) == EXIT_USAGE
    assert "t_final must be a whole number of steps dt" in capsys.readouterr().err


def test_grid_spacing_that_underflows_is_usage_error(capsys):
    # the grid itself is refused, with its own message, before any command
    # builds a stencil, Simpson weights or a quadrature grid on it
    for command in ("spectrum", "invariance", "evolve"):
        assert main([command, "--cutoff", "5e-324", "--points", "9"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: grid spacing") and err.count("\n") == 1, command
        assert "cutoff=5e-324" in err and "points_per_edge=9" in err, command


def test_a_long_refused_integer_is_named_by_its_size(capsys):
    # a refused integer of more than 40 characters is named by its digit
    # count, not echoed digit by digit (once a 463-character line); shorter
    # ones are echoed as they were
    span = "error: edge count must be an integer in 1..1099511627776, got "
    for m, got in ((str(10**400), "an integer of 401 digits"),
                   (str(10**40), "an integer of 41 digits"), (str(-10**38), str(-10**38)),
                   ("0", "0")):
        assert main(["trace", "--m", m]) == EXIT_USAGE
        assert capsys.readouterr().err == span + got + "\n", m


def test_unknown_flag_is_usage_error():
    # --cutoff and --points belong to the commands that sample a grid only
    for argv in (["trace", "--no-such-flag"], ["kernel", "--points", "7"],
                 ["trace", "--cutoff", "1"], ["oracle", "--points", "9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


def test_invariance_both_models(capsys):
    assert main(["invariance", "--m", "3", "--times", "0.2,1.0"]) == EXIT_OK
    payload = _json(capsys.readouterr().out)
    checks = {v["check"] for v in payload["verdicts"]}
    assert "constants_preserved_t0.2" in checks
    assert "invariant_measure_preserved_t1" in checks
    assert "similar_pictures_agree_t1" in checks
    assert all(v["pass"] for v in payload["verdicts"])

    assert main(["invariance", "--model", "ho", "--m", "2", "--times", "0.4"]) == EXIT_OK
    payload = _json(capsys.readouterr().out)
    assert {v["check"] for v in payload["verdicts"]} == {"ground_state_fixed_t0.4"}
    assert all(v["pass"] for v in payload["verdicts"])


def test_oracle_quick(capsys):
    assert main(["oracle", "--m", "2", "--n", "4", "--h", "0.03125", "--dt", "0.002",
                 "--t", "0.25", "--window", "2", "--tol", "2e-3"]) == EXIT_OK
    verdict = _json(capsys.readouterr().out)
    assert verdict["check"] == "evolution_matches_kernel_quadrature"
    assert verdict["pass"] is True


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


def _slope_past_float_max(tmp_path):
    """A two-edge file input on [0, 6], 8e307 at the vertex, stepping to
    1.6e308 on edge 1 and to 0 on edge 2: at t = 0.05 its vertex slopes are
    +-3.53 times 8e307, beyond the float maximum, so the flux is inf - inf."""

    path = tmp_path / "steep.csv"
    rows = [(edge, k, 8e307 if k == 0 else top) for edge, top in ((1, 1.6e308), (2, 0.0))
            for k in range(129)]
    path.write_text("edge,radius,value\n"
                    + "".join(f"{edge},{6.0 * k / 128!r},{value!r}\n" for edge, k, value in rows))
    return ["evolve", "--m", "2", "--init", f"file:{path}", "--times", "0.05"]


def test_non_finite_output_is_a_numerical_failure(capsys, tmp_path):
    # JSON has no NaN, so the summary is refused rather than printed
    with np.errstate(all="ignore"):
        assert main(_slope_past_float_max(tmp_path)) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: summary.json would hold a non-finite")
    assert captured.err.count("\n") == 1


def test_overflow_prints_no_numpy_warnings(capsys, tmp_path):
    # overflow shows in the results (a kernel value of 0, a refused summary),
    # not as numpy RuntimeWarnings on stderr around them
    runs = [
        (["kernel", "--model", "ho", "--m", "3", "--t", "1", "--x", "0,1e200",
          "--y", "1e200"], EXIT_OK),
        (_slope_past_float_max(tmp_path), EXIT_NUMERIC),
    ]
    for argv, code in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code, argv
        assert [str(w.message) for w in caught] == [], argv
        captured = capsys.readouterr()
        assert "Warning" not in captured.err, argv
    assert captured.err.startswith("numerical failure: summary.json would hold a non-finite")


def test_unresolved_kernels_are_refused(capsys, tmp_path):
    # each of these once exited 0 with constant data evolved to sup norms
    # far from 1 (0.848, 1.11, 249, 2.96e148, 2.84 and 1.14): the kernel is
    # narrower than the quadrature step, where apply cannot meet 1e-8
    coarse = tmp_path / "coarse.csv"
    coarse.write_text("edge,radius,value\n1,0,1\n1,3,1\n1,6,1\n")
    unit = tmp_path / "unit.csv"
    unit.write_text("edge,radius,value\n1,0,1\n1,1,1\n1,2,1\n")
    runs = [
        ["evolve", "--times", "1e-5", "--init", "one"],
        ["evolve", "--cutoff", "60", "--points", "33", "--times", "0.5"],
        ["evolve", "--points", "33", "--times", "1e-8"],
        ["evolve", "--cutoff", "1e150", "--points", "9", "--times", "0.5"],
        ["evolve", "--m", "1", "--times", "0.5", "--init", f"file:{coarse}"],
        ["evolve", "--m", "1", "--times", "0.5", "--points", "33", "--init", f"file:{unit}"],
    ]
    for argv in runs:
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: the kernel is too narrow for the quadrature"), argv
        assert "above the tolerance 1e-08" in captured.err and captured.err.count("\n") == 1, argv


def test_solver_failure_exits_3(monkeypatch, capsys):
    # a LAPACK failure of the eigensolve is a numerical failure, not bad usage
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("stebz did not converge (info=1)")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fails)
    assert main(["spectrum", "--m", "3", "--points", "65", "--levels", "3"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numerical failure: the sector eigensolve failed: stebz did not converge (info=1)\n")


def test_spectrum_on_a_grid_past_cell_peclet_number_one_is_usage_error(capsys):
    # 9 points on [0, 6] give the stencil of -x u' a cell Peclet number
    # cutoff h = 4.5
    assert main(["spectrum", "--points", "9"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cell Peclet number 4.500 > 1; refine h to keep the centered "
        "discretization monotone\n")


def test_run_too_large_to_allocate_is_usage_error(capsys):
    # 10^12 steps of stored levels need petabytes, beyond any address space
    for extra in ([], ["--n-list", "4,6"]):
        assert main(["oracle", "--m", "3", "--t", "1e9"] + extra) == EXIT_USAGE, extra
        captured = capsys.readouterr()
        assert captured.out == "", extra
        assert captured.err.startswith("error: the run needs more memory"), extra


def _run_cli(args: list[str], timeout: float = 30,
             memory_cap: int | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter; a run that hangs fails on the timeout.

    With ``memory_cap`` the child caps its own address space at that many
    bytes before it imports the package, and uses one BLAS thread.
    """

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-m", "stargraph.cli"]
    if memory_cap is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"
        command = [sys.executable, "-c",
                   f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
                   f"({memory_cap}, {memory_cap})); from stargraph.cli import main; "
                   f"sys.exit(main())"]
    return subprocess.run([*command, *args], capture_output=True, text=True, env=env,
                          timeout=timeout)


def test_huge_edge_count_fails_at_once():
    # one constant profile per edge once meant 10^12 lambdas, built until the
    # memory ran out; the cap keeps a regression from taking the machine's
    # memory, and the timeout from taking its time
    run = _run_cli(["evolve", "--m", "1000000000000", "--points", "9"], timeout=10,
                   memory_cap=2 << 30)
    assert run.returncode == EXIT_USAGE, run.stderr
    assert run.stdout == ""
    # a MemoryError without text adds no empty "()"
    assert run.stderr == "error: the run needs more memory than is available\n"


def test_huge_spectrum_level_count_fails_at_once():
    # the expected levels of 10^12 edges, about 3·10^12 values, were once a
    # Python list built until the memory ran out
    run = _run_cli(["spectrum", "--m", "1000000000000", "--points", "9"], timeout=10,
                   memory_cap=2 << 30)
    assert run.returncode == EXIT_USAGE, run.stderr
    assert run.stderr.startswith("error: the run needs more memory"), run.stderr


def test_extreme_inputs_exit_cleanly(tmp_path):
    # each of these once ran for seconds to forever, or ended in a traceback:
    # a trace sum over 10^12 terms, a 10^7-level list built before the
    # dimension check, quadrature grids of ~10^302 nodes (or a step that
    # underflows to 0) at tiny cutoffs, and an infinite node count for
    # samples 1e-300 apart evolved onto a grid of cutoff 1e300
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("edge,radius,value\n1,0,1\n1,1e-300,1\n1,2e-300,1\n")
    huge = "99999999999999999999"
    oracle = ["oracle", "--t", "0.1", "--n", "4", "--h", "0.125", "--dt", "0.01"]
    # meshes numpy cannot index, refused before anything is allocated; each
    # once ended in a ValueError or OverflowError traceback
    budget = "must be at most 1.1e+12 (the node budget)"
    line = "oracle nodes per edge n/h + 1 " + budget
    levels = "oracle levels t_final/dt + 1 " + budget
    refused = {
        "evolve_points": (["evolve", "--points", huge, "--times", "0.5"],
                          "points per edge " + budget),
        "spectrum_points": (["spectrum", "--points", huge, "--levels", "2"],
                            "points per edge " + budget),
        "invariance_points": (["invariance", "--points", huge], "points per edge " + budget),
        "oracle_n": (oracle + ["--n", "1e300"], line),
        "oracle_h": (oracle + ["--h", "1e-300"], line),
        "oracle_n_over_h": (oracle + ["--n", "1e300", "--h", "1e-300"], line),
        "oracle_dt": (oracle + ["--dt", "1e-300"], levels),
        "oracle_t": (oracle + ["--t", "1e300", "--dt", "1"], levels),
        "oracle_steps": (oracle + ["--t", "1e18", "--dt", "1"], levels),
        "oracle_n_list": (oracle + ["--n-list", "4,1e300"], line),
        # NaN passes the order check of the radii, and every radius is
        # checked before the window is taken from the smallest
        "oracle_nan_radius": (oracle + ["--n-list", "nan,4"],
                              "n must be positive and finite, got nan"),
        # a final time below half a step is no level at all; the march once
        # ended in an IndexError traceback
        "oracle_no_step": (oracle + ["--t", "1e-10", "--dt", "1"],
                           "t_final must be a whole number of steps dt, at least one"),
        # a mesh so fine that the stencil's q/h^2 is inf once ended in a
        # ValueError traceback from the eigensolver
        "spectrum_fine": (["spectrum", "--cutoff", "1e-300", "--points", "9"],
                          "pass the float maximum at mesh width h = 1.25e-301"),
    }
    # edge counts beyond the node budget; each once ended in an OverflowError
    # traceback, and the oracle looped over the edges before it checked them
    for command in ("evolve", "kernel", "spectrum", "trace", "oracle", "invariance"):
        refused[f"{command}_m"] = ([command, "--m", str(10**400)],
                                   "edge count must be an integer in 1..1099511627776")
    runs = {
        "trace": ["trace", "--terms", str(10**12)],
        "spectrum": ["spectrum", "--levels", "10000000"],
        "evolve": ["evolve", "--cutoff", "1e-300", "--points", "9", "--times", "0.5"],
        "invariance": ["invariance", "--cutoff", "1e-300", "--points", "9"],
        "underflow": ["evolve", "--cutoff", "5e-324", "--points", "9", "--times", "0.5"],
        "samples": ["evolve", "--m", "1", "--init", f"file:{tiny}", "--cutoff", "1e300",
                    "--points", "33", "--times", "0.5"],
    }
    done = {name: _run_cli(args) for name, args in runs.items()}
    for name, (args, named) in refused.items():
        run = _run_cli(args)
        assert run.returncode == EXIT_USAGE, (name, run.stderr)
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, name
        assert named in run.stderr, (name, run.stderr)
    for name, run in done.items():
        assert run.returncode in (EXIT_OK, EXIT_USAGE), (name, run.stderr)
        assert "Traceback" not in run.stderr, name
        if run.returncode == EXIT_USAGE:
            assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, name
    # e^{-kt} is 0.0 long before 20000 terms at t = 1, so the sums agree
    assert done["trace"].stdout == _run_cli(["trace", "--terms", "20000"]).stdout
    assert _json(done["trace"].stdout)["pass"] is True
    # both sides of the trace are closed forms, so the 7.46e10 levels that
    # contribute at t = 1e-8 cost no more than 40 do
    run = _run_cli(["trace", "--t", "1e-8", "--terms", str(10**12)], timeout=10)
    assert run.returncode == EXIT_OK, run.stderr
    assert _json(run.stdout)["pass"] is True


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
    keys = list(_json(text))
    assert keys == sorted(keys)
