import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_relaxation_rates_split_by_sector(capsys):
    # the slowest odd mode decays like e^{-t} and needs m >= 2 edges to
    # disagree; edge-symmetric data sees only even modes, the slowest e^{-2t}
    relaxation = _load("relaxation_rates")
    assert relaxation.main(["--m", "3", "--points", "129"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines[0] == "t,dist_one_edge,rate_one_edge,dist_symmetric,rate_symmetric"
    t, _, rate_one_edge, _, rate_symmetric = (float(v) for v in lines[-1].split(","))
    assert t == 4.0
    assert abs(rate_one_edge - 1.0) < 0.1
    assert abs(rate_symmetric - 2.0) < 0.01
    with pytest.raises(SystemExit) as refused:
        relaxation.main(["--m", "1"])
    assert refused.value.code == 2
    assert "need at least two edges" in capsys.readouterr().err
