"""Smoke test: the demos run to the end against the current API."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["adaptive_vs_tomography_demo", "bound_curves_demo",
                                  "mub_bounds_demo", "weight_indicatrix_demo"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    demo = load_demo(name)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    assert capsys.readouterr().out
    if name == "weight_indicatrix_demo":
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"indicatrix_{w}.csv" for w in ("identity", "qfi", "tomography")]
