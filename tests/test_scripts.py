"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_correlator_tables_runs(capsys):
    assert _load("correlator_tables").main(["2"]) == 0
    out = capsys.readouterr().out
    assert "== level-1/2 bases ==" in out
    assert "== q-dimensions to order q^2 ==" in out
