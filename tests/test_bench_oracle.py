"""The benchmark's brute-force dtpq optimum, bench/oracle.py, still runs on
this package.  It returns None when it cannot import the scenario loader or
read the link and the levels it needs, and the benchmark's check then skips
the optimality test; a rename here must fail this test instead."""

import sys
from pathlib import Path

from risbeam import dtpq, link_state
from risbeam.cli import load_scenario
from risbeam.quantization import TIE_REL_TOL

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_runs_and_dtpq_reaches_its_optimum(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import oracle

    path = ROOT / "scenarios" / "ris1_2p6ghz.json"
    best = oracle.best_xi(path)
    assert best is not None
    assert dtpq(link_state(load_scenario(str(path)))).xi >= best * (1.0 - TIE_REL_TOL)
