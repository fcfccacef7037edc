"""The benchmark's workloads: lists of risbeam CLI jobs built from a seed.

Seed 0 runs exactly the README commands (plus the 96-point 4.9 GHz
sweep and the panel ladder, which the README has no command for).  Any
other seed draws the free parameters -- design target angles in
[20, 60] degrees and grid offsets smaller than one grid step -- so that
every seed does the same amount of work: the same point counts, the
same panels and the same methods.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SCENARIO_1BIT = "scenarios/ris1_2p6ghz.json"
SCENARIO_2BIT = "scenarios/ris2_4p9ghz.json"

# Panel ladder rungs: (name, base scenario, rows, cols).  The 1-bit rungs
# give the cell-count scaling of the threshold search; 5000 cells is the
# largest rung whose dtpq design stays within a few seconds.
LADDER = (
    ("c512", SCENARIO_1BIT, 32, 16),
    ("c2048", SCENARIO_1BIT, 64, 32),
    ("c5000", SCENARIO_1BIT, 100, 50),
    ("q2c1250", SCENARIO_2BIT, 50, 25),
    ("q2c5000", SCENARIO_2BIT, 100, 50),
)
LADDER_METHODS = ("dtpq", "eipq:5", "fixed")

WORKLOADS = ("redesign-sweep", "frozen-field", "panel-ladder")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must look like.

    ``kind`` selects the output check (see check.py).  ``rows`` is the
    number of output rows that carry a received power; ``designs`` the
    number of discrete designs (dtpq/eipq/fixed calls) the job makes.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str | None
    rows: int
    designs: int
    params: dict


def _grid_count(start: float, stop: float, step: float) -> int:
    # Same colon-range rule as risbeam.analysis.grid_values.
    return int((stop - start) / step + 0.5) + 1


def _num(value: float) -> float:
    """The value as the CLI will parse it back from its ``%g`` argument."""
    return float(f"{value:g}")


def _method_names(methods: str) -> tuple[str, ...]:
    return tuple(token.partition(":")[0] for token in methods.split(","))


def _scenario(root: Path, work: Path, base: str, name: str, *,
              theta_r: float | None = None, rows: int | None = None,
              cols: int | None = None) -> str:
    """Path (relative to root) of a scenario file, generated when it differs from base."""
    if theta_r is None and rows is None:
        return base
    doc = json.loads((root / base).read_text())
    if theta_r is not None:
        doc["placement"]["theta_r_deg"] = theta_r
    if rows is not None:
        doc["panel"]["rows"] = rows
        doc["panel"]["cols"] = cols
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2))
    return str(path.relative_to(root))


def _sweep(name: str, scenario: str, bits: int, start: float, stop: float, step: float,
           methods: str, out: Path, root: Path, axis: str = "rx_distance") -> Job:
    names = _method_names(methods)
    start, stop = _num(start), _num(stop)
    count = _grid_count(start, stop, step)
    discrete = sum(1 for m in names if m != "continuous")
    return Job(
        name=name,
        kind="threshold" if axis == "threshold" else "sweep",
        argv=("sweep", "--scenario", scenario, "--axis", axis, "--start", f"{start:g}",
              "--stop", f"{stop:g}", "--step", f"{step:g}", "--methods", methods,
              "--out", str(out.relative_to(root))),
        out=str(out.relative_to(root)),
        rows=count,
        designs=count * discrete,
        params={"start": start, "step": step, "methods": names, "bits": bits},
    )


def build(workload: str, seed: int, root: Path, work: Path) -> list[Job]:
    """Jobs of one workload; writes any generated scenario files into ``work``."""
    rng = random.Random(seed)

    def angle() -> float | None:
        return None if seed == 0 else round(rng.uniform(20.0, 60.0), 2)

    def offset(step: float) -> float:
        return 0.0 if seed == 0 else round(rng.uniform(0.0, step), 3)

    def target() -> float:
        drawn = angle()
        return 45.0 if drawn is None else drawn

    if workload == "redesign-sweep":
        o51, o96, ofit = offset(0.1), offset(1.0), offset(5.0)
        s51 = _scenario(root, work, SCENARIO_1BIT, "sweep51", theta_r=angle())
        s96 = _scenario(root, work, SCENARIO_2BIT, "sweep96", theta_r=angle())
        sfit = _scenario(root, work, SCENARIO_1BIT, "plfit", theta_r=angle())
        return [
            _sweep("sweep51", s51, 1, 5 + o51, 10 + o51, 0.1,
                   "continuous,dtpq,eipq:5,fixed:235", work / "sweep51.csv", root),
            _sweep("sweep96", s96, 2, 5 + o96, 100 + o96, 1.0,
                   "continuous,dtpq,eipq:5", work / "sweep96.csv", root),
            Job(
                name="plfit",
                kind="plfit",
                argv=("pl-fit", "--scenario", sfit, "--variable", "d2", "--start",
                      f"{50 + ofit:g}", "--stop", f"{500 + ofit:g}", "--num", "13",
                      "--method", "dtpq"),
                out=None,
                rows=13,
                designs=13,
                params={},
            ),
        ]

    if workload == "frozen-field":
        map_theta, scan_target = target(), target()
        ophi, othr = _num(offset(2.0)), offset(1.0)
        sthr = _scenario(root, work, SCENARIO_1BIT, "thresholds", theta_r=angle())
        map_out = work / "map.csv"
        map_argv = ("gradient-map", "--scenario", SCENARIO_1BIT, "--target-theta",
                    f"{map_theta:g}", "--target-phi", "180", "--method", "dtpq")
        if seed != 0:
            map_argv += ("--phi-start", f"{ophi:g}", "--phi-stop", f"{360 + ophi:g}")
        scan_out = work / "scan.csv"
        scan_methods = "continuous,dtpq,fixed:235"
        return [
            Job(
                name="map",
                kind="map",
                argv=map_argv + ("--out", str(map_out.relative_to(root))),
                out=str(map_out.relative_to(root)),
                rows=181 * 181,
                designs=1,
                params={"theta": (0.0, 0.5, 181), "phi": (ophi, 2.0, 181)},
            ),
            Job(
                name="scan",
                kind="scan",
                argv=("angle-scan", "--scenario", SCENARIO_1BIT, "--target",
                      f"{scan_target:g}", "--start", "-90", "--stop", "90", "--step", "1",
                      "--methods", scan_methods, "--out", str(scan_out.relative_to(root))),
                out=str(scan_out.relative_to(root)),
                rows=181,
                designs=2,
                params={"start": -90.0, "step": 1.0, "methods": _method_names(scan_methods)},
            ),
            _sweep("thresholds", sthr, 1, othr, 359 + othr, 1.0, "fixed",
                   work / "thresholds.csv", root, axis="threshold"),
        ]

    if workload == "panel-ladder":
        jobs = []
        for rung, base, rows, cols in LADDER:
            scenario = _scenario(root, work, base, rung, theta_r=angle(), rows=rows, cols=cols)
            bits = 1 if base == SCENARIO_1BIT else 2
            for method in LADDER_METHODS:
                name = f"{rung}-{method.partition(':')[0]}"
                out = work / f"{name}.csv"
                jobs.append(Job(
                    name=name,
                    kind="quantize",
                    argv=("quantize", "--scenario", scenario, "--method", method,
                          "--out", str(out.relative_to(root))),
                    out=str(out.relative_to(root)),
                    rows=1,
                    designs=1,
                    params={"group": rung, "method": method.partition(":")[0],
                            "scenario": scenario, "rows": rows, "cols": cols, "bits": bits},
                ))
        return jobs

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def scenario_files(jobs: list[Job]) -> list[str]:
    """Distinct scenario files the jobs read, in first-use order."""
    seen: dict[str, None] = {}
    for job in jobs:
        seen[job.argv[job.argv.index("--scenario") + 1]] = None
    return list(seen)
