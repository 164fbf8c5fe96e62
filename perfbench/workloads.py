"""The benchmark's workloads: the commands of one round and their checks.

A round runs a workload's fbsde-lab commands once, each in a fresh
interpreter, one after another.  An operation is one check of a ``run``
command or one other CLI command.  It fails on a nonzero exit, a verdict
other than ``pass``, an escape fraction above 1e-3, or malformed output.

Configs reach the program only through ``--config`` files and ``--seed``.
Each config shrinks its scenario to desk-benchmark size, but only along axes
where every verdict still passes and the workload keeps exercising what it
was chosen for (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ESCAPE_LIMIT = 1e-3

CONFIGS = {
    # fine enough for the atom plateau (>= 0.8) of dirac_atom; the trap
    # check's inclusion test needs the full 80,001-node grid, so it is left out
    "dirac_run": {"checks": ["validate", "dirac_atom", "sandwich"],
                  "grid": {"de_reduced": 1e-5},
                  "sim": {"n_paths": 20_000}},
    # half the horizon and a third of the p-nodes; the e-step, where the
    # burgers_gap verdict is sensitive, stays at the scenario's 3e-4
    "nonlinear_gap": {"checks": ["validate", "burgers_gap"],
                      "model": {"horizon_T": 0.21},
                      "grid": {"n_p": 13},
                      "sweeps": {"gap_horizons": [0.2, 0.1, 0.05]}},
    # 50,001 e-nodes: above the size at which the reduced solver's per-substep
    # temporaries make a fresh process fault pages (absent at 40,001)
    "degenerate_roundtrip": {"grid": {"de_reduced": 8e-6},
                             "sim": {"n_paths": 20_000}},
}


@dataclass
class Round:
    """Outcome of one round: an error message (or None) per operation."""
    outcomes: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(err is not None for err in self.outcomes.values())


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# `run` pipelines
# ---------------------------------------------------------------------------

def _check_error(proc, record, check) -> Optional[str]:
    if proc.rc != 0:
        return f"exit code {proc.rc}"
    if record is None:
        return "no readable record.json"
    if not re.search(rf"^PASS\s+{re.escape(check)}\s", proc.stdout, re.M):
        return "no PASS line on stdout"
    verdict = record["verdicts"].get(check)
    if verdict != "pass":
        return f"verdict {verdict!r}"
    esc = record["stats"].get(check, {}).get("escape_fraction")
    if esc is not None and not esc <= ESCAPE_LIMIT:
        return f"escape fraction {esc}"
    return None


def run_pipeline(runner, scenario, config_name, seed, traced) -> Round:
    out = runner.new_dir()
    args = ["run", "--scenario", scenario,
            "--config", runner.config_path(config_name), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    proc = runner.launch(args, traced)
    try:
        record = json.loads((out / scenario / "record.json").read_text())
    except (OSError, ValueError):
        record = None
    rnd = Round()
    for check in CONFIGS[config_name]["checks"]:
        rnd.outcomes[check] = _check_error(proc, record, check)
        if record is not None and check in record["stats"]:
            blob = json.dumps(record["stats"][check], sort_keys=True)
            rnd.digests[check] = hashlib.sha256(blob.encode()).hexdigest()
    return rnd


def dirac_run(runner, seed, traced) -> Round:
    return run_pipeline(runner, "affine_dirac", "dirac_run", seed, traced)


def nonlinear_gap(runner, seed, traced) -> Round:
    # no path simulation: the scenario's only randomness is the compensator's
    # fixed-seed Monte Carlo, so the command takes no --seed
    return run_pipeline(runner, "nonlinear_1d", "nonlinear_gap", None, traced)


# ---------------------------------------------------------------------------
# solve-only / simulate-only round trip
# ---------------------------------------------------------------------------

def _field_error(proc) -> tuple[Optional[str], Optional[Path]]:
    if proc.rc != 0:
        return f"exit code {proc.rc}", None
    lines = proc.stdout.strip().splitlines()
    path = Path(lines[-1]) if lines else None
    if path is None or not path.is_file():
        return "no field file named on stdout", None
    raw = path.read_bytes()
    sep = raw.find(b"\n\n")
    head = dict(line.partition(": ")[::2]
                for line in raw[:max(sep, 0)].decode("utf-8", "replace").splitlines())
    if sep < 0 or not head.get("format", "").startswith("fbsde-lab value field"):
        return "field file has no fbsde-lab header", None
    shape = json.loads(head.get("shape", "[]"))
    payload = raw[sep + 2:]
    if len(payload) != 8 * int(np.prod(shape)):
        return f"payload of {len(payload)} bytes does not match shape {shape}", None
    values = np.frombuffer(payload, dtype="<f8")
    if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0):
        return "field values outside [0, 1]", None
    return None, path


def _terminal_error(proc, n_paths) -> tuple[Optional[str], Optional[Path]]:
    if proc.rc != 0:
        return f"exit code {proc.rc}", None
    m = re.search(r"^(\S+)\s+escape_fraction=(\S+)\s*$", proc.stdout, re.M)
    if m is None:
        return "no escape_fraction line on stdout", None
    path, esc = Path(m.group(1)), float(m.group(2))
    if not esc <= ESCAPE_LIMIT:
        return f"escape fraction {esc}", None
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return "terminal CSV missing", None
    if rows[:1] != [["E_T", "Y_T", "Ebar_T", "escaped"]] or len(rows) != n_paths + 1:
        return f"terminal CSV has {len(rows) - 1} rows, expected {n_paths}", None
    data = np.array(rows[1:], dtype=float)
    if not np.all(np.isfinite(data)):
        return "non-finite terminal values", None
    if data[:, 1].min() < 0.0 or data[:, 1].max() > 1.0:
        return "terminal Y outside [0, 1]", None
    return None, path


def solve_only(runner, scenario, traced) -> tuple[Round, Optional[Path]]:
    out = runner.new_dir()
    proc = runner.launch(["solve-only", "--scenario", scenario,
                          "--config", runner.config_path("degenerate_roundtrip"),
                          "--out", str(out)], traced)
    err, path = _field_error(proc)
    rnd = Round({f"solve-only {scenario}": err})
    return rnd, path


def degenerate_roundtrip(runner, seed, traced) -> Round:
    scenario = "degenerate_characteristics"
    rnd, field_path = solve_only(runner, scenario, traced)
    if field_path is None:
        rnd.outcomes["simulate-only"] = "no field to simulate"
        return rnd
    rnd.digests["field"] = sha256_file(field_path)
    proc = runner.launch(["simulate-only", "--scenario", scenario,
                          "--config", runner.config_path("degenerate_roundtrip"),
                          "--field", str(field_path), "--seed", str(seed),
                          "--out", str(field_path.parent)], traced)
    n_paths = CONFIGS["degenerate_roundtrip"]["sim"]["n_paths"]
    err, csv_path = _terminal_error(proc, n_paths)
    rnd.outcomes["simulate-only"] = err
    if csv_path is not None:
        rnd.digests["terminal_csv"] = sha256_file(csv_path)
    return rnd


def affine_solve_oneoff(runner) -> Round:
    """The affine_dirac reduced solve on the degenerate workload's grid."""
    rnd, _ = solve_only(runner, "affine_dirac", True)
    return rnd


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable
    # (subcommand, scenario, config) of each process of a round, for set-up probes
    processes: tuple
    oneoff: Optional[Callable] = None


WORKLOADS = {w.name: w for w in (
    Workload("dirac_run", dirac_run,
             (("run", "affine_dirac", "dirac_run"),)),
    Workload("nonlinear_gap", nonlinear_gap,
             (("run", "nonlinear_1d", "nonlinear_gap"),)),
    Workload("degenerate_roundtrip", degenerate_roundtrip,
             (("solve-only", "degenerate_characteristics", "degenerate_roundtrip"),
              ("simulate-only", "degenerate_characteristics", "degenerate_roundtrip")),
             affine_solve_oneoff),
)}


def setup_probe(runner, workload) -> Round:
    """Launch each process of a round only up to the end of its set-up."""
    rnd = Round()
    for sub, scenario, config_name in workload.processes:
        proc = runner.launch([sub, "--scenario", scenario,
                              "--config", runner.config_path(config_name)],
                             setup_only=True)
        rnd.outcomes[f"set-up {sub}"] = None if proc.rc == 0 else f"exit code {proc.rc}"
    return rnd
