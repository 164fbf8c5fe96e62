"""Per-layer metrics from the span dumps of traced processes.

A span's self time is its duration minus its direct child spans and the
counter calls (``f``, ``w``) and tracer bookkeeping charged to it.  Work
units (cell updates, path steps, normals, megabytes) come from the call
arguments and results, so a grid or substep change does not read as a
speed-up.  ``unique_ratio`` is distinct artefact keys over calls: 1 means
nothing was built twice.
"""

from __future__ import annotations

from collections import defaultdict

SOLVERS = ("solve_reduced_1d", "solve_mollified")
CHECKS = ("validate", "dirac_atom", "sandwich", "burgers_gap")
COUNTERS = ("model_core.feedback", "burgers_ref.w_mc", "burgers_ref.w_closed")
ONEOFF = "value_pde.solve_reduced_1d.oneoff_affine."


def _duration(span) -> float:
    return span["end"] - span["start"]


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def _spans_with_self_time(dump):
    spans = dump["spans"]
    covered = [s["child_s"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += _duration(s)
    return [(s, _duration(s) - c) for s, c in zip(spans, covered)]


def layer_metrics(dumps) -> dict:
    """Aggregate the dumps of one round's traced processes."""
    by_name = defaultdict(list)
    counters = {name: {"calls": 0, "evals": 0, "s": 0.0} for name in COUNTERS}
    experiments_self = 0.0
    for dump in dumps:
        for span, self_s in _spans_with_self_time(dump):
            by_name[span["name"]].append((span, self_s))
            if span["name"].startswith("experiments."):
                experiments_self += self_s
        for name, c in dump["counters"].items():
            for key in ("calls", "evals", "s"):
                counters[name][key] += c[key]

    def total(name, key=None):
        return sum(_duration(s) if key is None else s[key] for s, _ in by_name[name])

    def unique_ratio(name):
        keys = [s["key"] for s, _ in by_name[name]]
        return len(set(keys)) / len(keys) if keys else 1.0

    m = {}
    for solver in SOLVERS:
        name = f"value_pde.{solver}"
        secs, cells = total(name), total(name, "cell_updates")
        m.update({
            f"{name}.calls": len(by_name[name]),
            f"{name}.s": secs,
            f"{name}.user_s": total(name, "user_s"),
            f"{name}.sys_s": total(name, "sys_s"),
            f"{name}.minflt": total(name, "minflt"),
            f"{name}.cell_updates": cells,
            f"{name}.cell_updates_per_s": _rate(cells, secs),
            f"{name}.unique_ratio": unique_ratio(name),
        })

    sim = "mc_engine.simulate_forward"
    secs, steps = total(sim), total(sim, "path_steps")
    normals_s, normals = total("mc_engine.path_normals"), total("mc_engine.path_normals", "normals")
    m.update({
        f"{sim}.calls": len(by_name[sim]),
        f"{sim}.s": secs,
        f"{sim}.self_s": sum(self_s for _, self_s in by_name[sim]),
        f"{sim}.path_steps": steps,
        f"{sim}.path_steps_per_s": _rate(steps, secs),
        f"{sim}.unique_ratio": unique_ratio(sim),
        "mc_engine.path_normals.s": normals_s,
        "mc_engine.path_normals.normals": normals,
        "mc_engine.path_normals.normals_per_s": _rate(normals, normals_s),
        "mc_engine.escape_fraction": max((s["escape_fraction"] for s, _ in by_name[sim]),
                                         default=0.0),
    })

    fb = counters["model_core.feedback"]
    m.update({"model_core.feedback.calls": fb["calls"],
              "model_core.feedback.evals": fb["evals"],
              "model_core.feedback.s": fb["s"]})
    for name in ("burgers_ref.w_mc", "burgers_ref.w_closed"):
        m[f"{name}.calls"] = counters[name]["calls"]
        m[f"{name}.s"] = counters[name]["s"]
    m["burgers_ref.burgers_gap.self_s"] = sum(
        self_s for _, self_s in by_name["burgers_ref.burgers_gap"])

    for name in ("fieldio.dump_field", "fieldio.load_field"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.mb"] = total(name, "mb")
    m["fieldio.write_csv.calls"] = len(by_name["fieldio.write_csv"])
    m["fieldio.write_csv.s"] = total("fieldio.write_csv")

    for check in CHECKS:
        m[f"experiments.check.{check}.s"] = total(f"experiments.check.{check}")
    m["experiments.self_s"] = experiments_self
    return m


def oneoff_metrics(dumps) -> dict:
    """Rusage of the reduced solves in the one-off process(es)."""
    solves = [s for d in dumps for s in d["spans"]
              if s["name"] == "value_pde.solve_reduced_1d"]
    return {ONEOFF + "s": sum(_duration(s) for s in solves),
            ONEOFF + "user_s": sum(s["user_s"] for s in solves),
            ONEOFF + "sys_s": sum(s["sys_s"] for s in solves),
            ONEOFF + "minflt": sum(s["minflt"] for s in solves)}
