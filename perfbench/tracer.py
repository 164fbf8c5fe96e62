"""Layer spans recorded from outside the program, in the traced process.

``install()`` wraps the public functions of each fbsde_lab layer in every
fbsde_lab module that bound them by name, so a call is timed whichever
module makes it.  Two kinds of wrapper exist:

* spans, for calls that are few and heavy (solves, simulations, checks,
  file I/O): name, start, end, parent span, user/sys/minflt deltas from
  ``getrusage`` and the work units of the call;
* counters, for calls that are many and light (the feedback ``f``, the
  compensator ``w``): calls, evaluations and seconds, with the seconds also
  charged to the enclosing span so that its self time excludes them.

Work units and artefact keys are computed from the call's arguments and
result, outside the timed interval; that bookkeeping is charged to the
parent span like a counter, so it never shows up as a layer's self time.
Spans stay in memory and ``Tracer.dump`` writes them as JSON at exit.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import resource
import sys
import time

import numpy as np


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_minflt


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def _charge_parent(self, seconds):
        if self.stack:
            self.spans[self.stack[-1]]["child_s"] += seconds

    def span(self, name, fn, describe=None):
        """Wrap ``fn`` so each call records one span.

        ``describe(result, arguments)`` gets the call's arguments by
        parameter name and returns extra fields (work units, artefact keys)
        for the span.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name,
                   "parent": self.stack[-1] if self.stack else None,
                   "child_s": 0.0}
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            u0, s0, f0 = _rusage()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                u1, s1, f1 = _rusage()
                self.stack.pop()
                rec.update(start=t0, end=t1, user_s=u1 - u0, sys_s=s1 - s0,
                           minflt=f1 - f0)
            if describe is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                rec.update(describe(result, arguments))
                self._charge_parent(time.perf_counter() - t1)
            return result
        return wrapper

    def counter(self, name, fn, evals=None):
        """Wrap ``fn`` so each call adds to one aggregate counter."""
        c = self.counters.setdefault(name, {"calls": 0, "evals": 0, "s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                c["calls"] += 1
                c["s"] += dt
                if evals is not None:
                    c["evals"] += evals(*args, **kwargs)
                self._charge_parent(dt)
        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# work units and artefact keys
# ---------------------------------------------------------------------------

def _grid_digest(grid) -> str:
    h = hashlib.sha256()
    for axis in (grid.t_nodes, grid.e_nodes, *grid.p_nodes):
        h.update(np.ascontiguousarray(axis, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def field_key(field) -> str:
    """(model_hash, grid digest, terminal-condition kind) of a solved field."""
    prov = field.provenance
    return f"{prov.get('model_hash')}:{_grid_digest(field.grid)}:{prov.get('tc_kind')}"


def _describe_solve(field, a):
    t = field.grid.t_nodes
    substeps = np.maximum(1.0, np.ceil(np.diff(t) / field.provenance["internal_dt"]))
    cells = int(np.prod(field.grid.space_shape()))
    return {"cell_updates": int(substeps.sum()) * cells, "key": field_key(field)}


def _simconfig_repr(cfg) -> str:
    vals = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    vals["p0"] = np.asarray(vals["p0"]).tolist()
    return json.dumps(vals, sort_keys=True, default=repr)


def _describe_simulate(sim_time_grid):
    def describe(ens, a):
        field, cfg = a["field"], a["cfg"]
        steps = len(sim_time_grid(cfg, field, cfg.t_snapshots)) - 1
        return {"path_steps": cfg.n_paths * steps,
                "key": field_key(field) + "|" + _simconfig_repr(cfg),
                "escape_fraction": ens.escape_fraction}
    return describe


def _describe_normals(out, a):
    return {"normals": a["count"] * a["n_steps"] * a["d"]}


def _describe_file(result, a):
    return {"mb": os.path.getsize(a["path"]) / 1e6}


def _feedback_evals(p, y):
    return int(np.broadcast(np.asarray(p)[..., 0], y).size)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def install() -> Tracer:
    """Wrap the layer functions of the imported fbsde_lab package."""
    from fbsde_lab import (burgers_ref, experiments, fieldio, mc_engine,
                           scenarios, value_pde)

    tr = Tracer()
    feedback_counter = functools.partial(tr.counter, "model_core.feedback",
                                         evals=_feedback_evals)

    def counted_model(build_model):
        @functools.wraps(build_model)
        def wrapper(*args, **kwargs):
            model = build_model(*args, **kwargs)
            fb = dataclasses.replace(model.feedback,
                                     value=feedback_counter(model.feedback.value))
            return dataclasses.replace(model, feedback=fb)
        return wrapper

    wrapped = {
        value_pde.solve_reduced_1d: tr.span(
            "value_pde.solve_reduced_1d", value_pde.solve_reduced_1d,
            _describe_solve),
        value_pde.solve_mollified: tr.span(
            "value_pde.solve_mollified", value_pde.solve_mollified,
            _describe_solve),
        mc_engine.simulate_forward: tr.span(
            "mc_engine.simulate_forward", mc_engine.simulate_forward,
            _describe_simulate(mc_engine.sim_time_grid)),
        mc_engine.path_normals: tr.span(
            "mc_engine.path_normals", mc_engine.path_normals, _describe_normals),
        burgers_ref.burgers_gap: tr.span(
            "burgers_ref.burgers_gap", burgers_ref.burgers_gap),
        fieldio.dump_field: tr.span(
            "fieldio.dump_field", fieldio.dump_field, _describe_file),
        fieldio.load_field: tr.span(
            "fieldio.load_field", fieldio.load_field, _describe_file),
        fieldio.write_csv: tr.span("fieldio.write_csv", fieldio.write_csv),
        experiments.run_scenario: tr.span(
            "experiments.run_scenario", experiments.run_scenario),
        scenarios.build_model: counted_model(scenarios.build_model),
    }
    for name in ("reduced_tail_field", "reduced_aligned_field", "full_field"):
        fn = getattr(experiments, name)
        wrapped[fn] = tr.span(f"experiments.{name}", fn)

    # rebind every name that refers to a wrapped function, in every module
    by_id = {id(orig): (orig, wrapper) for orig, wrapper in wrapped.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("fbsde_lab"):
            continue
        for attr, val in list(vars(mod).items()):
            orig, wrapper = by_id.get(id(val), (None, None))
            if orig is val:
                setattr(mod, attr, wrapper)

    # checks are dispatched through a table, not by name
    for name, fn in list(experiments._CHECKS.items()):
        experiments._CHECKS[name] = tr.span(f"experiments.check.{name}", fn)

    # the compensator's closed forms and Monte Carlo quadrature are methods
    W = burgers_ref.WEvaluator
    W._mc = tr.counter("burgers_ref.w_mc", W._mc)
    W._affine = tr.counter("burgers_ref.w_closed", W._affine)
    W._linear_drift = tr.counter("burgers_ref.w_closed", W._linear_drift)
    return tr
