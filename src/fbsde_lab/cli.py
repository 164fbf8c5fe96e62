"""Command-line interface.

Subcommands:
  run            execute a scenario pipeline and write tables + record
  list           print the scenario catalog
  plot-data      export one check's table as a plot-ready CSV
  solve-only     solve the scenario's value field and dump it
  simulate-only  simulate paths under a previously dumped field

Config files are JSON (schema_version 1) with the same structure as the
registry entries; flags override fields.  The output root defaults to the
``FBSDE_LAB_OUTPUT`` environment variable, then ``./fbsde_lab_out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .experiments import emit_plot_data, run_scenario
from .fieldio import dump_field, load_field, write_csv
from .scenarios import build_model, build_tc, registry_list, scenario_config
from .mc_engine import SimConfig, simulate_forward
from .value_pde import check_domain


def _output_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("FBSDE_LAB_OUTPUT", "fbsde_lab_out"))


def _load_cfg(args) -> dict:
    overrides = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    if getattr(args, "seed", None) is not None:
        overrides.setdefault("sim", {})["seed"] = args.seed
    if getattr(args, "n_paths", None) is not None:
        overrides.setdefault("sim", {})["n_paths"] = args.n_paths
    return overrides


def cmd_run(args) -> int:
    try:
        cfg = scenario_config(args.scenario, _load_cfg(args))
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    record = run_scenario(cfg, output_root=_output_root(args))
    for name, verdict in record.verdicts.items():
        print(f"{verdict.upper():7s} {name}  ({record.timings[name]}s)")
    print(f"record: {_output_root(args) / cfg['name'] / 'record.json'}")
    return 0 if record.all_passed else 1


def cmd_list(args) -> int:
    for entry in registry_list():
        print(f"{entry['name']:28s} {entry['description']}")
        print(f"{'':28s} checks: {', '.join(entry['checks'])}")
    return 0


def cmd_plot_data(args) -> int:
    try:
        path = emit_plot_data(Path(args.record_dir), args.check, args.out_csv)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(path)
    return 0


def cmd_solve_only(args) -> int:
    try:
        cfg = scenario_config(args.scenario, _load_cfg(args))
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    from .experiments import reduced_tail_field, full_field
    model = build_model(cfg["model"])
    tc = build_tc(cfg.get("tc", {}), model.cap_lambda)
    g = cfg.get("grid", {})
    if "de_reduced" in g:
        field = reduced_tail_field(model, tc, g)
    else:
        field = full_field(model, tc, g)
    out = _output_root(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg['name']}_field.bin"
    dump_field(field, path)
    print(path)
    return 0


def cmd_simulate_only(args) -> int:
    try:
        cfg = scenario_config(args.scenario, _load_cfg(args))
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    try:
        field = load_field(args.field)
    except (OSError, ValueError) as exc:
        print(f"cannot load field: {exc}", file=sys.stderr)
        return 2
    model = build_model(cfg["model"])
    try:
        if field.provenance.get("model_hash") != model.model_hash():
            raise ValueError(f"model {field.provenance.get('model_hash')}, "
                             f"scenario model {model.model_hash()}")
        check_domain(model, field.grid)
    except ValueError as exc:
        print(f"field {args.field} does not fit scenario {cfg['name']!r}: {exc}",
              file=sys.stderr)
        return 2
    scfg = cfg["sim"]
    from .experiments import make_we, cone_start
    we = make_we(model)
    sim = SimConfig(n_paths=scfg["n_paths"], n_steps=scfg["n_steps"], t0=0.0,
                    p0=np.zeros(model.dim_p),
                    e0=cone_start(model, scfg.get("e0_cone", 0.5)),
                    seed=scfg["seed"])
    ens = simulate_forward(model, field, we, sim)
    out = _output_root(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg['name']}_terminal.csv"
    write_csv(path, ["E_T", "Y_T", "Ebar_T", "escaped"],
              zip(ens.terminal_E, ens.terminal_Y, ens.terminal_Ebar,
                  ens.escaped.astype(int)))
    print(f"{path}  escape_fraction={ens.escape_fraction}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fbsde-lab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run a scenario pipeline")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--n-paths", type=int, dest="n_paths")
    run_p.add_argument("--config", help="JSON config overriding registry fields")
    run_p.add_argument("--out", help="output root directory")
    run_p.set_defaults(fn=cmd_run)

    list_p = sub.add_parser("list", help="print the scenario catalog")
    list_p.set_defaults(fn=cmd_list)

    plot_p = sub.add_parser("plot-data", help="export a check table")
    plot_p.add_argument("--record-dir", required=True)
    plot_p.add_argument("--check", required=True)
    plot_p.add_argument("--out-csv")
    plot_p.set_defaults(fn=cmd_plot_data)

    solve_p = sub.add_parser("solve-only", help="solve and dump the value field")
    solve_p.add_argument("--scenario", required=True)
    solve_p.add_argument("--config")
    solve_p.add_argument("--out")
    solve_p.set_defaults(fn=cmd_solve_only)

    simo_p = sub.add_parser("simulate-only",
                            help="simulate paths under a dumped field")
    simo_p.add_argument("--scenario", required=True)
    simo_p.add_argument("--field", required=True)
    simo_p.add_argument("--seed", type=int)
    simo_p.add_argument("--n-paths", type=int, dest="n_paths")
    simo_p.add_argument("--config")
    simo_p.add_argument("--out")
    simo_p.set_defaults(fn=cmd_simulate_only)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
