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

from .experiments import (emit_plot_data, run_scenario, scenario_field,
                          scenario_model, scenario_sim, servable_checks)
from .fieldio import dump_field, load_field, write_csv
from .scenarios import registry_list, scenario_config
from .mc_engine import simulate_forward
from .value_pde import check_domain, check_model


def _output_root(args) -> Path | None:
    """The output root, or None after printing why a root that cannot be
    created is refused (before anything is solved or simulated): its
    nearest existing ancestor, the root itself included, must be a directory."""
    root = Path(args.out or os.environ.get("FBSDE_LAB_OUTPUT", "fbsde_lab_out"))
    existing = next(p for p in (root, *root.absolute().parents) if p.exists())
    if not existing.is_dir():
        why = "exists" if existing == root else f"cannot be created: {existing} exists"
        print(f"output root {root} {why} and is not a directory", file=sys.stderr)
        return None
    return root


def _scenario_cfg(args, field=False) -> tuple | None:
    """(config, model, terminal condition, SimConfig) of the scenario with the
    config file and the ``--seed`` flag applied, or None after printing why
    the scenario is unknown or the config (with ``field``, its field) is refused."""
    try:
        overrides = json.loads(Path(args.config).read_text()) if args.config else {}
        if overrides is None:   # scenario_config would read null as "no overrides"
            raise ValueError("a config must be a JSON object, not null")
        cfg = scenario_config(args.scenario, overrides)
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return None
    except (OSError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return None
    try:
        servable_checks(cfg, field=field)
        if getattr(args, "seed", None) is not None:
            cfg["sim"]["seed"] = args.seed
        model, tc = scenario_model(cfg)
        return cfg, model, tc, scenario_sim(cfg, model)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    scenario = _scenario_cfg(args)
    out = _output_root(args) if scenario else None
    if out is None:
        return 2
    cfg = scenario[0]
    record = run_scenario(cfg, output_root=out)
    for name, verdict in record.verdicts.items():
        print(f"{verdict.upper():7s} {name}  ({record.timings[name]}s)")
    print(f"record: {out / cfg['name'] / 'record.json'}")
    return 0 if record.all_passed else 1


def cmd_list(args) -> int:
    for entry in registry_list():
        print(f"{entry['name']:28s} {entry['description']}")
        print(f"{'':28s} checks: {', '.join(entry['checks'])}")
    return 0


def cmd_plot_data(args) -> int:
    try:
        path = emit_plot_data(Path(args.record_dir), args.check, args.out_csv)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(path)
    return 0


def cmd_solve_only(args) -> int:
    scenario = _scenario_cfg(args, field=True)
    out = _output_root(args) if scenario else None
    if out is None:
        return 2
    cfg, model, tc, _ = scenario
    field = scenario_field(cfg, model, tc)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg['name']}_field.bin"
    dump_field(field, path)
    print(path)
    return 0


def cmd_simulate_only(args) -> int:
    scenario = _scenario_cfg(args)
    out = _output_root(args) if scenario else None
    if out is None:
        return 2
    cfg, model, _, sim = scenario
    try:
        field = load_field(args.field)
    except (OSError, ValueError) as exc:
        print(f"cannot load field: {exc}", file=sys.stderr)
        return 2
    try:
        check_model(model, field)
        check_domain(model, field.grid)
    except ValueError as exc:
        print(f"field {args.field} does not fit scenario {cfg['name']!r}: {exc}",
              file=sys.stderr)
        return 2
    ens = simulate_forward(model, field, sim)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg['name']}_terminal.csv"
    # Python floats format faster than numpy scalars, to the same text
    write_csv(path, ["E_T", "Y_T", "Ebar_T", "escaped"],
              zip(ens.terminal_E.tolist(), ens.terminal_Y.tolist(),
                  ens.terminal_Ebar.tolist(), ens.escaped.astype(int).tolist()))
    print(f"{path}  escape_fraction={ens.escape_fraction}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fbsde-lab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run a scenario pipeline")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int)
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
    simo_p.add_argument("--config")
    simo_p.add_argument("--out")
    simo_p.set_defaults(fn=cmd_simulate_only)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
