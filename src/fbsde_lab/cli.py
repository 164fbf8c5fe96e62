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

from .experiments import (check_names, emit_plot_data, make_we, run_scenario,
                          scenario_field, scenario_model, scenario_sim)
from .fieldio import dump_field, load_field, write_csv
from .scenarios import build_model, registry_list, scenario_config
from .mc_engine import simulate_forward
from .value_pde import check_domain, check_model


def _output_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("FBSDE_LAB_OUTPUT", "fbsde_lab_out"))


def _scenario_cfg(args) -> dict | None:
    """The scenario's config with the config file and the ``--seed`` and
    ``--n-paths`` flags applied, or None after printing why there is none: an
    unknown scenario, or a config file that cannot be read, is not a JSON
    object or names an unknown key, schema version or check."""
    try:
        overrides = json.loads(Path(args.config).read_text()) if args.config else {}
        if overrides is None:   # scenario_config would read null as "no overrides"
            raise ValueError("a config must be a JSON object, not null")
        cfg = scenario_config(args.scenario, overrides)
        check_names(cfg["checks"])
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return None
    except (OSError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return None
    for flag in ("seed", "n_paths"):
        if getattr(args, flag, None) is not None:
            cfg["sim"][flag] = getattr(args, flag)
    return cfg


def cmd_run(args) -> int:
    cfg = _scenario_cfg(args)
    if cfg is None:
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
    cfg = _scenario_cfg(args)
    if cfg is None:
        return 2
    field = scenario_field(cfg, *scenario_model(cfg))
    out = _output_root(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg['name']}_field.bin"
    dump_field(field, path)
    print(path)
    return 0


def cmd_simulate_only(args) -> int:
    cfg = _scenario_cfg(args)
    if cfg is None:
        return 2
    try:
        field = load_field(args.field)
    except (OSError, ValueError) as exc:
        print(f"cannot load field: {exc}", file=sys.stderr)
        return 2
    model = build_model(cfg["model"])
    try:
        check_model(model, field)
        check_domain(model, field.grid)
    except ValueError as exc:
        print(f"field {args.field} does not fit scenario {cfg['name']!r}: {exc}",
              file=sys.stderr)
        return 2
    ens = simulate_forward(model, field, make_we(model), scenario_sim(cfg, model))
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
