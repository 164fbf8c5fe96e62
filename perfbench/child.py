"""Run one fbsde-lab command in this fresh interpreter, as the console
script would, and mark where its set-up ends.

    python3 child.py --mark FILE [--trace FILE | --setup-only] -- <fbsde-lab arguments>

Set-up ends once ``fbsde_lab.cli`` is imported and the scenario config is
resolved; the ``time.monotonic()`` of that moment is written to the mark
file.  With ``--setup-only`` the process exits there, without running the
command.  With ``--trace`` the layer functions are wrapped first (see
``tracer.py``) and the spans are written to that file when the command
returns.  The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path


def _option(args, flag):
    return args[args.index(flag) + 1] if flag in args else None


def main(argv):
    sep = argv.index("--")
    own, cli_args = argv[:sep], argv[sep + 1:]
    trace_path = _option(own, "--trace")

    from fbsde_lab import cli, scenarios
    overrides = {}
    config = _option(cli_args, "--config")
    if config is not None:
        overrides = json.loads(Path(config).read_text())
    try:
        scenarios.scenario_config(_option(cli_args, "--scenario"), overrides)
    except KeyError:
        pass            # the command itself reports an unknown scenario
    tracer = None
    if trace_path is not None:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
    Path(_option(own, "--mark")).write_text(repr(time.monotonic()))
    if "--setup-only" in own:
        return 0

    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
