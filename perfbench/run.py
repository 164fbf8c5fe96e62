"""fbsde-lab benchmark: real CLI traffic, one fresh interpreter per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's rounds in a closed loop, one
command after another, and starts another round only while it is expected
to end within ``--seconds``.  Program seeds come from ``--seed``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported,
medians over the rounds.  With ``--trace 1`` every other round runs with
the layer functions wrapped (see ``tracer.py``); the per-layer metrics come
from those rounds, ``trace.overhead_frac`` compares them with the untraced
rounds in between, and all rounds use the default program seed 7 so that
``experiments.stats_match`` can compare output digests with
``reference_digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers                                                # noqa: E402
from workloads import CONFIGS, WORKLOADS, Round, setup_probe  # noqa: E402

DEFAULT_PROGRAM_SEED = 7
RUN_LIMIT_S = 150.0          # stop starting commands past this; kill at it
SETUP_PROBES = 3             # extra set-up samples per untraced run
BLAS_THREADS = "1"


@dataclass
class Proc:
    rc: int
    wall: float
    setup: float
    cpu: float
    maxrss_mb: float
    stdout: str
    trace: dict | None = None


@dataclass
class RoundStats:
    procs: list
    result: Round
    elapsed: float
    traced: bool
    kind: str = "round"          # or "probe" (set-up only) or "one-off"

    @property
    def run_s(self):
        return sum(p.wall - p.setup for p in self.procs)

    @property
    def setup_s(self):
        return sum(p.setup for p in self.procs)

    @property
    def cpu_s(self):
        return sum(p.cpu for p in self.procs)

    @property
    def peak_rss_mb(self):
        return max((p.maxrss_mb for p in self.procs), default=0.0)


class Runner:
    """Launches fbsde-lab commands, each in a fresh interpreter, serially.

    A command still running at ``deadline`` (monotonic clock) is killed.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.procs = []             # the current round's processes
        self._n = 0                 # file-name counter
        self.env = dict(os.environ)
        self.env.pop("FBSDE_LAB_OUTPUT", None)
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        for name, cfg in CONFIGS.items():
            (self.work / f"{name}.json").write_text(json.dumps(cfg))

    def config_path(self, name) -> str:
        return str(self.work / f"{name}.json")

    def new_dir(self) -> Path:
        self._n += 1
        path = self.work / f"out{self._n}"
        path.mkdir()
        return path

    def launch(self, cli_args, traced=False, setup_only=False) -> Proc:
        self._n += 1
        mark = self.work / f"mark{self._n}"
        out = self.work / f"stdout{self._n}"
        trace = self.work / f"trace{self._n}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "--mark", str(mark)]
        if traced:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--"] + list(cli_args)
        with open(out, "wb") as fo, open(self.work / f"stderr{self._n}", "wb") as fe:
            t0 = time.monotonic()
            child = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.work,
                                     env=self.env)
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        child.kill()
            timer = threading.Timer(max(1.0, self.deadline - t0), kill)
            timer.start()
            try:
                _, status, ru = os.wait4(child.pid, 0)
                t1 = time.monotonic()
                with lock:
                    reaped = True
                    child.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        try:
            setup = float(mark.read_text()) - t0
        except (OSError, ValueError):
            setup = t1 - t0                 # never got through set-up
        proc = Proc(rc=child.returncode, wall=t1 - t0, setup=setup,
                    cpu=ru.ru_utime + ru.ru_stime,
                    maxrss_mb=ru.ru_maxrss * 1024 / 1e6,
                    stdout=out.read_text(errors="replace"))
        if traced and trace.exists():
            proc.trace = json.loads(trace.read_text())
        self.procs.append(proc)
        return proc

    def run_round(self, fn, *args, traced=False, kind="round") -> RoundStats:
        self.procs = []
        t0 = time.monotonic()
        result = fn(self, *args)
        rnd = RoundStats(self.procs, result, time.monotonic() - t0, traced, kind)
        for path in self.work.glob("out*"):
            shutil.rmtree(path)
        return rnd


def measure(workload, seed, seconds, trace, work) -> list:
    """Run rounds in a closed loop for about ``seconds`` seconds."""
    rng = random.Random(seed)
    t_start = time.monotonic()
    runner = Runner(work, deadline=t_start + RUN_LIMIT_S)
    rounds = []
    if not trace:
        rounds += [runner.run_round(setup_probe, workload, kind="probe")
                   for _ in range(SETUP_PROBES)]
    while True:
        n_rounds = sum(r.kind == "round" for r in rounds)
        traced = trace and n_rounds % 2 == 1
        prog_seed = DEFAULT_PROGRAM_SEED if trace else rng.randrange(1, 2**31)
        rounds.append(runner.run_round(workload.round, prog_seed, traced,
                                       traced=traced))
        if traced and workload.oneoff and not any(r.kind == "one-off" for r in rounds):
            rounds.append(runner.run_round(workload.oneoff, traced=True, kind="one-off"))
        elapsed = time.monotonic() - t_start
        if any(r.result.failed for r in rounds) or elapsed > RUN_LIMIT_S:
            break
        if trace and not any(r.traced for r in rounds):
            continue
        typical = statistics.median(r.elapsed for r in rounds if r.kind == "round")
        if elapsed + typical > seconds:
            break
    return rounds


def _operations(rounds):
    return (sum(r.result.attempted for r in rounds),
            sum(r.result.failed for r in rounds))


def end_to_end(rounds) -> dict:
    timed = [r for r in rounds if r.kind == "round"]
    attempted, failed = _operations(rounds)
    return {"run_s": statistics.median(r.run_s for r in timed),
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in timed),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
            "ok_frac": 1.0 - failed / attempted}


def stats_match(workload_name, rounds) -> float:
    path = BENCH / "reference_digests.json"
    reference = json.loads(path.read_text()).get(workload_name)
    return float(reference is not None and all(
        r.result.digests == reference for r in rounds if r.kind == "round"))


def per_layer(workload_name, rounds) -> dict:
    traced = [r for r in rounds if r.traced and r.kind == "round"]
    untraced = [r for r in rounds if r.kind == "round" and not r.traced]
    if not (traced and untraced):
        return {}
    per_round = [layers.layer_metrics([p.trace for p in r.procs if p.trace])
                 for r in traced]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    oneoff = [p.trace for r in rounds if r.kind == "one-off" for p in r.procs if p.trace]
    metrics.update(layers.oneoff_metrics(oneoff))
    metrics["trace.overhead_frac"] = (statistics.median(r.run_s for r in traced)
                                      / statistics.median(r.run_s for r in untraced)
                                      - 1.0)
    metrics["experiments.stats_match"] = stats_match(workload_name, rounds)
    return metrics


def result(workload_name, rounds, trace, declared) -> dict:
    """The result object: operation counts and the declared metrics."""
    attempted, failed = _operations(rounds)
    metrics = per_layer(workload_name, rounds) if trace else end_to_end(rounds)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items() if name in metrics}}


def machine() -> str:
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist} missing")
    return (f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"{', '.join(versions)}, BLAS threads {BLAS_THREADS}")


def report(workload_name, rounds, res):
    """Human-readable lines that precede the result object."""
    attempted, failed = _operations(rounds)
    timed = sum(r.kind == "round" and not r.traced for r in rounds)
    print(machine())
    print(f"workload {workload_name}: {len(rounds)} rounds, medians over {timed} "
          f"untraced; fail_frac {failed / attempted:g} "
          f"({failed} of {attempted} operations)")
    for i, r in enumerate(rounds):
        kind = f"{r.kind}, traced" if r.traced else r.kind
        print(f"  round {i} ({kind}): run_s {r.run_s:.3f}  setup_s {r.setup_s:.3f}  "
              f"cpu_s {r.cpu_s:.3f}  peak_rss_mb {r.peak_rss_mb:.1f}")
        for op, err in r.result.outcomes.items():
            if err is not None:
                print(f"  FAILED {op}: {err}")
    for name, m in res["metrics"].items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")
    digests = [r.result.digests for r in rounds if r.result.digests]
    if digests:
        print("digests: " + json.dumps(digests[0], sort_keys=True))


def declared_metrics(trace) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fbsde_lab" / "cli.py").is_file():
        print(f"no fbsde-lab source checkout at {ROOT}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rounds = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = result(args.workload, rounds, args.trace, declared)
    report(args.workload, rounds, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
