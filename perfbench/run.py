"""The fapft benchmark: one workload, seeded inputs, checked outputs, one JSON line.

    python3 perfbench/run.py --workload angles_ref --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository (the program is imported from its
``src/``). With ``--trace 0`` each operation is real ``fapft`` commands in a
child process, and the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` one operation runs untraced and then once more with spans
recorded inside each command's process around the toolkit's public functions
(see ``tracing.py``); the last line carries the per-layer metrics.
``--workload all`` runs every workload in turn.

Lines before the last are for people: the environment, a metric table, and
for traced runs a per-layer self-time table. The full record of each run
(environment, every metric, per-operation values) and the traced run's spans
go to ``.perfbench_out/``; inputs live in ``.perfbench_work/`` while the run
lasts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# every run must end within 180 s; no operation starts after this many
# seconds, and a command still running at the hard limit is killed
START_LIMIT_S = 120.0
KILL_LIMIT_S = 170.0
# set-up repeats at least this often, and until it has taken this long: a
# set-up of a few microseconds is sampled over seconds of the host's load
MIN_SETUPS = 2
MIN_SETUP_S = 4.0
MAX_SETUPS = 100_000
# the reported wall time is a median over at least this many operations
MIN_OPS = 2
IMPORT_SAMPLES = 3
# per-layer metrics measured around the commands rather than from spans: the
# untraced commands' CPU time in user and kernel mode, a bare ``import
# fapft.cli`` in a child, and the traced operation's wall time minus the
# untraced one's
PROCESS_METRICS = ("process.user_s", "process.sys_s", "cli.import_s", "trace_overhead_s")


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = get()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "PFT_THREADS": os.environ.get("PFT_THREADS", "unset (default)"),
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def spawn(argv: list[str], log, kill_after: float) -> dict:
    """Run one child to completion: its wall time, and its own rusage from wait4."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        deadline = threading.Timer(max(kill_after, 0.0), child.kill)
        deadline.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            deadline.cancel()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": child.returncode,
            "user_s": usage.ru_utime, "sys_s": usage.ru_stime}


def serve_launcher():
    """Start each command read from stdin and answer with its ``spawn`` result."""
    for line in sys.stdin:
        request = json.loads(line)
        result = spawn(request["argv"], request["log"], request["kill_after"])
        print(json.dumps(result), flush=True)


class Runner:
    """Starts commands for one benchmark run through a small launcher process.

    A child's ``ru_maxrss`` also counts the peak RSS of the address space it
    was started from, so children started by this process, which holds the
    oracles, could report its memory as their own. The launcher is started
    before this process allocates anything and stays small.
    """

    def __init__(self):
        self.started = time.perf_counter()
        self.launcher = subprocess.Popen(
            [sys.executable, __file__, "--launcher"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def restart_clock(self):
        self.started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, argv: list[str], log: Path) -> dict:
        request = {"argv": argv, "log": str(log), "kill_after": KILL_LIMIT_S - self.elapsed}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        return json.loads(line)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()


def fapft_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fapft.cli", *args]


def run_op(runner: Runner, wl, op: int) -> dict:
    """One untraced operation: each command in a child, then the output check."""
    results = [
        runner.run(fapft_argv(args), wl.work / f"op{op}.{label}.log")
        for label, args in wl.commands(op)
    ]
    failed = [r["rc"] for r in results if r["rc"] != 0]
    error = f"exit codes {failed}" if failed else wl.check(op)
    return {
        "wall": sum(r["wall"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "user_s": sum(r["user_s"] for r in results),
        "sys_s": sum(r["sys_s"] for r in results),
        "error": error,
    }


def import_times(runner: Runner, work: Path, samples: int) -> list[float]:
    argv = [sys.executable, "-c", "import fapft.cli"]
    return [runner.run(argv, work / "import.log")["wall"] for _ in range(samples)]


def settle(wl):
    """Put the inputs on disk and hand the oracle's freed memory back to the
    system, so neither write-back nor this process's footprint overlaps the
    timed commands."""
    import ctypes

    for path in wl.work.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).malloc_trim(0)  # glibc only


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_setups(wl) -> list[float]:
    """Set up again and again, each time into an emptied work directory, so
    that every set-up writes new files rather than truncating the last ones."""
    times: list[float] = []
    while len(times) < MIN_SETUPS or (sum(times) < MIN_SETUP_S and len(times) < MAX_SETUPS):
        for path in wl.work.iterdir():
            path.unlink()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(runner: Runner, wl, seconds: float) -> dict:
    setups = timed_setups(wl)
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    settle(wl)
    import_times(runner, wl.work, 1)  # warm the interpreter's caches before timing
    ops = []
    t0 = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - t0 < seconds and runner.elapsed < START_LIMIT_S
    ):
        ops.append(run_op(runner, wl, len(ops)))
    wall = statistics.median(o["wall"] for o in ops)
    failed = sum(o["error"] is not None for o in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in ops), "MB"),
    }
    # printed with the rest but left out of the last line: they are constant
    # multiples of 1/wall_s, and fail_ratio is the line's failed/attempted
    extra = dict(wl.rates(wall), fail_ratio=(failed / len(ops), "ratio"))
    setup_record = {"count": len(setups), "quartiles": statistics.quantiles(setups, n=4),
                    "total": sum(setups)}
    return {"ops": ops, "setups": setup_record, "prepare_s": prepare_s, "metrics": metrics,
            "extra": extra, "attempted": len(ops), "failed": failed}


def traced(runner: Runner, wl) -> dict:
    """One untraced operation, then the same operation with every command traced."""
    from perfbench.tracing import layer_metrics, load_spans, self_time_table, unit_of

    wl.setup()
    wl.prepare()
    settle(wl)
    imports = import_times(runner, wl.work, IMPORT_SAMPLES)
    untraced = run_op(runner, wl, 0)
    runs, paths, error = [], [], None
    for label, args in wl.commands(1):
        paths.append(wl.work / f"op1.{label}.spans.jsonl")
        argv = [sys.executable, "-m", "perfbench.tracing", "--spans", str(paths[-1]),
                "--op", "1", "--label", label, "--", *args]
        runs.append(runner.run(argv, wl.work / f"op1.{label}.log"))
        if runs[-1]["rc"] != 0:
            error = f"{label}: exit code {runs[-1]['rc']}"
    error = error or wl.check(1)
    spans = load_spans(p for p in paths if p.is_file())
    traced_op = {"wall": sum(r["wall"] for r in runs), "error": error,
                 "rss_mb": max(r["rss_mb"] for r in runs)}

    metrics = layer_metrics(spans)
    metrics.update(zip(PROCESS_METRICS, (
        untraced["user_s"],
        untraced["sys_s"],
        statistics.median(imports),
        traced_op["wall"] - untraced["wall"],
    )))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{wl.seed}.spans.jsonl"
    with open(spans_path, "w") as fh:
        fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)
    ops = [untraced, traced_op]
    return {
        "ops": ops, "metrics": {k: (v, unit_of(k)) for k, v in metrics.items()}, "extra": {},
        "attempted": 2, "failed": sum(o["error"] is not None for o in ops),
        "table": self_time_table(spans), "spans": str(spans_path.relative_to(ROOT)),
    }


def run_workload(runner: Runner, name: str, args) -> dict:
    from perfbench.workloads import WORKLOADS

    runner.restart_clock()
    work = WORK_DIR / f"{name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](work, args.seed, args.scale)
        result = traced(runner, wl) if args.trace else measure(runner, wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=args.seed, trace=bool(args.trace), scale=args.scale)
    return result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(result: dict, env: dict) -> None:
    name = result["workload"]
    print(f"{name}: seed={result['seed']} trace={int(result['trace'])} "
          f"ops={result['attempted']} failed={result['failed']}")
    for op, o in enumerate(result["ops"]):
        if o["error"]:
            print(f"  operation {op} failed: {o['error']}")
    if "table" in result:
        print(result["table"])
    for metric, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {metric:<36} {shown} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env)
    path = OUT_DIR / f"{name}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")


def final_line(results: list[dict]) -> str:
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for metric, (value, unit) in r["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--launcher"]:
        serve_launcher()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("reference", "toy"), default="reference",
                        help="toy shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "fapft" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'fapft'}; run from a full checkout",
              file=sys.stderr)
        return 2
    runner = Runner()
    try:
        sys.path[:0] = [str(SRC), str(ROOT)]
        from perfbench.workloads import WORKLOADS

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        if any(n not in WORKLOADS for n in names):
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        results = [run_workload(runner, n, args) for n in names]
    finally:
        runner.close()
    for r in results:
        report(r, env)
    print(final_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
