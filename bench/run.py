"""Benchmark of the mahonian library: four workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload dist-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times whole passes over the workload's inputs and prints the
end-to-end metrics named in BENCHMARK.json.  ``--trace 1`` runs half the time
untraced and half with the span tracer laid over the library, prints the
per-layer metrics and writes the spans to ``bench/results/``.  Every
operation is one closed-loop call with ``jobs=1``; the seed only generates
inputs.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run's
metadata and the workload's own metrics.  ``--workload all`` runs each
workload in a fresh process and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
# Spans stay in memory until the run ends, so the traced passes are capped.
TRACED_PASSES = 5

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def load_library():
    """Import mahonian from this checkout's src/ and nowhere else."""
    init = SRC / "mahonian" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mahonian

    if Path(mahonian.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported mahonian from {mahonian.__file__}")
    return mahonian


def metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def build(lib, name: str, seed: int, size: str, expected: dict):
    workload = WORKLOADS[name](lib, seed, size, expected)
    workload.warm_up()
    return workload


# ----------------------------------------------------------------- timing


def run_passes(workload, budget: float, after_pass, max_passes=None) -> list[float]:
    """Run whole passes over the workload's operations until the next pass
    would overrun the budget (at least one, at most max_passes).
    after_pass receives each pass's (op, seconds, output, error) rows,
    outside the timed region.  Returns the pass durations."""
    durations = []
    begun = time.perf_counter()
    while True:
        rows = []
        start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed one
                output, error = None, exc
            rows.append((op, time.perf_counter() - t0, output, error))
        duration = time.perf_counter() - start
        durations.append(duration)
        after_pass(rows)
        if (time.perf_counter() - begun + duration > budget
                or len(durations) == max_passes):
            return durations


class Checker:
    """Counts attempted and failed operations and keeps the timings."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        # shortest time of each operation so far, in workload.ops order
        self.shortest = [math.inf] * len(workload.ops)
        self.failures: list[str] = []

    def best(self) -> list[tuple[object, float]]:
        """Each operation with its shortest time over the passes."""
        return list(zip(self.workload.ops, self.shortest))

    def __call__(self, rows) -> None:
        failed = 0
        outputs = []
        for i, (op, seconds, output, error) in enumerate(rows):
            if seconds < self.shortest[i]:
                self.shortest[i] = seconds
            if error is None:
                try:
                    ok = op.check(output)
                except Exception as exc:
                    ok, error = False, exc
            else:
                ok = False
            if ok:
                outputs.append((op, output))
            else:
                failed += 1
                self._note(f"{op.kind}: {error!r}" if error else f"{op.kind}: wrong output")
        try:
            broken = self.workload.check_pass(outputs)
        except Exception as exc:
            broken = 1
            self._note(f"pass check raised {exc!r}")
        if broken:
            self._note(f"{broken} whole-pass check(s) failed")
        self.attempted += len(rows)
        self.failed += min(len(rows), failed + broken)

    def _note(self, text: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(text)


# --------------------------------------------------------------- metadata


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "commit": git_commit(),
        **source_facts(),
    }


# -------------------------------------------------------------------- run


def measure_setup(args) -> list[float]:
    """Set the workload up in fresh processes, start to exit, several times."""
    times = []
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_workload(args, lib, expected: dict) -> tuple[dict, dict]:
    """One workload in this process.  Returns the result object and the
    detail object printed before it."""
    own_start = time.perf_counter()
    workload = build(lib, args.workload, args.seed, args.size, expected)
    own_setup = time.perf_counter() - own_start
    end_units, layer_units = metric_units()
    checker = Checker(workload)
    detail = {"meta": metadata(args), "inputs": workload.sizes(),
              "own_setup_s": own_setup}

    if args.trace:
        untraced = run_passes(workload, args.seconds / 2, checker)
        kept = []
        tracer = Tracer()
        detail["traced_names"] = len(tracer.install())
        try:
            traced = run_passes(workload, args.seconds / 2, kept.append,
                                TRACED_PASSES)
        finally:
            tracer.uninstall()
        for rows in kept:
            checker(rows)
        del kept
        values = layer_metrics(tracer, len(traced))
        values["trace_overhead_ratio"] = min(traced) / min(untraced)
        units = layer_units
        detail["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                             "spans": len(tracer.spans)}
        RESULTS.mkdir(exist_ok=True)
        tracer.write(str(RESULTS / f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        setups = measure_setup(args)
        passes = run_passes(workload, args.seconds, checker)
        # Best of the passes, operation by operation: the code is CPU-bound
        # on a shared machine, where other load only ever adds time.
        best = checker.best()
        calls = [seconds for _, seconds in best]
        wall = sum(calls)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "call_p50_ms": 1e3 * statistics.median(calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = end_units
        detail["samples"] = {"passes": len(passes), "calls_per_pass": len(workload.ops),
                             "setup_runs": len(setups)}
        named = {"setup_s": (values["setup_s"], "s"), "wall_s": (values["wall_s"], "s"),
                 "peak_rss_mb": (values["peak_rss_mb"], "MB"),
                 **workload.detail(best)}
        named["failed_ops_ratio"] = (checker.failed / max(1, checker.attempted), "ratio")
        detail["workload_metrics"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in named.items()
        }
    detail["facts"] = workload.facts()
    detail["failures"] = checker.failures
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        shown = dict(result["metrics"])
        shown.update(detail.get("workload_metrics", {}))
        for metric, entry in shown.items():
            print(f"  {metric:<45} {entry['value']:>16.6g} {entry['unit']}")
        if detail["facts"]:
            print(f"  facts: {json.dumps(detail['facts'], sort_keys=True)}")
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["workloads"][name] = {"result": result, "detail": detail}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(totals, indent=1), encoding="utf-8")
    print(f"written {path.relative_to(ROOT)}")
    return 0 if totals["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, warm up, exit (times set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    lib = load_library()
    expected = load_expected()
    if args.setup_only:
        build(lib, args.workload, args.seed, args.size, expected)
        return 0
    result, detail = run_workload(args, lib, expected)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"result": result, "detail": detail}, indent=1),
                                encoding="utf-8")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
