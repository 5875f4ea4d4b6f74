"""Self-test of the benchmark.

Runs every workload at its tiny size, traced and untraced, and checks that
each result names every metric of BENCHMARK.json with its unit, that no
operation fails, and that tracing leaves the library as it found it.  Then
it feeds one deliberately wrong expected value and checks that operations
fail, which proves the output checks can fail.  Run from the repository
root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys

from run import load_expected, load_library, metric_units, parse_args, run_workload
from tracer import LAYERS
from workloads import WORKLOADS


def bindings(lib) -> dict:
    modules = [lib] + [getattr(lib, layer) for layer in LAYERS]
    return {
        (module.__name__, attr): id(value)
        for module in modules
        for attr, value in vars(module).items()
        if callable(value)
    }


def run(lib, expected, name, trace):
    args = parse_args(["--workload", name, "--seed", "7", "--seconds", "0.1",
                       "--trace", str(trace), "--size", "tiny"])
    return run_workload(args, lib, expected)


def main() -> int:
    lib = load_library()
    expected = load_expected()
    units = metric_units()
    before = bindings(lib)
    for name in WORKLOADS:
        for trace in (0, 1):
            result, detail = run(lib, expected, name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, detail["failures"])
            assert result["attempted"] >= 1
            named = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            assert named == units[trace], (name, trace, named)
            values = [entry["value"] for entry in result["metrics"].values()]
            assert all(isinstance(value, (int, float)) for value in values)
            assert bindings(lib) == before, f"{name}: library left patched"
            print(f"selftest: {name} trace={trace} ok ({result['attempted']} operations)")

    broken = copy.deepcopy(expected)
    broken["dist-large"]["tiny"]["sor_natural"]["leftmost"][0] += 1
    result, detail = run(lib, broken, "dist-large", 0)
    ratio = detail["workload_metrics"]["failed_ops_ratio"]["value"]
    assert ratio > 0 and not result["correct"] and result["failed"] >= 1, result
    print(f"selftest: wrong expected value caught (failed_ops_ratio={ratio:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
