"""Quick check of the benchmark itself (not part of the test suite).

Runs every workload at the tiny size, untraced and traced, and checks
that the last output line is the result object with every metric that
BENCHMARK.json names, each with its unit, that the error rate is printed
and that the outputs pass their checks.

    python3 bench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            where = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: outputs incorrect")
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} [{m['unit']}] -> {got}")
            if not any(line.split()[:1] == ["error_rate"] for line in lines):
                problems.append(f"{where}: no error_rate line")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print("SMOKE FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
