"""rdmsim benchmark.

Run from the repository root:

    python3 bench/run.py --workload collapse-tail --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, jobs run one after another):
  collapse-tail  frozen-k collapse ensembles with heavy-tailed collapse times
  kernels-mix    every non-collapse kernel at fixed sizes, no CLI or files
  cli-scenarios  generated scenario files run through rdmsim.cli.main

The runner imports the library from ./src in one process, with BLAS
threads capped at the number of usable cores.  It runs the workload's
input sets in turn until --seconds have passed and checks every job's
outputs.  A job fails when it raises, returns the wrong exit code or
misses its output check.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one input set's jobs, median over the run
  cpu_s        process CPU time over the same jobs, median over the run
  setup_s      import of every rdmsim module plus building the inputs, in
               a fresh interpreter (median over several processes)
  peak_rss_mb  peak resident memory of this process
wall_s and cpu_s are in reference seconds: short samples of a fixed
reference computation, taken from a timer signal throughout the run and
not charged to the jobs they interrupt, measure the machine's speed (see
calibrate.py), and each run of an input set is scaled by the speed
measured during it.  The raw times and the speed factors are kept in the
result file.  setup_s is in plain seconds: the import time of a fresh
interpreter does not follow the reference's speed, so scaling it only
adds noise.
--trace 1 runs input set 0 alternately untraced and traced and reports
self time and work counts per layer (see spans.py), the traced wall
time and the tracing overhead (traced minus untraced wall time), all in
plain seconds.
Both modes print the error rate (failed / attempted jobs) and run
metadata, write a result file and the output digests under
.bench_out/, and end with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"correct" is false when a job that completed gave a wrong result;
jobs that raise count as failed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import NullTracer, Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("collapse-tail", "kernels-mix", "cli-scenarios")
SIZES = ("full", "tiny")
SETUP_SAMPLES = {"full": 5, "tiny": 1}  # fresh interpreters timed for setup_s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

LAYERS = ("collapse", "beable", "protective", "frames", "schrodinger", "rdm",
          "hilbert", "cli", "io", "verify")
# per-layer work counts and the rate reported for each
LAYER_COUNTS = {"collapse.calls": None, "collapse.trial_steps": "collapse.trial_steps_per_s",
                "beable.traj_steps": "beable.traj_steps_per_s",
                "protective.projections": "protective.projections_per_s",
                "frames.events": "frames.events_per_s",
                "schrodinger.grid_steps": "schrodinger.grid_steps_per_s",
                "rdm.draws": "rdm.draws_per_s", "cli.jobs": None, "io.bytes_written": None}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny shrinks every input, for the smoke check")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it (used internally)")
    return p.parse_args(argv)


def setup(workload, seed, size, workdir):
    """Import every rdmsim module, then build the workload's input sets."""
    t0 = time.perf_counter()
    import workloads
    t1 = time.perf_counter()
    sets = workloads.WORKLOADS[workload](seed, size, workdir)
    return workloads, sets, (t1 - t0, time.perf_counter() - t1)


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    res = json.loads(done.stdout.strip().splitlines()[-1])
    return res["import_s"], res["inputs_s"]


class Tally:
    """Attempted and failed jobs, and the reason for each failure."""

    def __init__(self):
        self.attempted = self.raised = self.missed = 0
        self.problems = Counter()  # (job, reason) -> occurrences
        self.notes = Counter()  # (job, note) -> occurrences; notes do not fail a job

    def fail(self, job, reason, raised):
        if raised:
            self.raised += 1
        else:
            self.missed += 1
        self.problems[(job, reason)] += 1

    @property
    def failed(self):
        return self.raised + self.missed


def run_set(wl, jobs, tracer, tally, digests, speed=None):
    """Run one input set's jobs in order; return their (wall, cpu) seconds.

    digests maps job name -> digest of the first run of these inputs;
    a later run with other outputs misses the determinism check.  The
    time an armed Speed spends in reference samples inside a job is not
    counted as the job's."""
    wall = cpu = 0.0
    earlier = {}
    for job in jobs:
        if job.prepare is not None:
            job.prepare()
        tally.attempted += 1
        s_wall, s_cpu = (speed.wall, speed.cpu) if speed is not None else (0.0, 0.0)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span(f"job.{job.name}"):
                out = job.run(tracer)
        except Exception as exc:  # a raising job is a failed operation, not a crash
            out, raised = None, exc
        else:
            raised = None
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if speed is not None:
            wall -= speed.wall - s_wall
            cpu -= speed.cpu - s_cpu
        if raised is not None:
            tally.fail(job.name, f"raised {type(raised).__name__}: {raised}", raised=True)
            continue
        notes = []
        reason = job.check(out, earlier, notes)
        tally.notes.update((job.name, note) for note in notes)
        digest = (job.digest or wl.digest_data)(out)
        if reason is None and digests.setdefault(job.name, digest) != digest:
            reason = "outputs differ from an earlier run of the same inputs"
        if reason is None:
            earlier[job.name] = out
        else:
            tally.fail(job.name, reason, raised=False)
    return wall, cpu


def _time_left(start, seconds, last):
    """Whether another run of about `last` seconds ends near the budget:
    the run may overshoot --seconds by at most half a run."""
    return time.perf_counter() - start + 0.5 * last < seconds


def measure(args, wl, sets, tally, digests, speed):
    """Cycle through the input sets until --seconds have passed, taking
    reference samples throughout.  Return the raw wall and CPU seconds of
    each run of a set and the speed factor of the samples taken during it."""
    walls, cpus, factors = [], [], []
    start = time.perf_counter()
    with speed.armed():
        while not walls or _time_left(start, args.seconds, walls[-1]):
            r = len(walls) % len(sets)
            first = len(speed.samples)
            wall, cpu = run_set(wl, sets[r], NullTracer(), tally,
                                digests.setdefault(r, {}), speed)
            walls.append(wall)
            cpus.append(cpu)
            factors.append(speed.factor(first, len(speed.samples)))
    return walls, cpus, factors


def measure_traced(args, wl, sets, tally, digests):
    """Alternate untraced and traced runs of input set 0."""
    import rdmsim

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or _time_left(start, args.seconds, plain[-1] + traced[-1]):
        plain.append(run_set(wl, sets[0], NullTracer(), tally, digests.setdefault(0, {}))[0])
        tracer = Tracer()
        with instrumented(tracer, rdmsim):
            traced.append(run_set(wl, sets[0], tracer, tally, digests[0])[0])
        tracers.append(tracer)
    return plain, traced, tracers


def layer_metrics(plain, traced, tracers, setups):
    busy = {layer: statistics.median(t.self_times().get(layer, 0.0) for t in tracers)
            for layer in LAYERS}
    counts = tracers[-1].counts  # the same inputs each time, so the same counts
    m = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS}
    for name, rate in LAYER_COUNTS.items():
        m[name] = (counts[name], "B" if name == "io.bytes_written" else "count")
        if rate:
            layer = name.split(".")[0]
            m[rate] = (counts[name] / busy[layer] if busy[layer] > 0 else 0.0, "1/s")
    stepped = counts["collapse.stepped_steps"]
    m["collapse.live_fraction"] = (counts["collapse.trial_steps"] / stepped if stepped else 0.0,
                                   "fraction")
    m["setup.import_s"] = (statistics.median(s[0] for s in setups), "s")
    m["setup.inputs_s"] = (statistics.median(s[1] for s in setups), "s")
    m["trace.wall_s"] = (statistics.median(traced), "s")
    m["trace.overhead_s"] = (statistics.median(t - p for t, p in zip(traced, plain)), "s")
    return m


def metadata(args, reps):
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "repetitions": reps,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown",
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (SRC / "rdmsim").rglob("*.py")),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rdmsim" / "__init__.py").is_file():
        print(f"error: no rdmsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = cores
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _, _, (import_s, inputs_s) = setup(args.workload, args.seed, args.size,
                                           OUT / "probe" / args.workload)
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    wl, sets, own_setup = setup(args.workload, args.seed, args.size,
                                OUT / "work" / args.workload)
    setups = [own_setup]
    setups += [probe_setup(args) for _ in range(SETUP_SAMPLES[args.size] - 1)]
    tally, digests = Tally(), {}

    if args.trace:
        plain, traced, tracers = measure_traced(args, wl, sets, tally, digests)
        metrics = layer_metrics(plain, traced, tracers, setups)
        reps = len(traced)
        extra = {"spans": tracers[-1].spans}
        summary = f"{reps} untraced + {reps} traced runs of input set 0"
    else:
        from calibrate import Speed  # imports numpy, so not before the set-up

        speed = Speed()
        walls, cpus, factors = measure(args, wl, sets, tally, digests, speed)
        f = speed.factor()
        metrics = {
            "wall_s": (statistics.median(w * g for w, g in zip(walls, factors)), "s"),
            "cpu_s": (statistics.median(c * g for c, g in zip(cpus, factors)), "s"),
            "setup_s": (statistics.median(i + b for i, b in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        reps = len(walls)
        extra = {"runs": {"wall_s": walls, "cpu_s": cpus, "speed_factor": factors,
                          "setup_s": setups},
                 "speed": {"factor": f, "reference_samples": speed.samples}}
        summary = (f"{reps} runs over {min(reps, len(sets))} input sets; raw wall_s "
                   f"median {statistics.median(walls):.4f} s (from {min(walls):.4f} to "
                   f"{max(walls):.4f}); setup_s over {len(setups)} fresh processes; "
                   f"speed factor {min(factors):.4f} to "
                   f"{max(factors):.4f}, {f:.4f} over the run from "
                   f"{len(speed.samples)} reference samples")

    error_rate = tally.failed / tally.attempted
    meta = metadata(args, reps)
    print(f"rdmsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<32} {error_rate:>16.6g} fraction "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for (job, reason), times in sorted(tally.problems.items()):
        print(f"  failed x{times} {job}: {reason}")
    for (job, note), times in sorted(tally.notes.items()):
        print(f"  note x{times} {job}: {note}")

    result = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "error_rate": error_rate,
        "failures": [{"job": j, "reason": r, "times": n}
                     for (j, r), n in sorted(tally.problems.items())],
        "notes": [{"job": j, "note": t, "times": n} for (j, t), n in sorted(tally.notes.items())],
        **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for kind, payload in (("results", result), ("digests", digests)):
        (OUT / kind).mkdir(parents=True, exist_ok=True)
        (OUT / kind / f"{stem}.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": tally.missed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
