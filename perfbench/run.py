"""heatlab benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``sweep`` and
``verify``.  Each is a closed loop with one caller that
repeats a pass over its operations until ``--seconds`` would be exceeded
(always at least one pass).  The package is imported from ``src/`` of the
checkout; ``HEATLAB_THREADS`` is removed from the environment so the sweep
pool runs at its default size, which is recorded.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints every
per-layer metric, derived from spans that are written to
``.perfbench_out/spans-<workload>-<seed>.jsonl`` at exit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it describe the environment, the
timing distribution and any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
# Fresh interpreters that measure set-up besides the workload process itself;
# run one at a time, so the benchmark never runs more than one process at once.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"no BENCHMARK.json in {root}; run from the root of a checkout")
    with open(path) as fh:
        return json.load(fh)


def use_checkout_package(root):
    """Put the checkout's ``src`` first on the path, or stop."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "heatlab", "cli.py")):
        fail(f"no heatlab sources under {src}")
    sys.path.insert(0, src)
    os.environ.pop("HEATLAB_THREADS", None)


def set_up(workload, before_builds=None):
    """Import heatlab and build the workload's densities; (seconds, cli module)."""
    t0 = time.perf_counter()
    import heatlab.cli
    import heatlab.stable

    if before_builds is not None:
        before_builds()
    for alpha, d in workloads.DENSITIES[workload]:
        heatlab.stable.density(alpha, d)
    return time.perf_counter() - t0, heatlab.cli


def child_set_up(root, args):
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--setup-only"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up child failed with exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def steal_seconds():
    """CPU time the host gave other guests (``steal`` in /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 and fields[0] == "cpu" else None


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    import heatlab.content

    pool = getattr(heatlab.content, "_thread_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_pool": pool() if pool is not None else None,
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """Passes over one workload's operations and their checked outcomes."""

    def __init__(self, cli, ops):
        # ``cli.main`` is looked up per call, so a traced pass calls the wrapper
        self.cli = cli
        self.ops = ops
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.op_seconds = []

    def one_pass(self):
        """Run every operation once; returns (wall seconds, CPU seconds)."""
        outcomes = []
        cpu0 = cpu_seconds()
        t_pass = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            outcomes.append(workloads.run_operation(self.cli.main, op))
            self.op_seconds.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_pass
        cpu = cpu_seconds() - cpu0
        self.check(outcomes)
        return wall, cpu

    def check(self, outcomes):
        outputs = [workloads.comparable(op, text) for op, (_, text, _) in zip(self.ops, outcomes)]
        if self.first_outputs is None:
            self.first_outputs = outputs
        for op, (code, text, err), same, first in zip(self.ops, outcomes, outputs, self.first_outputs):
            units, bad, reason = workloads.failed_units(op, code, text)
            if bad == 0 and same != first:
                bad, reason = units, "output differs from the first pass with the same seed"
            self.attempted += units
            self.failed += bad
            if reason is not None and len(self.reasons) < 10:
                self.reasons.append(f"{op.name}: {reason} {err.strip()[-300:]}".rstrip())


def percentile_line(label, samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    line = f"{label}: median {statistics.median(xs):.6g} s over n={n}"
    if n >= 20:
        line += f"; p{100.0 * (n - 10) / n:.1f} {xs[n - 11]:.6g} s (10 samples beyond)"
    else:
        line += "; no percentile above the median has 10 samples beyond it"
    return line


def measure(run, seconds, traced_tracer=None):
    """Passes until the next would end past ``seconds``; at least one of each kind.

    With a tracer, passes alternate untraced / traced; returns the
    (untraced, traced) lists of (wall, cpu) per pass.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = traced_tracer is not None and len(traced) < len(untraced)
        if trace_this:
            traced_tracer.phase = len(traced)
            traced_tracer.install()
            try:
                traced.append(run.one_pass())
            finally:
                traced_tracer.uninstall()
        else:
            untraced.append(run.one_pass())
        elapsed = time.perf_counter() - start
        last = (traced if trace_this else untraced)[-1][0]
        need_traced = traced_tracer is not None and not traced
        if elapsed + last > seconds and not need_traced:
            return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="measure set-up once and exit")
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec = load_spec(root)
    use_checkout_package(root)
    if args.setup_only:
        secs, _ = set_up(args.workload)
        print(json.dumps({"setup_s": secs}))
        return 0

    setup_samples = [] if args.trace else [child_set_up(root, args) for _ in range(SETUP_CHILDREN)]
    tracer = tracing.Tracer() if args.trace else None
    own_setup, cli = set_up(args.workload, tracer.install if tracer else None)
    if tracer is not None:
        tracer.uninstall()
    setup_samples.append(own_setup)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    ops = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(cli, ops)
    steal0 = steal_seconds()
    untraced, traced = measure(run, args.seconds, tracer)
    steal1 = steal_seconds()

    walls = [w for w, _ in untraced]
    print(percentile_line("pass wall_s", walls))
    print(percentile_line("operation latency", run.op_seconds))
    print(f"fail_ratio: {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    if steal0 is not None and steal1 is not None:
        # vCPU time the host ran elsewhere: the usual cause of wall-time spread here
        print(f"cpu steal during the passes: {steal1 - steal0:.2f} s")
    for reason in run.reasons:
        print(f"FAILED {reason}")

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c for _, c in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_samples))
        wanted = spec["end_to_end"]
    else:
        values = tracing.layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(w for w, _ in traced)
        untraced_wall = statistics.median(walls)
        values.update(
            {
                "trace.wall_s": traced_wall,
                "trace.untraced_wall_s": untraced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            }
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; spans written to {path}")
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
