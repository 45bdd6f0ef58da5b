"""Benchmark of bohreq: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  Each
round runs every operation kind of the workload once (short kinds batched),
in a fixed order, each preceded by a reference kernel; rounds repeat until
``--seconds`` have passed, so every run attempts whole rounds.  Outputs are
checked against the benchmark's own computations (``checks.py``).  The last
line of standard output is the result as one JSON object.

With ``--trace 1`` every other round is traced (spans around bohreq's public
functions, ``tracer.py``) and the per-layer metrics are reported instead of
the end-to-end ones; spans are written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads for this process and its children; at most nproc.  Set before
#: NumPy is first imported (in ``main``).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Set-ups timed per run, each in a fresh interpreter, spread evenly over the
#: measured time; setup_s is their median.
SETUP_REPEATS = 7
#: Timings of the reference kernel per sample; the fastest is kept.
REFERENCE_REPEATS = 3

END_TO_END = {"setup_s": "s", "op_ref": "ref", "peak_rss_mb": "MB"}

_SUBCOMMANDS = (
    "bohr-example", "basis", "equiv", "closure-demo", "value-set", "sigma-star", "zeros", "kronecker",
)
PER_LAYER = {
    "lattice.lll_reduce.calls": "count",
    "lattice.lll_reduce.self_ms": "ms",
    "lattice.size_reduce.ms": "ms",
    "lattice.integer_left_kernel.self_ms": "ms",
    "lattice.solve_integer_rows.ms": "ms",
    "lattice.diagonalize.self_ms": "ms",
    "equivalence.solve_phase_system.self_ms": "ms",
    "equivalence.closure_demo.ms": "ms",
    "basis.compute_basis.ms": "ms",
    "valuesets.sample_strip_direct.ms": "ms",
    "valuesets.sample_strip_via_equivalence.ms": "ms",
    "valuesets.sample_line.ms": "ms",
    "valuesets.hausdorff.ms": "ms",
    "valuesets.kronecker_find_t.ms": "ms",
    "evaluation.evaluate_grid.ms": "ms",
    "evaluation.uniform_distance.ms": "ms",
    "core.SeriesSpec.numeric_exponents.calls": "count",
    "core.SeriesSpec.numeric_exponents.self_ms": "ms",
    "evaluation.evaluate.calls": "count",
    "evaluation.evaluate.self_ms": "ms",
    "zeros.count_zeros.calls": "count",
    "zeros.sigma_star.ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{sub}.ms": "ms" for sub in _SUBCOMMANDS},
    **{f"cli.run_command.{sub}.ms": "ms" for sub in _SUBCOMMANDS},
    "seriesio.parse_series_file.ms": "ms",
    "seriesio.atomic_write_text.ms": "ms",
    "trace.overhead_ms": "ms",
}

_IMPORT_PROBE = "import time; t = time.perf_counter(); import bohreq; print(time.perf_counter() - t)"


def gmean(values: list[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def python_kernel() -> None:
    """Interpreted integer and complex arithmetic with calls, as in the exact
    and contour layers and in interpreter start-up."""
    acc, z = 0, 0j
    for i in range(3000):
        acc = (acc * 1103515245 + 12345) % 2147483648
        z += cmath.exp(complex(-1e-4 * i, 1e-3 * (acc & 1023)))


def array_kernel():
    """A NumPy pass over a 16 MB complex array, as in the float layer."""
    import numpy as np

    data = np.linspace(0.0, 1.0, 1 << 20) * (-1.0 + 3.0j)
    out = np.empty_like(data)

    def kernel() -> None:
        np.exp(data, out=out)
        np.multiply(out, 0.5, out=out)

    return kernel


class Reference:
    """A fixed kernel timed before every operation, as a speedometer of the
    host.  The host switches between a fast and a slow state lasting seconds
    (about 1.7x apart for interpreted code); the kernel's time beside an
    operation says which one it ran in.  The kernel does the same kind of
    work as the workload's operations, since array code and interpreted code
    slow down by different factors."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.times: list[float] = []

    def sample(self) -> int:
        """Time the kernel a few times and keep the fastest, which drops
        interruptions; returns the index of the sample."""
        best = math.inf
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.times.append(best)
        return len(self.times) - 1


def time_setup(workload: str, seed: int) -> float:
    """Process start to inputs ready, in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-1000:]}")
    return float(proc.stdout.split()[-1]) - t0


def import_ms() -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-1000:]}")
    return float(proc.stdout) * 1e3


def environment(np) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def measure(args, ops, tracer) -> dict:
    """Run whole rounds until the time is up; returns the raw samples."""
    from bohreq import cli

    ref = Reference(array_kernel() if args.workload == "values" else python_kernel)
    # kind -> [(seconds per call, reference index, traced)]
    samples: dict[str, list[tuple[float, int, bool]]] = {op.kind: [] for op in ops}
    round_totals: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    child_rss: list[int] = []
    wrong: list[str] = []

    def check(op, out) -> None:
        try:
            op.check(out)
        except Exception as err:  # any failure of a check is a wrong answer
            wrong.append(f"{op.kind}: {type(err).__name__}: {err}")

    # Set-ups are timed between operations, spread over the measured time, so
    # that they sample the host's fast and slow states as the operations do;
    # their own time is left out of the measured time.
    setups: list[float] = []
    setup_total = 0.0

    def measured() -> float:
        return time.perf_counter() - start - setup_total

    def time_setups(until: int) -> None:
        nonlocal setup_total
        while not args.trace and len(setups) < until:
            t0 = time.perf_counter()
            setups.append(time_setup(args.workload, args.seed))
            setup_total += time.perf_counter() - t0

    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or measured() < args.seconds or (args.trace and rounds < 2):
        traced = bool(args.trace) and rounds % 2 == 0
        if traced:
            first = len(tracer.start)
            probe_ms = import_ms()
            tracer.install()
        for op in ops:
            time_setups(min(SETUP_REPEATS, 1 + int(measured() * SETUP_REPEATS / args.seconds)))
            idx = ref.sample()
            outputs, ok = [], True
            span = tracer.begin(f"cli.{op.kind}" if op.argv else f"op.{op.kind}") if traced else None
            t0 = time.perf_counter()
            for _ in range(op.repeat):
                attempted += 1
                try:
                    outputs.append(op.call())
                except Exception as err:  # a failed operation is counted, not fatal
                    failed += 1
                    ok = False
                    problems.append(f"{op.kind}: {type(err).__name__}: {err}")
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.finish(span)
            if ok:
                samples[op.kind].append((elapsed / op.repeat, idx, traced))
            tracer.paused = True
            for out in outputs:
                check(op, out)
                child_rss.append(getattr(out, "rss_kb", 0))
            tracer.paused = False
            if traced and op.argv:
                # the same command in process: its output overwrites the file just checked
                attempted += 1
                code = tracer.span(f"cli.run_command.{op.kind}", cli.run_command, op.argv)
                if code != 0:
                    failed += 1
                    problems.append(f"in-process {op.kind} exited {code}")
                elif outputs:
                    check(op, outputs[-1])
        rounds += 1
        if traced:
            tracer.uninstall()
            totals = tracer.totals(first, len(tracer.start))
            totals["cli.import_ms"] = probe_ms
            round_totals.append(totals)
    ref.sample()
    time_setups(SETUP_REPEATS)
    return {
        "setups": setups,
        "samples": samples,
        "ref": ref.times,
        "round_totals": round_totals,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wrong": wrong,
        "rounds": rounds,
        "child_rss_kb": max(child_rss, default=0),
    }


def kind_figures(raw: dict, traced: bool) -> dict[str, tuple[float, float]]:
    """Per kind: (typical ms per call at full host speed, typical ratio to the
    reference kernel).

    Each sample is divided by the geometric mean of the reference times just
    before and after it.  The ratio's median is the kind's ``op_ref``; times
    the fastest reference time of the run it is a wall time at the host's
    full speed, the kind's contribution to ``op_ms``.
    """
    ref = raw["ref"]
    fastest = min(ref)
    out = {}
    for kind, rows in raw["samples"].items():
        ratios = [t / math.sqrt(ref[i] * ref[i + 1]) for t, i, tr in rows if tr == traced]
        if ratios:
            ratio = statistics.median(ratios)
            out[kind] = (ratio * fastest * 1e3, ratio)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "bohreq" / "__init__.py").is_file():
        print(f"run.py: no bohreq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 64
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, workdir)
            print(repr(time.perf_counter()))
            return 0
        ops = workloads.build(args.workload, args.seed, workdir)
        from tracer import Tracer

        tracer = Tracer()
        raw = measure(args, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = kind_figures(raw, traced=False)
    op_ms = gmean([ms for ms, _ in untraced.values()])
    if args.trace:
        traced = kind_figures(raw, traced=True)
        values = {
            name: statistics.median(t.get(name, 0.0) for t in raw["round_totals"])
            for name in PER_LAYER
            if name != "trace.overhead_ms"
        }
        values["trace.overhead_ms"] = gmean([ms for ms, _ in traced.values()]) - op_ms
        units = PER_LAYER
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        rss_kb = raw["child_rss_kb"] if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(raw["setups"]),
            "op_ref": gmean([r for _, r in untraced.values()]),
            "peak_rss_mb": rss_kb / 1024,
            # kept in the run record only: too unsteady across runs for a bound
            "op_ms": op_ms,
        }
        units = END_TO_END
    for line in raw["problems"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in raw["wrong"]:
        print(f"wrong answer: {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": raw["rounds"],
        "environment": environment(np),
        "setups_s": raw["setups"],
        "kinds": {k: {"ms": ms, "ref": r, "samples": len(raw["samples"][k])} for k, (ms, r) in untraced.items()},
        "metrics": values,
        "raw": {k: raw[k] for k in ("samples", "ref")},
        "problems": raw["problems"][:20],
        "wrong": raw["wrong"][:20],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("rounds", "environment", "kinds")}))
    result = {
        "correct": not raw["wrong"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
