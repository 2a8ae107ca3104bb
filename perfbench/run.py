"""weylab benchmark: three workloads, checked outputs, steady timings.

    python3 perfbench/run.py --workload sc-weyl --seed 1 --seconds 30 --trace 0

Run it from the root of a weylab checkout; it imports weylab from ``src/``
and exits with code 1, printing no result, where there is none.  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread: the dense solves are small enough that a second thread
# mostly adds run-to-run noise.  Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Fresh processes timed for setup_s; the result is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR",
                   help="internal: set up once in a fresh process and report")
    return p.parse_args(argv)


def find_weylab():
    if not os.path.isfile(os.path.join(SRC, "weylab", "__init__.py")):
        sys.exit(f"error: no weylab sources at {SRC}; run from the root of "
                 f"a weylab checkout")
    sys.path.insert(0, SRC)
    import weylab
    if os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__))) \
            != SRC:
        sys.exit(f"error: imported weylab from {weylab.__file__}, not {SRC}")


# Reference-kernel passes a set-up probe times on each side of the set-up;
# one pass varies by about 10%, so a single pass would add that to setup_s.
PROBE_KERNELS = 3


def setup_probe(args) -> int:
    """Child side of one setup_s sample: import, build, say 'ready', then
    report the reference-kernel times so the parent can rescale."""
    import speed
    before = [speed.kernel() for _ in range(PROBE_KERNELS + 1)]
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, args.setup_probe).setup()
    print("ready", flush=True)
    after = [speed.kernel() for _ in range(PROBE_KERNELS)]
    print(json.dumps({"kernel_s": sum(before),
                      "kernels": before[1:] + after}), flush=True)
    return 0


def time_setup(args, workdir, nominal_s) -> float:
    """setup_s: the median wall time from spawning a fresh interpreter until
    it has imported weylab and built the workload, minus the kernel passes
    it runs on the way, rescaled to nominal speed by the median of every
    kernel pass around the set-ups (the first pass of each process, which
    warms LAPACK up, is left out).  One process's few passes vary too much
    to rescale its own set-up."""
    samples = []
    kernels = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe", workdir]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            first = proc.stdout.readline()
            t_ready = time.perf_counter()
            facts = json.loads(proc.stdout.readline())
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except (ValueError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
            raise RuntimeError("set-up probe failed")
        finally:
            proc.stdout.close()
        if first.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        samples.append(t_ready - t0 - facts["kernel_s"])
        kernels += facts["kernels"]
    return statistics.median(samples) * nominal_s / statistics.median(kernels)


def machine_facts(clock) -> dict:
    """nproc, the BLAS libraries loaded (numpy and scipy each bring their
    own OpenBLAS) with their configuration and thread counts, versions, and
    the reference kernel's measured speed."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads and config:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    blas[os.path.basename(path)] = {
                        "config": config().decode(), "threads": threads()}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads_requested": BLAS_THREADS, "blas": blas,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "reference_kernel": clock.facts()}


def run_rounds(args, wl, clock, workdir, tracer=None):
    """Whole rounds until --seconds of wall time have gone: another round
    starts only if the last one would still end inside the run (there is
    always at least one).  In a traced run rounds alternate traced and
    untraced, and there are at least two.

    Returns (round records, attempted, failed, problems, correct)."""
    records = []
    attempted = failed = 0
    problems = []
    correct = True
    first_fingerprint = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 0
        out_dir = os.path.join(workdir, f"round{len(records)}")
        if traced:
            tracer.totals = {}
            tracer.install()
        t_raw = time.perf_counter()
        t0 = clock.now()
        try:
            wl.run(out_dir)
            error = None
        except Exception:           # every operation of the round failed
            error = traceback.format_exc()
        t1 = clock.now()
        last = time.perf_counter() - t_raw
        if traced:
            tracer.uninstall()
        record = {"wall": t1 - t0, "raw": last, "traced": traced,
                  "totals": tracer.snapshot() if traced else None}
        records.append(record)
        if error is None:
            try:
                verdict = wl.check(out_dir, first=first_fingerprint is None)
            except Exception:       # missing or unreadable outputs
                error = traceback.format_exc()
        if error is not None:
            problems.append(error)
            attempted += wl.operations
            failed += wl.operations
            correct = False
            break
        if verdict.attempted != wl.operations:
            correct = False
            problems.append(f"checked {verdict.attempted} operations, "
                            f"expected {wl.operations}")
        attempted += verdict.attempted
        failed += verdict.failed
        correct &= verdict.ok
        problems += verdict.problems
        if first_fingerprint is None:
            first_fingerprint = verdict.fingerprint
        elif verdict.fingerprint != first_fingerprint:
            correct = False
            problems.append(f"round {len(records) - 1} output differs from "
                            f"round 0")
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        need_more = tracer is not None and len(records) < 2
        if not need_more and elapsed + last > args.seconds:
            break
    return records, attempted, failed, problems, correct


def mean_wall(records):
    """Nominal-speed seconds per round over all the rounds given: the run's
    whole measured time counts, so the noise of the speed probes averages
    out over it (a median of a few short rounds keeps more of it)."""
    return sum(r["wall"] for r in records) / len(records)


def main(argv=None) -> int:
    args = parse_args(argv)
    find_weylab()
    if args.setup_probe:
        return setup_probe(args)

    import resource

    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics = {}
        clock = speed.SpeedClock()
        if args.trace:
            import spans
            tracer = spans.Tracer(clock)
            clock.start()
            tracer.install()
            wl.setup()
            tracer.uninstall()
            setup_totals = tracer.snapshot()
            records, attempted, failed, problems, correct = run_rounds(
                args, wl, clock, workdir, tracer)
            clock.stop()
            traced = [r for r in records if r["traced"]]
            plain = [r for r in records if not r["traced"]] or traced
            metrics = spans.Tracer.layer_metrics(
                setup_totals, [r["totals"] for r in traced])
            metrics["trace.wall_s"] = mean_wall(traced)
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - mean_wall(plain))
            units = dict(spans.METRICS)
            with open(os.path.join(OUT, f"spans-{args.workload}-"
                                        f"{args.seed}.json"), "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
        else:
            setup_s = time_setup(args, workdir, speed.NOMINAL_S)
            wl.setup()
            clock.start()
            records, attempted, failed, problems, correct = run_rounds(
                args, wl, clock, workdir)
            clock.stop()
            metrics["setup_s"] = setup_s
            metrics["wall_s"] = mean_wall(records)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        for line in problems:
            print(line, file=sys.stderr)
        facts = machine_facts(clock)
        facts["rounds"] = [{k: r[k] for k in ("wall", "raw", "traced")}
                           for r in records]
        print(json.dumps({"machine": facts}))
        print(json.dumps({
            "correct": bool(correct), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
