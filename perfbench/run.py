"""Benchmark of the ulsam package: one workload per run, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mv1-ulsam-infer --seed 1 --seconds 25 --trace 0

The run computes float64 references in a child process, sets the workload up
several times (reporting the median set-up time), then runs operations back
to back for ``--seconds`` seconds, checking every result. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half under :mod:`tracing`, and reports the
per-layer metrics listed in ``metrics.json``. Full results, the environment
stamp and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before NumPy loads; one thread keeps run-to-run spread
# low on a shared machine and never exceeds the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3


def load_spec() -> dict:
    return json.loads((HERE / "metrics.json").read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile).

    That is the eleventh-largest sample; with linear interpolation it sits at
    percentile 100 * (n - 11) / (n - 1). Fewer than 11 samples give the maximum.
    """
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 11) / (n - 1)


def blas_threads_in_use() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs + [None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def env_stamp(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads_in_use(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def reference_in_child(workload: str, seed: int):
    """``workloads.reference`` run in a child process, which has ended when this returns."""
    code = "import pickle, sys, workloads; pickle.dump(workloads.reference(sys.argv[1], int(sys.argv[2])), sys.stdout.buffer)"
    path = os.pathsep.join([str(HERE), str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []))
    proc = subprocess.run([sys.executable, "-c", code, workload, str(seed)], env=dict(os.environ, PYTHONPATH=path),
                          stdout=subprocess.PIPE, check=True, timeout=150)
    return pickle.loads(proc.stdout)


def timed_loop(wl, ref, seconds: float) -> tuple[list[float], list[tuple[float, float]], int, int]:
    """Run operations until ``seconds`` pass and a cycle is whole; (durations, intervals, attempted, failed)."""
    durations: list[float] = []
    intervals: list[tuple[float, float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and i % wl.cycle == 0:
            break
        try:
            done = wl.step(i, deadline - now)
        except Exception:  # a failing operation is counted, and the run goes on
            print(f"operation {i} failed:", file=sys.stderr)
            traceback.print_exc()
            attempted += 1
            failed += 1
            i += 1
            continue
        for t0, t1, result in done:
            attempted += 1
            durations.append(t1 - t0)
            intervals.append((t0, t1))
            if not wl.check(result, ref):
                failed += 1
        i += 1
    return durations, intervals, attempted, failed


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ulsam" / "__init__.py").is_file():
        print(f"error: no ulsam sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ulsam
    import_s = time.perf_counter() - t0
    if Path(ulsam.__file__).resolve().parent != ROOT / "src" / "ulsam":
        print(f"error: imported ulsam from {ulsam.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from ulsam import instrument

    # float64 references in a child, so that neither set-up time nor peak RSS includes them
    ref = reference_in_child(args.workload, args.seed)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups: list[dict] = []
    for rep in range(SETUP_REPEATS):
        if rep:
            wl.teardown()
            gc.collect()
        timings = {"training.dataset_ms": 0.0}
        t0 = time.perf_counter()
        wl.setup(timings)
        timings["setup_s"] = import_s + time.perf_counter() - t0
        setups.append(timings)
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}

    tracer = None
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        durations, _, attempted, failed = timed_loop(wl, ref, untraced_s)
        after = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mb = after.ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            top = instrument.MacCounter()
            tracer.counters.append(top)
            tracer.install()
            try:
                with instrument.count_macs(top):
                    traced, intervals, t_att, t_fail = timed_loop(wl, ref, args.seconds - untraced_s)
            finally:
                tracer.remove()
            attempted += t_att
            failed += t_fail
    finally:
        wl.teardown()
    if not durations or (tracer is not None and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1

    stamp = env_stamp(args.seed)
    n = len(durations)
    step_ms = [1e3 * d for d in durations]
    tail_ms, tail_p = tail(step_ms)
    result: dict = {"workload": args.workload, "trace": args.trace, "env": stamp, "ops": n,
                    "step_ms_tail_percentile": tail_p, "setup": setup}
    process = {  # untraced loop, checks included
        "process.page_faults_per_op": (after.ru_minflt + after.ru_majflt - before.ru_minflt - before.ru_majflt) / n,
        "process.sys_ms_per_op": 1e3 * (after.ru_stime - before.ru_stime) / n,
    }
    if not args.trace:
        values = {
            "img_s": wl.images_per_op * n / sum(durations),
            "step_ms_p50": statistics.median(step_ms),
            "step_ms_tail": tail_ms,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        metric_spec = spec["end_to_end"]
        result.update(step_ms=step_ms, process=process)
    else:
        values, table, traced_ops = tracing.aggregate(tracer.spans, intervals)
        mismatches = len(tracer.mismatched_layers)
        if mismatches:
            failed += 1
        values.update(process)
        values.update({
            "models.build_ms": setup["models.build_ms"],
            "models.apply_ulsam_ms": setup["models.apply_ulsam_ms"],
            "training.dataset_ms": setup["training.dataset_ms"],
            "costs.mac_mismatch_layers": mismatches,
            "trace.overhead_ms": statistics.median(1e3 * d for d in traced) - statistics.median(step_ms),
        })
        metric_spec = spec["per_layer"]
        result.update(layer_table=table, traced_ops=traced_ops,
                      mismatched_layers=sorted(map(list, tracer.mismatched_layers)))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": m["unit"]} for name, m in metric_spec.items()}
    result.update(attempted=attempted, failed=failed, metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{tag}.json", {"workload": args.workload, "env": stamp})
        print(tracing.format_table(result["layer_table"]))
    print("env " + json.dumps(stamp))
    print(f"summary workload={args.workload} ops={n} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f} step_ms_tail=p{tail_p:.1f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
