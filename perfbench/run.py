"""Run one ulmkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload

A run sets the workload up (untraced: at least 3 times and for at least
``MIN_SETUP_S``, reporting the median; traced: once), then runs whole
rounds of the same ``ulmkit`` commands while one more fits in
``--seconds`` (at least one), then checks every round's output.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced, and it holds the per-layer metrics from the traced rounds and the
set-up, plus the tracing overhead. The lines before it name every figure
with its unit, the run record and any failed check. The run record, and for
traced runs the spans, are also written under ``.perfbench_out/``.

The ulmkit package is imported from ``src/`` next to this directory, with
BLAS pinned to ``BLAS_THREADS`` thread(s) so that runs are comparable. For
workloads that repeat a short command many times in one process
(``Workload.KEEP_FREED_MEMORY``), glibc's allocator also keeps freed memory
for reuse, so that every call touches the same pages rather than a number
of fresh ones that depends on the allocator's history (1,500 to 5,000 page
faults a ``predict``, whose cost on a shared virtual machine changes with
the host's state).
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("lm-pretrain-10k", "degrade-fixture", "infer-10k")
SETUPS = (3, 9)    # set-ups per untraced run: at least 3, then more until
MIN_SETUP_S = 3.0  # this much time is spent, up to 9
BLAS_THREADS = 1
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def keep_freed_memory() -> bool:
    """Serve blocks up to 32 MB from the heap and never give the heap back
    to the system (glibc only). Returns whether the allocator took it."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                    and libc.mallopt(M_TRIM_THRESHOLD, 1 << 30))
    except (OSError, AttributeError, TypeError):
        return False


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _record(args, wl, setups, attempted, failed) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cores": os.cpu_count(), "blas": _blas(),
            "blas_threads": BLAS_THREADS, "keep_freed_memory": wl.kept_freed_memory,
            "numpy": np.__version__,
            "python": platform.python_version(), "setups": setups,
            "rounds": len(wl.rounds), "attempted": attempted, "failed": failed}


def run_workload(args) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.kept_freed_memory = wl.KEEP_FREED_MEMORY and keep_freed_memory()
    tracer = Tracer() if args.trace else None
    TMP_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=TMP_DIR)
    try:
        setup_s = []
        for k in range(1 if tracer else SETUPS[1]):
            if tracer is None and k >= SETUPS[0] and sum(setup_s) >= MIN_SETUP_S:
                break
            shutil.rmtree(os.path.join(work, f"setup{k - 1}"), ignore_errors=True)
            os.makedirs(os.path.join(work, f"setup{k}"))
            if tracer:
                tracer.install()
            start = time.perf_counter()
            wl.setup(os.path.join(work, f"setup{k}"))
            setup_s.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()

        plain, traced = [], []
        captures = wl.captures()
        try:
            start = time.perf_counter()
            while True:
                wl.rounds.append(wl.round())
                plain.append(wl.rounds[-1].seconds)
                if tracer:
                    tracer.install()
                    try:
                        wl.rounds.append(wl.round())
                    finally:
                        tracer.uninstall()
                    traced.append(wl.rounds[-1].seconds)
                # start another round only if one more still fits
                elapsed = time.perf_counter() - start
                if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                    break
        finally:
            for p in reversed(captures):
                p.undo()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        attempted = sum(len(r.commands) for r in wl.rounds)
        failures = wl.failed_commands()
        try:
            check_failures = wl.check()
        except Exception:  # noqa: BLE001 - a check that cannot run is a failed check
            check_failures = [traceback.format_exc()]

        if tracer:
            metrics = layer_metrics(tracer, statistics.median(traced) / statistics.median(plain))
            report = {}
        else:
            metrics = {"setup_s": (statistics.median(setup_s), "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB"), **wl.metrics()}
            report = wl.report()
        record = _record(args, wl, len(setup_s), attempted, len(failures))
        record["setup_s_each"] = setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    dump = {"record": record, "metrics": metrics, "report": report,
            "failures": failures, "check_failures": check_failures}
    if tracer:
        dump["functions"] = tracer.report()
        dump["spans"] = tracer.spans
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dump))

    print(f"record: {json.dumps(record)}")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if tracer:
        print(f"{'function':36} {'calls':>8} {'busy_s':>9} {'median_ms':>10} {'self_s':>9}")
        for name, f in sorted(dump["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:36} {f['calls']:>8} {f['busy_s']:>9.3f} {f['median_ms']:>10.3f} "
                  f"{f['self_s']:>9.3f}")
    for line in failures + check_failures:
        print(f"FAILED: {line}")
    return {"correct": not check_failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        print(f"{name}: attempted={results[name]['attempted']} failed={results[name]['failed']} "
              f"correct={results[name]['correct']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ulmkit benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ulmkit" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no ulmkit source tree (src/ulmkit, fixtures/)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import ulmkit

    if Path(ulmkit.__file__).resolve().parent != src / "ulmkit":
        print(f"error: imported ulmkit from {ulmkit.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
