"""critjac benchmark: one workload in this process, oracle-checked.

Run from the repository root:

    python3 bench/run.py --workload laguerre_density --seed 0 --seconds 10 --trace 0

The workload is repeated until its timed sections add up to --seconds
(at least once).  Each repetition's result is checked against the
workload's oracle outside the timed section.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the run's provenance.  A traced run repeats
the untraced loop first, then one traced repetition, so tracing
overhead and the traced-equals-untraced check come from one process.
Details, spans included, go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so
# the only extra threads are the ones the workload itself asks for.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _key in THREAD_ENV:
    os.environ[_key] = "1"

import argparse
import json
import platform
import resource
import select
import statistics
import subprocess
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "accuracy_digits": "digits", "pass_frac": "ratio"}


def _use_checkout_source() -> None:
    """Import critjac from this checkout's src/, never from elsewhere."""
    if not (SRC / "critjac" / "__init__.py").is_file():
        raise SystemExit(f"no critjac sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _probe(spec: str) -> None:
    """Child side of a set-up probe: import, build the model, classify."""
    _use_checkout_source()
    import critjac
    model = critjac.model_from_dict(json.loads(spec))
    critjac.classify(model)
    print("ready", flush=True)


def setup_time(spec: dict) -> float:
    """Seconds from starting a fresh interpreter to a classified model."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", json.dumps(spec)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(cmd, PROBE_TIMEOUT_S)
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"set-up probe did not finish within {PROBE_TIMEOUT_S} s")
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def run_once(wl, checks):
    """One timed repetition, then its oracle check (untimed).

    Returns wall and CPU seconds and the eigenvalue count; the result is
    dropped here so that it cannot inflate the next repetition's memory.
    """
    from oracles import Check
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run()
    except Exception:                      # a raising workload is a failed run
        out = None
        err = traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    if out is not None:
        try:
            chk, eigenvalues = wl.check(out), wl.eigenvalues(out)
        except Exception:                  # a result the oracle cannot read fails too
            out = None
            err = traceback.format_exc()
    if out is None:
        sys.stderr.write(err)
        chk, eigenvalues = Check(), 0
        chk.fail_all(wl.expected_ops(), err.strip().splitlines()[-1])
    checks.append(chk)
    return t1 - t0, c1 - c0, eigenvalues


def provenance(args, inputs, setup_samples) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "setup_samples_s": setup_samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _probe(args.setup_probe)
        return 0
    if args.seconds is None:
        ap.error("--seconds is required (BENCHMARK.json's run_seconds)")
    _use_checkout_source()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    # set-up probes are spread over the run (one before, then one after each
    # repetition) so that their median does not hinge on a few seconds
    setup_samples = [setup_time(inputs["model"])]

    import critjac
    if not Path(critjac.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"critjac imported from {critjac.__file__}, not {SRC}")
    import oracles
    import tracer as tr
    wl = workloads.WORKLOADS[args.workload](critjac, inputs)
    wl.reference()

    checks, walls, cpus = [], [], []
    while not walls or sum(walls) < args.seconds:
        wall, cpu, _ = run_once(wl, checks)
        walls.append(wall)
        cpus.append(cpu)
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_time(inputs["model"]))
    peak_rss = _peak_rss_mb()
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_time(inputs["model"]))
    info = provenance(args, inputs, setup_samples)
    info.update(walls_s=walls, cpus_s=cpus)

    untraced = checks[0].key()
    consistent = all(c.key() == untraced for c in checks)
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced_wall, _, eigenvalues = run_once(wl, checks)
        finally:
            tracer.uninstall()
        if checks[-1].key() != untraced:
            consistent = False
            sys.stderr.write(f"traced run differs from untraced: "
                             f"{checks[-1].key()} != {untraced}\n")
        metrics, absent = tr.layer_metrics(
            tracer.spans, traced_wall, statistics.median(walls),
            threading.get_ident(),
            eigenvalues=eigenvalues, threads=wl.threads)
        units = tr.metric_units()
        info.update(absent=absent, missing_targets=tracer.absent,
                    traced_wall_s=traced_wall)
    else:
        worst = max(c.worst for c in checks)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss,
            "accuracy_digits": oracles.accuracy_digits(max(worst, wl.resolution)),
        }
        units = END_TO_END_UNITS

    attempted = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    metrics["pass_frac"] = 1.0 - failed / attempted
    result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    info.update(ops_per_rep=checks[0].ops, fail_frac=failed / attempted,
                worst_error=max(c.worst for c in checks),
                notes=[n for c in checks for n in c.notes][:16])
    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(info, result=result)
    if args.trace:
        record["spans"] = _span_records(tracer.spans)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


def _span_records(spans) -> list[dict]:
    """Spans with times relative to the first one and small thread numbers."""
    if not spans:
        return []
    t0 = min(s.start for s in spans)
    threads: dict[int, int] = {}
    return [{"id": s.sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "thread": threads.setdefault(s.thread, len(threads)),
             "size": s.size}
            for s in sorted(spans, key=lambda s: s.start)]


if __name__ == "__main__":
    sys.exit(main())
