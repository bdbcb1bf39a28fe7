#!/usr/bin/env python3
"""Benchmark runner for the tropsched CLI.

    python3 bench/run.py --workload square_deep --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with one client: each request is an
in-process ``tropsched.io_cli.run_cli([...])`` call on a generated instance
file, and the next request starts when the previous one returns.  Reports
are checked after the timed region.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` every other period of the request
stream runs with the span wrappers installed, and the run reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, input digests, tail percentile) goes to ``bench/results/``.
The package is imported from ``src/`` next to this directory, never from
an installed copy.
"""

import argparse
import contextlib
import gc
import hashlib
import io
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
import traceback
from pathlib import Path

# Pin native thread pools before numpy is imported, here and in the
# set-up subprocesses that inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# A fresh interpreter: import the package, run one request, exit.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from tropsched.io_cli import run_cli; "
    "sys.exit(run_cli([sys.argv[2], sys.argv[3], '--output', sys.argv[4]]))"
)


def _import_package():
    if not (SRC / "tropsched" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'tropsched'}")
    sys.path.insert(0, str(SRC))
    import tropsched

    if Path(tropsched.__file__).resolve().parent != SRC / "tropsched":
        sys.exit(f"error: imported tropsched from {tropsched.__file__}, not {SRC}")


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_THREADS")},
    }


def _percentile(values, p):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _measure_setup(workload, seed, workdir, write_instance):
    path = workdir / "setup_in.json"
    out = workdir / "setup_out.json"
    write_instance(workload.warmup_instance(seed), str(path))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), workload.command, str(path), str(out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode not in workload.ok_codes:
            sys.exit(f"error: set-up request exited with code {proc.returncode}")
    return statistics.median(times), times


def _run_requests(wl, seed, seconds, workdir, request, check_report, write_instance, tracer):
    """The closed loop: untimed batches of inputs, timed requests, then checks."""
    latencies = {False: [], True: []}
    out = {"latencies": latencies, "traced_ids": [], "failures": [], "attempted": 0, "timed": 0.0}
    first_batch, run_digest = hashlib.sha256(), hashlib.sha256()

    def more(elapsed):
        # A traced run needs at least one request on each side.
        return elapsed < seconds or not latencies[False] or (tracer is not None and not latencies[True])

    index = 0
    while more(out["timed"]):
        batch = []
        for k in range(index, index + wl.batch):
            path = workdir / f"in_{k}.json"
            inst = wl.instance(seed, k)
            write_instance(inst, str(path))
            batch.append((k, inst, path, workdir / f"out_{k}.json"))
            if index == 0:
                first_batch.update(path.read_bytes())
        index += wl.batch
        done = []
        gc.collect()
        batch_start = time.perf_counter()
        for k, inst, path, report in batch:
            if not more(out["timed"] + time.perf_counter() - batch_start):
                break
            # Whole periods alternate, so both sides see the same shapes.
            traced = tracer is not None and (k // wl.period) % 2 == 1
            if traced:
                out["traced_ids"].append(k)
                tracer.request = k
                tracer.install()
            t0 = time.perf_counter()
            try:
                code = request(path, report)
            except Exception:
                code = traceback.format_exc(limit=3)
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.remove()
            latencies[traced].append(t1 - t0)
            done.append((k, inst, path, report, code))
        out["timed"] += time.perf_counter() - batch_start

        for k, inst, path, report, code in done:
            out["attempted"] += 1
            run_digest.update(path.read_bytes())
            if isinstance(code, str):
                errors = [f"exception: {code}"]
            else:
                try:
                    errors = check_report(inst, code, str(report), wl.ok_codes, wl.command == "verify")
                except Exception:
                    # A missing, unreadable or malformed report.
                    errors = [f"check raised: {traceback.format_exc(limit=3)}"]
            if errors:
                out["failures"].append({"request": k, "errors": errors})
        for _, _, path, report in batch:
            path.unlink()
            report.unlink(missing_ok=True)
    out["inputs"] = {
        "first_batch_sha256": first_batch.hexdigest(),
        "first_batch_count": wl.batch,
        "run_sha256": run_digest.hexdigest(),
        "run_count": out["attempted"],
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from tropsched import io_cli
    from checks import check_report
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = _environment(args.seed)
        setup = None if args.trace else _measure_setup(wl, args.seed, workdir, io_cli.write_instance)
        tracer = Tracer() if args.trace else None

        def request(path, report):
            with contextlib.redirect_stderr(io.StringIO()):
                return io_cli.run_cli([wl.command, str(path), "--output", str(report)])

        # Untimed warm-up in this process, so lazy imports and caches are filled.
        warm = workdir / "warmup.json"
        io_cli.write_instance(wl.warmup_instance(args.seed), str(warm))
        request(warm, workdir / "warmup_out.json")

        run = _run_requests(wl, args.seed, args.seconds, workdir, request, check_report,
                            io_cli.write_instance, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = run["attempted"], run["failures"]
    plain = run["latencies"][False]
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "timed_s": run["timed"],
        "environment": env,
        "inputs": run["inputs"],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    if tracer is not None:
        values = tracer.metrics(run["traced_ids"])
        values["trace.overhead_frac"] = (
            statistics.median(run["latencies"][True]) / statistics.median(plain) - 1.0
        )
        units = dict(PER_LAYER)
        spans_path = RESULTS / f"{tag}-spans.tsv.gz"
        tracer.write(spans_path)
        record.update(traced_requests=len(run["traced_ids"]), spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)))
    else:
        tail, beyond = _percentile(plain, wl.tail_percentile)
        values = {
            "latency_p50_ms": statistics.median(plain) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "instances_per_s": (attempted - len(failures)) / run["timed"],
            "setup_s": setup[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record.update(tail_percentile=wl.tail_percentile, tail_samples_beyond=beyond,
                      samples=len(plain), setup_runs_s=setup[1])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"requests {attempted} in {run['timed']:.2f} s")
    print(f"inputs: first {wl.batch} sha256 {run['inputs']['first_batch_sha256']}; "
          f"all {attempted} sha256 {run['inputs']['run_sha256']}")
    if tracer is None:
        print(f"latency_tail_ms is p{wl.tail_percentile:g}: {beyond} of {len(plain)} samples beyond it")
    print(f"failed_frac = {record['failed_frac']:.6g} ({len(failures)} of {attempted})")
    for f in failures[:5]:
        print(f"  request {f['request']}: {'; '.join(f['errors'])[:300]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
