"""Benchmark of groupoidkit's verdict pipelines.

    python3 perfbench/run.py --workload foliation --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run builds its workload's inputs as JSON, measures set-up (imports in
fresh interpreters, plus the one-time cost of the first jobs), then repeats
passes over the workload's fixed job list (in an order drawn from
``--seed``) for about ``--seconds`` seconds, checking every verdict against
``perfbench/expected.json``.  Times are wall times corrected to a nominal
machine speed (see ``speed.py``); the raw wall times are printed beside
them.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced passes
alternate, and the metrics are the per-layer ones plus the tracing
overhead.  Spans are written to ``.perfbench/`` when the run ends.

``--smoke`` keeps only the tiny jobs and makes one pass.  The answers in
expected.json are data: a change that alters an answer on purpose edits
that file by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("foliation", "semigroup", "cubes", "tables")

SETUP_SAMPLES = 8  # per batch; one batch before the passes and one after
MIN_JOB_S = 0.02
MAX_REPEATS = 50
WARM_RUNS = 3
SHORT_JOB_S = 0.03
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import workloads; t = time.perf_counter() - t; "
    "import statistics, speed; r = statistics.median(speed.reference_time() for _ in range(9)); "
    "print(repr(t)); print(repr(t * speed.NOMINAL_S / r)); print(workloads.cli.__file__)"
)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _geomean(values):
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))


def measure_setup(samples):
    """Import times in fresh interpreters: (wall, at nominal speed).

    The import is that of ``workloads``, which pulls in groupoidkit and
    every layer module the jobs call.  Each interpreter times the reference
    loop right after the import to correct for machine speed.  One
    unmeasured import first lets the bytecode cache fill.  The machine's
    speed changes from one second to the next, and the correction does not
    fully undo it, so the run takes its samples in two batches some seconds
    apart.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    wall, scaled = [], []
    for i in range(samples + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split("\n")
        if not os.path.abspath(out[2]).startswith(SRC + os.sep):
            raise RuntimeError(f"groupoidkit imported from {out[2]}, not from {SRC}")
        if i:
            wall.append(float(out[0]))
            scaled.append(float(out[1]))
    return wall, scaled


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def verdict_ok(expected, job_id, verdict) -> bool:
    exp = expected.get(job_id)
    if exp is None or verdict is None:
        return False
    verdict = json.loads(json.dumps(verdict))  # tuples to lists, keys to str
    if "closed" in exp and verdict["closed"] != exp["closed"]:
        return False
    return verdict["recorded"] == exp["recorded"]


def _attempt(job, tracer):
    try:
        if tracer is None:
            return job.run()
        with tracer.job_span(job.id):
            return job.run()
    except Exception:  # a job that raises is a failed verdict, not a crash
        traceback.print_exc(file=sys.stderr)
        return None


def run_pass(jobs, expected, sampler, repeats, tracer=None):
    """One pass over ``jobs``.

    An untraced pass runs a job shorter than `MIN_JOB_S` ``repeats[job]``
    times in a row and takes the mean, so that short jobs are timed as
    precisely as long ones; the first run of a job in the run sets that
    count.  A traced pass runs each job once, so its counts do not depend
    on timing, and samples the speed only around each job, so no sampling
    runs inside a span.  Returns (wall seconds, seconds at nominal speed,
    {job: seconds at nominal speed}, failed job ids); pass times sum job
    times.
    """
    wall, times, failed = 0.0, {}, []
    for job in jobs:
        n = 1 if tracer is not None else repeats.get(job.id)
        verdicts = []
        if n is None:
            verdict, job_wall, times[job.id] = sampler.timed(lambda: _attempt(job, None))
            verdicts.append(verdict)
            n = repeats[job.id] = min(MAX_REPEATS, math.ceil(MIN_JOB_S / times[job.id]))
        if n > 1 or not verdicts:
            out, job_wall, block = sampler.timed(lambda: [_attempt(job, tracer) for _ in range(n)],
                                                 during=tracer is None)
            verdicts += out
            job_wall, times[job.id] = job_wall / n, block / n
        wall += job_wall
        bad = [v for v in verdicts if not verdict_ok(expected, job.id, v)]
        if bad:
            print(f"verdict mismatch: {job.id}: {bad[0]}", file=sys.stderr)
            failed.append(job.id)
    return wall, sum(times.values()), times, failed


def _assert_unwrapped():
    """No traced wrapper may sit under an untraced pass."""
    import spans

    for _, _, targets in spans.TARGETS:
        for target in targets:
            module, attr = spans._resolve(target)
            if getattr(getattr(module, attr, None), "__wrapped_by_perfbench__", False):
                raise RuntimeError(f"wrapper left in place at {target}")


def _stat(name, unit, values, value=None):
    value = statistics.median(values) if value is None else value
    q1, q3 = _quartiles(values)
    return f"{name} {value:.6g} {unit} [q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]"


def run_workload(args) -> dict:
    import spans
    import workloads
    from speed import SpeedSampler

    # relative paths keep the CLI manifests, and so the io counts, the same
    # in every checkout
    workdir = os.path.relpath(os.path.join(OUT, f"inputs-{args.workload}"), ROOT)
    os.makedirs(workdir, exist_ok=True)
    try:
        import_wall, import_s = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        t0 = time.perf_counter()
        jobs = workloads.build_jobs(args.workload, ".", workdir, smoke=args.smoke)
        gen_s = time.perf_counter() - t0
        expected = load_expected()
        # The tiny jobs run before timing: once, then WARM_RUNS more times.
        # What the first run costs beyond the median of the others is
        # one-time work (lazy imports, tables built on first use); it is
        # added to setup_s.  Only jobs shorter than SHORT_JOB_S count: one
        # run of a longer job varies by more than a small one-time cost.  The
        # one tiny job this leaves out, semigroup's pair4-chain (about 50 ms),
        # runs last and calls the same layers as the six before it.
        sampler = SpeedSampler()
        first_call_s, counted = 0.0, 0
        for job in jobs:
            if job.smoke:
                runs = [sampler.timed(lambda: _attempt(job, None))[2] for _ in range(1 + WARM_RUNS)]
                warm = statistics.median(runs[1:])
                if warm < SHORT_JOB_S:
                    first_call_s += runs[0] - warm
                    counted += 1
        rng = random.Random(args.seed)
        repeats: dict = {}
        tracer = spans.Tracer() if args.trace else None
        walls, untraced, traced, per_job, failed, layer_passes, span_log = [], [], [], {}, [], [], []
        attempted = 0
        if tracer is not None:
            # one untimed pass first: otherwise the untraced pass alone pays for
            # warming the allocator and caches, and the overhead reads below 1
            _, _, _, bad = run_pass(jobs, expected, sampler, repeats)
            attempted += len(jobs)
            failed += bad
        started = time.perf_counter()
        while True:
            order = list(jobs)
            rng.shuffle(order)
            gc.collect()
            _assert_unwrapped()
            wall, batch, times, bad = run_pass(order, expected, sampler, repeats)
            walls.append(wall)
            untraced.append(batch)
            attempted += len(order)
            failed += bad
            for job_id, t in times.items():
                per_job.setdefault(job_id, []).append(t)
            if tracer is not None:
                gc.collect()
                tracer.install()
                try:
                    _, batch, _, bad = run_pass(order, expected, sampler, repeats, tracer)
                finally:
                    tracer.remove()
                if tracer.missing:
                    print(f"not traced (attribute missing): {tracer.missing}", file=sys.stderr)
                traced.append(batch)
                attempted += len(order)
                failed += bad
                layer_passes.append(spans.layer_metrics(tracer.spans, tracer.take_counts()))
                span_log.append(tracer.spans)
            elapsed = time.perf_counter() - started
            if args.smoke or elapsed * (1 + 1 / len(walls)) > args.seconds:
                break
        _assert_unwrapped()
        if not args.smoke:
            more_wall, more = measure_setup(SETUP_SAMPLES)
            import_wall += more_wall
            import_s += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = {j: statistics.median(ts) for j, ts in per_job.items()}
    setup = [t + first_call_s for t in import_s]
    pass_geomeans = [
        _geomean([per_job[j][i] * 1000 for j in per_job]) for i in range(len(untraced))
    ]
    end_to_end = {
        "batch_s": (statistics.median(untraced), "s"),
        "job_geomean_ms": (_geomean([m * 1000 for m in medians.values()]), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    print(f"# {args.workload}: seed {args.seed}, {len(jobs)} jobs, {len(untraced)} untraced and "
          f"{len(traced)} traced passes, input generation {gen_s:.3f} s (not in setup_s), "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(f"# times are at nominal machine speed (perfbench/speed.py); measured speed {sampler.speed():.3f}, "
          f"wall batch_s {statistics.median(walls):.6g} s, wall import {statistics.median(import_wall):.6g} s")
    print(f"# setup_s = import {statistics.median(import_s):.6g} s + first-run excess of "
          f"{counted} tiny jobs {first_call_s:.6g} s")
    print("  ".join([
        f"{args.workload:<10}",
        _stat("batch_s", "s", untraced),
        _stat("job_geomean_ms", "ms", pass_geomeans, end_to_end["job_geomean_ms"][0]),
        _stat("setup_s", "s", setup),
        f"peak_rss_mb {rss_mb:.6g} MB [n=1]",
        f"failed_ratio {len(failed) / attempted:.6g} ratio [{len(failed)} of {attempted} jobs]",
    ]))

    if tracer is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    else:
        metrics = {}
        for name, unit, _, kind, _ in spans.METRICS:
            values = [p[name] for p in layer_passes]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            tag = " (computed)" if kind in ("count", "ratio", "calls") else ""
            print(f"  {name:<40} {metrics[name]['value']:.6g} {unit}{tag}")
        u, t = statistics.median(untraced), statistics.median(traced)
        for name, value, unit in (("trace.untraced_batch_s", u, "s"), ("trace.traced_batch_s", t, "s"),
                                  ("trace.overhead_ratio", t / u, "ratio")):
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<40} {value:.6g} {unit}")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "job"], "passes": span_log}, fh)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")

    return {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print("\n".join(lines))
            raise SystemExit(f"workload {w} exited with {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith(w)))
        rows.append(next(line for line in lines if line.startswith(w)))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{w}.{name}"] = m
    print("\n".join(rows))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny jobs only, one pass")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groupoidkit", "__init__.py")):
        print(f"groupoidkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
