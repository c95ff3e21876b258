"""Write a BENCH_<tag>.json file: perfbench runs of two checkouts, side by side.

    python3 tools/bench.py --parent ../parent --change . \\
        --workload foliation --workload semigroup --seeds 1-10 --seconds 20 \\
        --probe "tools/continuity_probe.py 32" --out BENCH_continuity.json
    python3 tools/bench.py --parent ../parent --change . --workload tables \\
        --seeds 1-10 --per-layer 1-3 --seconds 20 --out BENCH_rewriting.json

For each workload and each seed, ``perfbench/run.py --trace 0`` runs once in
each checkout, each run in its own process: the parent first on odd seeds
and the change first on even seeds, so that an order effect shows as spread
rather than as a difference.  Seeds are given as ``1-10`` or ``1,3,5``.  The last
stdout line of each run (perfbench's JSON summary) is kept, and every run's
metrics are written, beside their medians, quartiles and the number of
pairs in which the change reads lower.

``--probe "SCRIPT ARGS"`` also runs an in-process timing script once per
seed on each side, alternating the same way.  The same script (resolved
from the current directory) runs for both sides, with the side's checkout
as working directory and its ``src`` first on ``PYTHONPATH``.  Its last
stdout line is
``{"label": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}``; the
runs go into a separately labelled ``in_process`` section.

``--per-layer SEEDS`` also runs ``perfbench/run.py --trace 1`` once per seed
of SEEDS and side for every workload, alternating the same way.  A traced
run reports the median of its traced passes for each layer; one such run
does not compare across runs, so the runs of each side go into a separate
``per_layer`` section with the same summary fields as ``workloads``.

``--smoke`` passes ``--smoke`` to perfbench (tiny jobs, one pass): it checks
that the writer still works, and its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys

WORKLOADS = ("foliation", "semigroup", "cubes", "tables")
SIDES = ("parent", "change")
ORDER = "one parent and one change run per seed, the parent first on odd seeds and the change first on even seeds"
TIMEOUT_S = 1800


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,3,5`` (or a mix, ``1-3,7``) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])


def _run(argv, checkout, env=None) -> dict:
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return last_json_line(proc.stdout)


def perfbench_argv(workload, seed, seconds, smoke, checkout, trace=0):
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return argv + ["--smoke"] if smoke else argv


def perfbench_command(seconds, smoke, trace=0) -> str:
    return (f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds} --trace {trace}"
            + (" --smoke" if smoke else ""))


def alternate(label, seeds, run) -> list:
    """(parent result, change result) of `run(seed, side)` for each seed, the parent first on odd seeds."""
    pairs = []
    for seed in seeds:
        result = {}
        for side in order(seed):
            print(f"# {label} {seed} {side}", file=sys.stderr, flush=True)
            result[side] = run(seed, side)
        pairs.append((result["parent"], result["change"]))
    return pairs


def _quartiles(values):
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q = statistics.quantiles(values, n=4)
    return [round(q[0], 4), round(q[2], 4)]


def metric_summary(unit, parent_runs, change_runs) -> dict:
    """Medians, quartiles and the pairs in which the change reads lower, over runs paired by position."""
    p, c = statistics.median(parent_runs), statistics.median(change_runs)
    return {
        "unit": unit,
        "parent_median": round(p, 4),
        "change_median": round(c, 4),
        "change_vs_parent": round(c / p - 1, 4) if p else None,
        "parent_q1_q3": _quartiles(parent_runs),
        "change_q1_q3": _quartiles(change_runs),
        "pairs_change_lower": sum(b < a for a, b in zip(parent_runs, change_runs)),
        "parent_runs": [round(v, 4) for v in parent_runs],
        "change_runs": [round(v, 4) for v in change_runs],
    }


def _metrics(pairs) -> dict:
    """The metric summaries of (parent result, change result) pairs, in the parent's metric order."""
    parents, changes = zip(*pairs)
    return {
        name: metric_summary(
            m["unit"],
            [r["metrics"][name]["value"] for r in parents],
            [r["metrics"][name]["value"] for r in changes],
        )
        for name, m in parents[0]["metrics"].items()
    }


def workload_summary(pairs) -> dict:
    """One workload's section from its (parent result, change result) pair per seed."""
    return {
        "pairs": len(pairs),
        "failed": {side: sum(pair[i]["failed"] for pair in pairs) for i, side in enumerate(SIDES)},
        "attempted": {side: sum(pair[i]["attempted"] for pair in pairs) for i, side in enumerate(SIDES)},
        "correct": all(result["correct"] for pair in pairs for result in pair),
        "metrics": _metrics(pairs),
    }


def probe_summary(command, runs) -> dict:
    """The in-process section from a probe's (parent result, change result) pairs."""
    return {
        "label": runs[0][0]["label"],
        "command": command,
        "runs_per_side": len(runs),
        "order": ORDER,
        "metrics": _metrics(runs),
    }


def per_layer_summary(seconds, smoke, seeds, sections) -> dict:
    """The per-layer section from traced runs: `sections` as in `bench_document`."""
    return {
        "command": perfbench_command(seconds, smoke, trace=1),
        "seeds": list(seeds),
        "order": ORDER,
        "source": "the last JSON line of each traced run: each layer's median over the run's traced passes; "
                  "layer times are wall times, not corrected to the nominal machine speed",
        "workloads": {w: workload_summary(pairs) for w, pairs in sorted(sections.items())},
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "system": platform.system()}


def commit(checkout):
    """The checkout's commit, with ``-dirty`` when its tracked files differ from it."""
    proc = subprocess.run(["git", "-C", checkout, "describe", "--always", "--dirty", "--abbrev=7"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def bench_document(describe, commits, seconds, smoke, seeds, sections, probe=None, per_layer=None) -> dict:
    """The BENCH file: `sections` maps each workload to its (parent result, change result) pair per seed."""
    doc = {
        "label": "written by tools/bench.py" + (" (smoke: tiny jobs, one pass; not a measurement)" if smoke else ""),
        "change": describe,
        "parent_commit": commits[0],
        "change_commit": commits[1],
        "machine": {**machine(), "note": "perfbench's times are wall times corrected to its nominal machine speed"},
        "command": perfbench_command(seconds, smoke),
        "seconds": seconds,
        "seeds": list(seeds),
        "order": ORDER,
        "source": "the last JSON line of each run; every run kept, with medians and quartiles over the seeds",
        "workloads": {w: workload_summary(pairs) for w, pairs in sorted(sections.items())},
    }
    if probe is not None:
        doc["in_process"] = probe_summary(*probe)
    if per_layer is not None:
        doc["per_layer"] = per_layer_summary(seconds, smoke, *per_layer)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[], choices=WORKLOADS, help="repeatable")
    parser.add_argument("--seeds", default="1", help="the seeds of every workload and of the probe")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--smoke", action="store_true", help="perfbench --smoke: tiny jobs, one pass")
    parser.add_argument("--probe", help="in-process timing script and its arguments, run against each checkout's src")
    parser.add_argument("--per-layer", metavar="SEEDS", help="also run perfbench --trace 1 on these seeds")
    parser.add_argument("--describe", default="", help="one line saying what the change is")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    seeds = parse_seeds(args.seeds)

    def runs(seeds, trace):
        return {
            name: alternate(f"{name} trace {trace}", seeds, lambda seed, side, name=name: _run(
                perfbench_argv(name, seed, args.seconds, args.smoke, checkouts[side], trace), checkouts[side]))
            for name in dict.fromkeys(args.workload)
        }

    sections = runs(seeds, 0)
    per_layer = None
    if args.per_layer:
        per_layer_seeds = parse_seeds(args.per_layer)
        per_layer = (per_layer_seeds, runs(per_layer_seeds, 1))
    probe = None
    if args.probe:
        script, *probe_args = shlex.split(args.probe)
        argv = [sys.executable, os.path.abspath(script), *probe_args]

        def env(side):
            paths = [os.path.join(checkouts[side], "src"), os.environ.get("PYTHONPATH")]
            return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

        probe = (args.probe, alternate("probe", seeds, lambda seed, side: _run(argv, checkouts[side], env(side))))

    doc = bench_document(args.describe, [commit(checkouts[s]) for s in SIDES], args.seconds, args.smoke,
                         seeds, sections, probe, per_layer)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
