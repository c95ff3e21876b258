"""Self-check of the benchmark harness, in smoke mode at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)
with open(os.path.join(BENCH, "manifest.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


def smoke(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    text, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    row = next(line for line in text if line.startswith(workload))
    for name, unit in list(declared.items()) + [("failed_ratio", "ratio")]:
        assert re.search(rf"\b{name} [-+.e0-9]+ {unit} \[", row), name
    for name in ("batch_s", "job_geomean_ms", "setup_s"):
        assert re.search(rf"\b{name} [^[]*\[q1 [^,]+, q3 [^,]+, n=\d+\]", row), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_spans_nest_and_counts_repeat(workload):
    text, first = smoke(workload, 1)
    assert first["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == declared
    with open(os.path.join(ROOT, ".perfbench", f"spans-{workload}-seed3.json"), encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    assert passes and all(passes)
    for recorded in passes:
        for name, start, end, parent, job in recorded:
            assert start <= end
            if parent is None:
                assert name == "job"
            else:
                _, p_start, p_end, _, p_job = recorded[parent]
                assert p_start <= start and end <= p_end and p_job == job
        assert min(spans.self_times(recorded)) >= 0

    _, second = smoke(workload, 1, seed=4)
    counts = [m[0] for m in spans.METRICS if m[3] in ("count", "ratio", "calls")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def _targets():
    for _, _, targets in spans.TARGETS:
        for target in targets:
            module, attr = spans._resolve(target)
            yield target, module, attr


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    originals = {target: getattr(module, attr) for target, module, attr in _targets()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for target, module, attr in _targets():
            assert getattr(module, attr) is not originals[target], target
        job = next(j for j in workloads.build_jobs("foliation", ROOT, str(tmp_path), smoke=True) if j.id == "mobius3")
        with tracer.job_span(job.id):
            job.run()
    finally:
        tracer.remove()
    assert not tracer.installed
    for target, module, attr in _targets():
        assert getattr(module, attr) is originals[target], target
    names = {s[0] for s in tracer.spans}
    assert {"job", "holonomy.germ_groupoid", "germs.germ_closure", "holonomy.chart"} <= names


def test_every_job_has_an_expected_answer_and_is_listed(tmp_path):
    listed = {w["name"]: w["jobs"] for w in MANIFEST["workloads"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    seen = set()
    for w in workloads.WORKLOADS:
        ids = [j.id for j in workloads.build_jobs(w, ROOT, str(tmp_path))]
        assert ids == listed[w]
        seen.update(ids)
        assert all("recorded" in EXPECTED[i] for i in ids)
    assert seen == set(EXPECTED)


def test_layer_table_names_only_reported_metrics():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {m[0] for m in spans.METRICS} | {m[0] for m in spans.OVERHEAD_METRICS}
    for row in MANIFEST["layer_map"]:
        assert set(row["metrics"]) <= per_layer
        assert row["workload"] in workloads.WORKLOADS


def test_speed_sampler_restores_the_alarm_and_subtracts_its_own_time():
    import signal

    import speed

    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    result, wall, scaled = sampler.timed(lambda: [speed.reference_loop() for _ in range(200)])
    assert len(result) == 200
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # at least two samples around the call, more while it ran
    assert len(sampler.samples) >= 2 and wall > 0 and scaled > 0
    assert 0 < sampler.speed() < 10

    # without sampling during the call, no handler runs inside it
    seen = []
    sampler = speed.SpeedSampler()
    sampler.timed(lambda: seen.append(signal.getsignal(signal.SIGALRM)), during=False)
    assert seen == [previous] and len(sampler.samples) == 2
