"""`tools/bench.py` on canned perfbench lines: no benchmark runs here."""

import importlib.util
import json
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

TEMPLATE = json.loads((ROOT / "BENCH_cube_sweep.json").read_text())
END_TO_END = {"batch_s": "s", "job_geomean_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def run_line(batch_s, failed=0, attempted=100):
    """A perfbench summary line whose other metrics follow batch_s."""
    metrics = {name: {"value": batch_s * (i + 1), "unit": unit} for i, (name, unit) in enumerate(END_TO_END.items())}
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_line(layer_ms, failed=0, attempted=100):
    """A perfbench summary line of a traced run: per-layer metrics, no end-to-end ones."""
    metrics = {"presentations.monodromy_ms": {"value": layer_ms, "unit": "ms"},
               "presentations.rules": {"value": 7, "unit": "count"}}
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def stdout_of(result):
    return "# foliation: seed 1, 12 jobs\nfoliation  batch_s 0.7 s\n" + json.dumps(result) + "\n"


def test_seeds_and_order():
    assert bench.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench.parse_seeds("4") == [4]
    assert bench.order(1) == ("parent", "change") and bench.order(2) == ("change", "parent")


def test_last_json_line_is_the_summary():
    assert bench.last_json_line(stdout_of(run_line(0.5))) == run_line(0.5)


def test_document_has_the_bench_schema():
    parent = [0.8, 0.7, 0.9]
    change = [0.6, 0.75, 0.5]
    sections = {"foliation": [(run_line(p), run_line(c)) for p, c in zip(parent, change)]}
    probe_runs = [({"label": "probe", "metrics": {"m": {"value": v, "unit": "ms"}}},
                   {"label": "probe", "metrics": {"m": {"value": v / 3, "unit": "ms"}}}) for v in (30, 36)]
    traced = {"tables": [(traced_line(p), traced_line(c)) for p, c in ((30, 10), (28, 12), (9, 11))]}
    doc = bench.bench_document("kernel", ["abc1234", "def5678-dirty"], 6.0, False, [1, 2, 3], sections,
                               ("tools/continuity_probe.py 32", probe_runs), ([1, 2, 3], traced))
    template_keys = {"label", "change", "parent_commit", "machine", "command", "seconds", "seeds", "order",
                     "source", "workloads"}
    assert template_keys <= set(TEMPLATE) and template_keys <= set(doc)
    assert doc["seeds"] == [1, 2, 3] and doc["parent_commit"] == "abc1234"
    assert doc["command"] == "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 6.0 --trace 0"

    template_workload = TEMPLATE["workloads"]["foliation"]
    section = doc["workloads"]["foliation"]
    assert set(template_workload) <= set(section)
    assert section["pairs"] == 3 and section["correct"] is True
    assert section["failed"] == {"parent": 0, "change": 0}
    assert section["attempted"] == {"parent": 300, "change": 300}
    assert list(section["metrics"]) == list(END_TO_END)
    batch = section["metrics"]["batch_s"]
    assert set(batch) == set(template_workload["metrics"]["batch_s"])
    # every run kept, in seed order, beside the medians
    assert batch["parent_runs"] == parent and batch["change_runs"] == change
    assert (batch["parent_median"], batch["change_median"]) == (0.8, 0.6)
    assert batch["change_vs_parent"] == -0.25
    assert batch["pairs_change_lower"] == 2
    assert batch["unit"] == "s" and section["metrics"]["peak_rss_mb"]["unit"] == "MB"

    # the traced runs: a section of their own, summarised as the untraced ones
    per_layer = doc["per_layer"]
    assert per_layer["command"] == "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 6.0 --trace 1"
    assert per_layer["seeds"] == [1, 2, 3] and set(per_layer["workloads"]) == {"tables"}
    tables = per_layer["workloads"]["tables"]
    assert set(tables) == set(section) and tables["pairs"] == 3
    layer = tables["metrics"]["presentations.monodromy_ms"]
    assert set(layer) == set(batch)
    assert layer["parent_runs"] == [30, 28, 9] and layer["pairs_change_lower"] == 2
    assert (layer["parent_median"], layer["change_median"]) == (28, 11)
    assert tables["metrics"]["presentations.rules"]["change_vs_parent"] == 0
    assert "per_layer" not in bench.bench_document("kernel", [None, None], 6.0, False, [1], sections)

    in_process = doc["in_process"]
    assert in_process["label"] == "probe" and in_process["runs_per_side"] == 2
    assert in_process["metrics"]["m"]["parent_runs"] == [30, 36]
    assert in_process["metrics"]["m"]["pairs_change_lower"] == 2


def test_main_alternates_the_sides(tmp_path, monkeypatch):
    calls, probes, traced = [], [], []
    parent, change = tmp_path / "parent", tmp_path / "change"

    def fake_run(argv, checkout, env=None):
        side = "parent" if checkout == str(parent) else "change"
        if "--seed" not in argv:
            # the same probe script for both sides, each side's src first on the path
            probes.append((argv[1:], side, env["PYTHONPATH"].split(os.pathsep)[0]))
            return {"label": "probe", "metrics": {"m": {"value": 3.0 if side == "parent" else 1.0, "unit": "ms"}}}
        seed, trace = int(argv[argv.index("--seed") + 1]), argv[argv.index("--trace") + 1]
        if trace == "1":
            traced.append((seed, side))
            return bench.last_json_line(stdout_of(traced_line(30.0 if side == "parent" else 10.0)))
        calls.append((seed, side))
        return bench.last_json_line(stdout_of(run_line(1.0 if side == "parent" else 0.5, attempted=seed)))

    monkeypatch.setattr(bench, "_run", fake_run)
    monkeypatch.setattr(bench, "commit", lambda checkout: None)
    out = tmp_path / "BENCH_test.json"
    assert bench.main(["--parent", str(parent), "--change", str(change), "--workload", "tables", "--seeds", "1-3",
                       "--seconds", "2", "--smoke", "--probe", "tools/probe.py 32", "--per-layer", "2,3",
                       "--out", str(out)]) == 0
    assert calls == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    # one traced run per seed of --per-layer and side, alternating the same way
    assert traced == [(2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    script = [os.path.abspath("tools/probe.py"), "32"]
    assert [side for _, side, _ in probes] == [side for _, side in calls]
    assert all(args == script and path == os.path.join(tmp_path, side, "src") for args, side, path in probes)
    doc = json.loads(out.read_text())
    assert doc["label"].endswith("(smoke: tiny jobs, one pass; not a measurement)")
    assert doc["workloads"]["tables"]["attempted"] == {"parent": 6, "change": 6}
    assert doc["workloads"]["tables"]["metrics"]["batch_s"]["pairs_change_lower"] == 3
    layer = doc["per_layer"]["workloads"]["tables"]["metrics"]["presentations.monodromy_ms"]
    assert doc["per_layer"]["seeds"] == [2, 3] and layer["pairs_change_lower"] == 2
    assert doc["per_layer"]["command"].endswith("--trace 1 --smoke")
    assert doc["in_process"]["runs_per_side"] == 3
    assert doc["in_process"]["metrics"]["m"]["pairs_change_lower"] == 3


def test_unknown_workload_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench.main(["--parent", ".", "--change", ".", "--workload", "nope", "--out", str(tmp_path / "x.json")])
