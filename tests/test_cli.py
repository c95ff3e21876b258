"""Command line surface: manifests, exit codes, byte stability."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import groupoidkit
from groupoidkit.cli import main
from groupoidkit.core import cyclic_group, discrete_topology, one_object_groupoid
from groupoidkit.io import canonical_dumps, local_data_to_dict
from groupoidkit.presentations import local_data

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def results_of(stdout: str) -> dict:
    return json.loads(stdout)["results"]


class TestValidate:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "validate", fx("interval.json"))
        assert code == 0
        assert results_of(out)["valid"] is True

    def test_broken_inverse(self, capsys):
        code, out, _ = run(capsys, "validate", fx("broken-inverse.json"))
        assert code == 1
        res = results_of(out)
        assert res["valid"] is False and res["violations"]

    def test_truncated_file(self, capsys):
        code, _, err = run(capsys, "validate", fx("truncated.json"))
        assert code == 2
        assert "parse error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", fx("no-such-file.json"))
        assert code == 2
        assert "parse error" in err

    def test_broken_comp_independent_of_hash_seed(self):
        # broken-comp.json is mobius3.json with three comp rows dropped and
        # one composite renamed: both composition rules fire many times
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        results, errors = set(), set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "groupoidkit.cli", "validate", fx("broken-comp.json")],
                capture_output=True, text=True, env=env, check=False, timeout=120,
            )
            assert proc.returncode == 1
            results.add(json.dumps(results_of(proc.stdout)))
            proc = subprocess.run(
                [sys.executable, "-m", "groupoidkit.cli", "double", fx("broken-comp.json")],
                capture_output=True, text=True, env=env, check=False, timeout=120,
            )
            assert proc.returncode == 1 and proc.stdout == ""
            errors.add(proc.stderr)
        assert len(results) == 1
        assert errors == {
            "error: not a groupoid: composition-total('0+>0-', '0->0+'): composable pair missing from comp\n"
        }


class TestPushout:
    def test_circle_vertex_group(self, capsys):
        code, out, _ = run(
            capsys,
            "pushout",
            fx("circle-w.json"),
            fx("circle-u.json"),
            fx("circle-v.json"),
            fx("circle-i.json"),
            fx("circle-j.json"),
            "--vertex-group",
            "{B.m,C.m}",
        )
        assert code == 0
        res = results_of(out)
        assert res["square_commutes_on_generators"] is True
        assert len(res["apex"]["generators"]) == 2
        assert len(res["vertex_group"]["generators"]) == 1
        assert res["vertex_group"]["relators"] == []

    def test_byte_stable_results(self, capsys):
        argv = [
            "pushout",
            fx("circle-w.json"),
            fx("circle-u.json"),
            fx("circle-v.json"),
            fx("circle-i.json"),
            fx("circle-j.json"),
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert results_of(out1) == results_of(out2)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timing_ms"), doc2.pop("timing_ms")
        assert doc1 == doc2


class TestMonodromy:
    def test_c4_window_flags_infinite(self, capsys):
        code, out, _ = run(capsys, "monodromy", fx("c4-window.json"))
        assert code == 0
        res = results_of(out)
        assert res["finite"] is False
        assert res["rewriting_confluent"] is True
        assert res["iprime_injective"] is True
        assert len(res["presentation"]["generators"]) == 2
        assert len(res["presentation"]["relations"]) == 2

    def test_full_window_reproduces_g(self, capsys):
        code, out, _ = run(capsys, "monodromy", fx("full-window.json"))
        assert code == 0
        res = results_of(out)
        assert res["finite"] is True

    def test_extension_into_c8(self, capsys):
        code, out, _ = run(capsys, "monodromy", fx("c4-window.json"), "--extend", fx("extend-c8.json"))
        assert code == 0
        res = results_of(out)
        assert res["extension"]["local"] is True
        assert ["g:1", "g:1"] in res["extension"]["generators"]

    def test_non_local_extension_reports_the_first_broken_product(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "extend-c8.json").read_text())
        doc["arrows"] = [[a, "g:2" if a == "g:1" else b] for a, b in doc["arrows"]]
        path = tmp_path / "extend-c8-non-local.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "monodromy", fx("c4-window.json"), "--extend", str(path))
        assert code == 1
        assert results_of(out)["extension"] == {"local": False, "violating_pair": ["g:1", "g:3"]}


class TestHolonomy:
    def test_mobius_summary(self, capsys):
        code, out, _ = run(capsys, "holonomy", fx("mobius3.json"))
        assert code == 0
        res = results_of(out)
        assert res["vertex_groups"] == {
            "0+": 1, "0-": 1, "1+": 1, "1-": 1, "2+": 1, "2-": 1,
            "c0": 2, "c1": 2, "c2": 2,
        }
        assert res["embedding_injective"] is True

    def test_annulus_summary(self, capsys):
        code, out, _ = run(capsys, "holonomy", fx("annulus3.json"))
        assert code == 0
        res = results_of(out)
        assert all(v == 1 for v in res["vertex_groups"].values())

    def test_full_window_hol_is_g(self, capsys):
        code, out, _ = run(capsys, "holonomy", fx("full-window.json"))
        assert code == 0
        res = results_of(out)
        assert res["hol_arrows"] == 6

    def test_paper_literal_mode_is_a_finding(self, capsys):
        code, out, _ = run(capsys, "holonomy", fx("full-window.json"), "--paper-literal-j0")
        assert code == 3
        res = results_of(out)
        assert res["projection_constant"] is False
        assert res["well_definedness_witness"] is not None

    def test_emit_dot(self, capsys, tmp_path):
        target = tmp_path / "hol.dot"
        code, _, _ = run(capsys, "holonomy", fx("annulus3.json"), "--emit-dot", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph")


class TestExtendible:
    def test_mobius_fails(self, capsys):
        code, out, _ = run(capsys, "extendible", fx("mobius3.json"))
        assert code == 3
        res = results_of(out)
        assert res["extendible"] is False
        assert any(kind == "window-subspace" for kind, _ in res["failures"])

    def test_annulus_succeeds(self, capsys):
        code, out, _ = run(capsys, "extendible", fx("annulus3.json"))
        assert code == 0
        assert results_of(out)["extendible"] is True

    def test_c4_window_succeeds(self, capsys):
        code, out, _ = run(capsys, "extendible", fx("c4-window.json"))
        assert code == 0

    def test_witness_independent_of_hash_seed(self, tmp_path):
        # C3 with window {id:o}: composition fails near (g:2, g:1), and many
        # nearby pairs witness it; the smallest must be reported every time
        D = local_data(one_object_groupoid(cyclic_group(3)), ["id:o"], discrete_topology(["id:o"]))
        path = tmp_path / "c3-identity.json"
        path.write_text(canonical_dumps(local_data_to_dict(D)))
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        failures = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "groupoidkit.cli", "extendible", str(path)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 3
            failures.add(json.dumps(results_of(proc.stdout)["failures"]))
        assert failures == {json.dumps([["composition-discontinuous", "('g:2', 'g:1', 'g:1', 'g:1')"]])}


class TestDouble:
    def test_box_c2_interchange(self, capsys):
        code, out, _ = run(capsys, "double", fx("box-c2.json"), "--check", "transport,interchange")
        assert code == 0
        res = results_of(out)
        assert res["checks"]["transport"]["ok"] is True
        assert res["checks"]["interchange"]["ok"] is True

    def test_inner_s3_roundtrip(self, capsys):
        code, out, _ = run(capsys, "double", fx("xmod-inner-s3.json"), "--check", "roundtrip")
        assert code == 0
        assert results_of(out)["checks"]["roundtrip"]["ok"] is True

    def test_xmod_c2_all_checks(self, capsys):
        code, out, _ = run(
            capsys, "double", fx("xmod-c2c2.json"), "--check", "transport,interchange,roundtrip,cube-closure"
        )
        assert code == 0
        res = results_of(out)
        assert all(entry["ok"] for entry in res["checks"].values())

    def test_cube_closure_over_the_shell_cap_exits_1(self):
        # inner S3 has about 2.2e9 cube shells; the enumeration stops at its cap
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidkit.cli", "double", fx("xmod-inner-s3.json"),
             "--check", "transport,interchange,roundtrip,cube-closure"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=False, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: cube enumeration passed the cap of 65536 shells\n"

    def test_broken_groupoid_is_refused_at_load(self):
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidkit.cli", "double", fx("broken-inverse.json"), "--check", "cube-closure"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=False, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: not a groupoid: inverse-endpoints('a:0->1', 'a:0->1'): inverse endpoints wrong\n"
        )

    def test_square_catalogue_emission(self, capsys, tmp_path):
        target = tmp_path / "squares.json"
        code, _, _ = run(capsys, "double", fx("box-c2.json"), "--emit-squares", str(target))
        assert code == 0
        squares = json.loads(target.read_text())["squares"]
        assert len(squares) == 8

    def test_unknown_check_is_parse_error(self, capsys):
        code, _, err = run(capsys, "double", fx("box-c2.json"), "--check", "nonsense")
        assert code == 2
        assert "parse error" in err


class TestCube:
    def test_degenerate_cube_commutative(self, capsys):
        code, out, _ = run(capsys, "cube", fx("box-c2.json"), fx("cube-degenerate.json"))
        assert code == 0
        assert results_of(out)["commutative"] is True

    def test_malformed_cube(self, capsys, tmp_path):
        bad = tmp_path / "bad-cube.json"
        bad.write_text(json.dumps({"faces": {"top": 0, "bottom": 0, "left": 1, "right": 0, "front": 0, "back": 0}}))
        code, out, _ = run(capsys, "cube", fx("box-c2.json"), str(bad))
        assert code == 1
        assert "error" in results_of(out)

    @pytest.mark.parametrize("top", [10_000, "0"], ids=["out-of-range", "wrong-type"])
    def test_bad_face_index_is_parse_error(self, capsys, tmp_path, top):
        bad = tmp_path / "bad-cube.json"
        bad.write_text(json.dumps({"faces": {"top": top, "bottom": 0, "left": 0, "right": 0, "front": 0, "back": 0}}))
        code, out, err = run(capsys, "cube", fx("box-c2.json"), str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: cube.faces")


class TestVertexGroup:
    def test_non_string_objects_are_a_parse_error(self, capsys):
        # a morphism file lists its objects as [from, to] pairs
        code, out, err = run(capsys, "vertex-group", fx("circle-i.json"), "v")
        assert code == 2
        assert out == ""
        assert "parse error: presentation.objects[0]" in err
        assert "Traceback" not in err


class TestGenerators:
    @pytest.mark.parametrize("command", ["mobius", "annulus"])
    def test_band_generators_roundtrip(self, capsys, command, tmp_path):
        code, out, _ = run(capsys, command, "--segments", "3")
        assert code == 0
        path = tmp_path / f"{command}.json"
        path.write_text(out)
        code2, out2, _ = run(capsys, "holonomy", str(path))
        assert code2 == 0
        res = results_of(out2)
        expected_centre = 2 if command == "mobius" else 1
        assert res["vertex_groups"]["c0"] == expected_centre

    def test_generated_fixture_matches_shipped(self, capsys):
        code, out, _ = run(capsys, "mobius", "--segments", "3")
        assert code == 0
        assert out == (FIXTURES / "mobius3.json").read_text()
