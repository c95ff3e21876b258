"""Command line surface: manifests, exit codes, byte stability."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import groupoidkit
from groupoidkit import cli
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


# bad-relation.json is circle-u.json with a relation naming the unknown generator zz
BAD_RELATION = (
    "error: invalid presentation: relation-word(Word(start='p', letters=(('zz', 1), ('eU', 1))), "
    "Word(start='p', letters=(('eU', 1),))): unknown generator 'zz'\n"
)

# identity-generator.json lists a generator named like the identity edge of its object
DISTINCT_EDGES = "error: invalid presentation: distinct-edges('id:m',): edge id listed more than once\n"


def repeated_generator(tmp_path):
    """circle-u.json with its generator listed again as a loop at m."""
    doc = json.loads((FIXTURES / "circle-u.json").read_text())
    doc["generators"].append({"id": "eU", "src": "m", "tgt": "m"})
    path = tmp_path / "repeated-generator.json"
    path.write_text(json.dumps(doc))
    return str(path), "error: invalid presentation: distinct-edges('eU',): edge id listed more than once\n"


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["pushout", "circle-w.json", "circle-u.json", "circle-v.json", "circle-i.json", "circle-j.json"],
        ["cube", "box-c2.json", "cube-degenerate.json"],
        ["monodromy", "c4-window.json", "--extend", "extend-c8.json"],
        ["holonomy", "mobius3.json"],
    ], ids=lambda argv: argv[0])
    def test_inputs_are_the_files_read_in_order(self, capsys, argv):
        argv = [fx(a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        paths = [a for a in argv if a.endswith(".json")]
        assert json.loads(out)["inputs"] == [
            {"path": p, "sha256": hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()} for p in paths
        ]

    @pytest.mark.parametrize("argv", [
        ["holonomy", "mobius3.json", "--emit-dot"],
        ["double", "c4-window.json", "--emit-squares"],
    ], ids=lambda argv: argv[-1])
    def test_unwritable_output_is_a_parse_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        code, out, err = run(capsys, argv[0], fx(argv[1]), argv[2], str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {target}: cannot write: ") and err.count("\n") == 1, err


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

    def test_broken_assoc_lists_associativity_witnesses(self, capsys):
        # broken-assoc.json is C4 with the composites g:1∘g:1 and g:1∘g:2 swapped
        code, out, _ = run(capsys, "validate", fx("broken-assoc.json"))
        assert code == 1
        got = results_of(out)["violations"]
        assert len(got) == 15
        assert got[:3] == [
            {"rule": "associativity", "witness": list(w), "message": "associativity fails"}
            for w in (("g:2", "g:1", "g:1"), ("g:3", "g:1", "g:1"), ("g:1", "g:2", "g:1"))
        ]

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

    def test_ill_formed_leg_is_refused_at_load(self, capsys):
        circle = [fx(f"circle-{c}.json") for c in "wuvij"]
        circle[1] = fx("bad-relation.json")
        assert run(capsys, "pushout", *circle) == (1, "", BAD_RELATION)

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["A", "B", "C"])
    def test_identity_named_generator_is_refused_in_every_slot(self, capsys, slot):
        circle = [fx(f"circle-{c}.json") for c in "wuvij"]
        circle[slot] = fx("identity-generator.json")
        assert run(capsys, "pushout", *circle) == (1, "", DISTINCT_EDGES)

    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["A", "B", "C"])
    def test_repeated_generator_is_refused_in_every_slot(self, capsys, tmp_path, slot):
        circle = [fx(f"circle-{c}.json") for c in "wuvij"]
        circle[slot], message = repeated_generator(tmp_path)
        assert run(capsys, "pushout", *circle) == (1, "", message)

    def test_morphism_without_an_endpoint_object_is_refused(self, capsys, tmp_path):
        # circle-uv.json maps eU: p -> m to eV; without its ["m", "m"] row, eU's target has no image
        legs = [fx(f"{name}.json") for name in ("circle-u", "circle-v", "circle-v", "circle-uv", "circle-uv")]
        code, out, _ = run(capsys, "pushout", *legs)
        assert code == 0 and results_of(out)["square_commutes_on_generators"] is True
        doc = json.loads((FIXTURES / "circle-uv.json").read_text())
        doc["objects"] = [row for row in doc["objects"] if row[0] != "m"]
        legs[3] = str(tmp_path / "circle-uv-without-m.json")
        pathlib.Path(legs[3]).write_text(json.dumps(doc))
        assert run(capsys, "pushout", *legs) == (
            1, "", "error: leg violations: [('object-image', 'm'), ('generator-image-endpoints', 'eU')]\n"
        )


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

    def test_window_that_fails_its_critical_pairs(self, capsys):
        code, out, _ = run(capsys, "monodromy", fx("c6-window-2.json"))
        assert code == 0
        res = results_of(out)
        assert res["rewriting_confluent"] is False
        assert res["finite"] is None

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

    def test_window_arrow_without_a_bisection_is_refused(self, capsys):
        assert run(capsys, "holonomy", fx("sierpinski.json")) == (
            1, "", "error: no window bisection through 'a>b'\n"
        )

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

    def test_sierpinski_composition_is_discontinuous(self, capsys):
        code, out, _ = run(capsys, "extendible", fx("sierpinski.json"))
        assert code == 3
        assert results_of(out)["failures"] == [["composition-discontinuous", "('a>b', 'b>a', 'a>b', 'id:a')"]]

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


BROKEN_COMP = "error: not a groupoid: composition-total('0+>0-', '0->0+'): composable pair missing from comp\n"


class TestLocalDataValidatedAtLoad:
    """holonomy, extendible and monodromy refuse a groupoid that breaks the axioms."""

    @pytest.mark.parametrize(
        "argv", [["holonomy"], ["holonomy", "--paper-literal-j0"], ["extendible"], ["monodromy"]], ids=" ".join
    )
    def test_broken_comp_exits_1(self, capsys, argv):
        assert run(capsys, argv[0], fx("broken-comp.json"), *argv[1:]) == (1, "", BROKEN_COMP)

    def test_broken_comp_writes_no_dot_file(self, capsys, tmp_path):
        target = tmp_path / "hol.dot"
        assert run(capsys, "holonomy", fx("broken-comp.json"), "--emit-dot", str(target)) == (1, "", BROKEN_COMP)
        assert not target.exists()

    @pytest.mark.parametrize("command", ["holonomy", "extendible", "monodromy"])
    def test_dropped_inverse_row_exits_1(self, capsys, command):
        # drop-inv.json is c4-window.json without the inv row of g:3; the
        # groupoid is checked before the window is read
        assert run(capsys, command, fx("drop-inv.json")) == (
            1, "", "error: not a groupoid: inverse-exists('g:3',): no inverse arrow\n"
        )

    def test_open_window_error_independent_of_hash_seed(self):
        # open-window.json is mobius3.json with c1>c0, 1+>0+, 1->0- and 2+>0- dropped from the
        # window: four arrows have their inverse outside it, and the repr-first is reported
        src = str(pathlib.Path(groupoidkit.__file__).resolve().parent.parent)
        errors = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "groupoidkit.cli", "holonomy", fx("open-window.json")],
                capture_output=True, text=True, env=env, check=False, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (1, "")
            errors.add(proc.stderr)
        assert errors == {
            "error: invalid local groupoid data: window-inverse-closed('0+>1+',): inverse leaves the window\n"
        }

    def test_broken_extension_target_exits_1(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "extend-c8.json").read_text())
        doc["target"]["comp"] = [row for row in doc["target"]["comp"] if row[:2] != ["g:1", "g:1"]]
        path = tmp_path / "extend-c8-broken.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "monodromy", fx("c4-window.json"), "--extend", str(path)) == (
            1, "", "error: not a groupoid: composition-total('g:1', 'g:1'): composable pair missing from comp\n"
        )

    @pytest.mark.parametrize("command", ["holonomy", "extendible", "monodromy"])
    def test_numeric_object_topology_is_a_wrong_type(self, capsys, tmp_path, command):
        doc = json.loads((FIXTURES / "mobius3.json").read_text())
        doc["topology_objects"] = 5
        path = tmp_path / "mobius3-numeric-topology.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, command, str(path)) == (
            2, "", "parse error: local data: field 'topology_objects' has wrong type\n"
        )


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

    @pytest.mark.parametrize("check", ["interchange", "roundtrip"])
    def test_crossed_module_over_a_loop_is_refused(self, capsys, check):
        # P is a five-element loop with identity and inverses: a a b = b but a (a b) = d
        assert run(capsys, "double", fx("xmod-loop5.json"), "--check", check) == (
            1, "", "error: axiom failures: [('P-associativity', ('a', 'a', 'b')), "
            "('P-associativity', ('a', 'a', 'c')), ('P-associativity', ('a', 'a', 'd'))]\n"
        )

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

    @pytest.mark.parametrize("path, checks, message", [
        ("xmod-c2c2.json", "transport,interchange,roundtrip,cube-closure,bogus", "unknown check 'bogus'"),
        ("box-c2.json", "transport,interchange,cube-closure,roundtrip", "roundtrip check needs a crossed module input"),
    ], ids=["unknown-name", "roundtrip-on-a-groupoid"])
    def test_bad_check_list_is_refused_before_any_check_runs(self, capsys, monkeypatch, path, checks, message):
        for name in ("transport_check", "interchange_check", "roundtrip_isomorphism", "cube_closure_sweep"):
            monkeypatch.setattr(cli, name, lambda D, name=name: pytest.fail(f"{name} ran before the list was checked"))
        assert run(capsys, "double", fx(path), "--check", checks) == (2, "", f"parse error: {message}\n")


    def test_boolean_group_table_entries_are_a_parse_error(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "xmod-trivial.json").read_text())
        doc["P"]["table"] = [[False, True], [True, False]]
        path = tmp_path / "xmod-bool.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "double", str(path), "--check", "transport") == (
            2, "", "parse error: P: table[0][0] out of range\n"
        )


class TestCube:
    def test_degenerate_cube_commutative(self, capsys):
        code, out, _ = run(capsys, "cube", fx("box-c2.json"), fx("cube-degenerate.json"))
        assert code == 0
        assert results_of(out)["commutative"] is True

    def test_mismatched_shell_names_the_first_failing_identification(self, capsys):
        # cube-mismatched.json is a box-c2 shell whose left face has the wrong left edge
        code, out, err = run(capsys, "cube", fx("box-c2.json"), fx("cube-mismatched.json"))
        assert (code, err) == (1, "")
        assert results_of(out) == {"error": "edge identification 6 fails: 'id:o' != 'g:1'"}

    def test_malformed_cube(self, capsys, tmp_path):
        bad = tmp_path / "bad-cube.json"
        bad.write_text(json.dumps({"faces": {"top": 0, "bottom": 0, "left": 1, "right": 0, "front": 0, "back": 0}}))
        code, out, _ = run(capsys, "cube", fx("box-c2.json"), str(bad))
        assert code == 1
        assert "error" in results_of(out)

    @pytest.mark.parametrize("top, message", [
        (10_000, "cube.faces.top: index 10000 out of range"),
        ("0", "cube.faces: field 'top' has wrong type"),
        (True, "cube.faces: field 'top' has wrong type"),
    ], ids=["out-of-range", "wrong-type", "bool"])
    def test_bad_face_index_is_parse_error(self, capsys, tmp_path, top, message):
        bad = tmp_path / "bad-cube.json"
        bad.write_text(json.dumps({"faces": {"top": top, "bottom": 0, "left": 0, "right": 0, "front": 0, "back": 0}}))
        code, out, err = run(capsys, "cube", fx("box-c2.json"), str(bad))
        assert code == 2
        assert out == ""
        assert err == f"parse error: {message}\n"


class TestVertexGroup:
    def test_non_string_objects_are_a_parse_error(self, capsys):
        # a morphism file lists its objects as [from, to] pairs
        code, out, err = run(capsys, "vertex-group", fx("circle-i.json"), "v")
        assert code == 2
        assert out == ""
        assert "parse error: presentation.objects[0]" in err
        assert "Traceback" not in err

    def test_unknown_generator_in_a_relation_is_refused(self, capsys):
        assert run(capsys, "vertex-group", fx("bad-relation.json"), "m") == (1, "", BAD_RELATION)

    def test_identity_named_generator_is_refused(self, capsys):
        assert run(capsys, "vertex-group", fx("identity-generator.json"), "m") == (1, "", DISTINCT_EDGES)

    def test_repeated_generator_is_refused(self, capsys, tmp_path):
        path, message = repeated_generator(tmp_path)
        assert run(capsys, "vertex-group", path, "m") == (1, "", message)

    @pytest.mark.parametrize("generator", [[], {}, 7, None], ids=repr)
    def test_non_string_generator_in_a_relation_is_a_parse_error(self, capsys, tmp_path, generator):
        doc = json.loads((FIXTURES / "bad-relation.json").read_text())
        doc["relations"][0][0]["letters"][0][0] = generator
        path = tmp_path / "bad-letter.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "vertex-group", str(path), "m") == (
            2, "", "parse error: presentation.relations[0][0].letters[0]: expected [generator, '+'|'-']\n"
        )

    def test_relation_with_different_endpoints_is_refused(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "circle-u.json").read_text())
        doc["relations"] = [[{"start": "p", "letters": [["eU", "+"]]}, {"start": "p", "letters": []}]]
        path = tmp_path / "endpoints.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "vertex-group", str(path), "p")
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid presentation: relation-endpoints(")


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
