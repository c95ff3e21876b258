"""The four workloads: their inputs, written as JSON, and their jobs.

A job is either an in-process ``groupoidkit.cli.main(argv)`` call with
stdout captured, or a fixed sequence of calls to one layer's public
functions on a JSON document.  Every job starts from JSON and ends in a
verdict: a dict with a ``closed`` part, the summary that a closed form
predicts, and a ``recorded`` part, the fuller detail.  ``expected.json``
holds, per job, the closed-form answer written by hand where one exists
and the recorded answer (for CLI jobs, the sha256 of ``results`` as a
byte-stability check).

Inputs are built once per run by `build_jobs`; the seed only orders the
jobs within a pass, so no verdict depends on it.  Library calls go through
module attributes (``bisections.generate_semigroup(...)``) so that the
traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

from groupoidkit import bisections, cli, colimits, core, double, holonomy, presentations
from groupoidkit import io as gkio
from groupoidkit.errors import NotConnected
from groupoidkit.presentations import POS, FpGroupoid, Word, empty_word

WORKLOADS = ("foliation", "semigroup", "cubes", "tables")

BAND_SIZES = (3, 5, 8, 12, 16)


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], dict]
    smoke: bool = False


def read_doc(text: str):
    """The benchmark's own JSON read; the traced run counts it as io.parse."""
    return json.loads(text)


def digest(doc) -> str:
    """sha256 of a JSON value in canonical form (sorted keys, no spaces)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_cli(argv):
    """Run the command line in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_job(job_id, argv, closed=None, smoke=False, whole_document=False):
    """A CLI job: the byte-stability digest of ``results`` is recorded.

    ``closed`` maps the parsed ``results`` to the summary that a closed form
    predicts.  ``whole_document`` digests the whole output, for
    commands that print a document rather than a manifest.
    """

    def run():
        code, text = run_cli(argv)
        doc = json.loads(text)
        body = doc if whole_document else doc["results"]
        return {
            "closed": None if closed is None else closed(body),
            "recorded": {"exit": code, "results_sha256": digest(body)},
        }

    return Job(job_id, run, smoke)


def _fixture(root, name):
    return os.path.join(root, "fixtures", name)


# ---------------------------------------------------------------------------
# foliation: germs, holonomy, charts and topology, extendibility
# ---------------------------------------------------------------------------


def _split_orders(orders: dict) -> dict:
    """Vertex group orders, split into centre objects (``c*``) and the rest."""
    return {
        "orders_at_centres": sorted({n for x, n in orders.items() if x.startswith("c")}),
        "orders_elsewhere": sorted({n for x, n in orders.items() if not x.startswith("c")}),
    }


def _band_job(name, text, smoke):
    def run():
        D = gkio.local_data_from_dict(read_doc(text))
        J = holonomy.germ_groupoid(D)
        N = holonomy.j0(J)
        hol = holonomy.holonomy_groupoid(J, N)
        T, report = holonomy.holonomy_topology(hol)
        ext = bisections.check_extendible(D)
        closed = _split_orders(hol.vertex_orders())
        closed["extendible"] = ext.ok
        return {
            "closed": closed,
            "recorded": {
                "germ_arrows": len(J.groupoid.arrows),
                "j0_arrows": len(N.arrows),
                "hol_arrows": len(hol.groupoid.arrows),
                "hol_topology_base": len(T.base()),
                "hol_topology_continuity": report,
                "extendibility_failures": sorted(kind for kind, _ in ext.failures),
            },
        }

    return Job(name, run, smoke)


def _cli_hol_closed(results):
    out = _split_orders(results["vertex_groups"])
    out["projection_constant"] = results["projection_constant"]
    return out


def foliation_jobs(root, workdir):
    jobs = []
    for n in BAND_SIZES:
        for label, model in (("mobius", holonomy.mobius_model), ("annulus", holonomy.annulus_model)):
            text = gkio.canonical_dumps(gkio.local_data_to_dict(model(n)))
            jobs.append(_band_job(f"{label}{n}", text, smoke=n == 3))
    for label in ("mobius3", "annulus3"):
        path = _fixture(root, f"{label}.json")
        dot = os.path.join(workdir, f"{label}.dot")
        jobs.append(cli_job(f"cli-holonomy-{label}", ["holonomy", path, "--emit-dot", dot],
                            _cli_hol_closed, smoke=True))
        jobs.append(cli_job(f"cli-extendible-{label}", ["extendible", path],
                            lambda r: {"extendible": r["extendible"]}, smoke=True))
    jobs.append(cli_job("cli-mobius16", ["mobius", "--segments", "16"], whole_document=True))
    return jobs


# ---------------------------------------------------------------------------
# semigroup: bisections enumerated over whole opens and closed globally
# ---------------------------------------------------------------------------


# The instance constructors below mirror tests/corpus.py, so that the benchmark's
# inputs stay fixed when the tests change.


def _full_window(G):
    return presentations.local_data(G, G.arrows, core.discrete_topology(G.arrows))


def _identity_window(G):
    ids = sorted(set(G.id_of.values()))
    return presentations.local_data(G, ids, core.discrete_topology(ids))


def _cyclic_window(n, radius):
    """One-object C_n with window {g^k : |k| <= radius}."""
    G = core.one_object_groupoid(core.cyclic_group(n))
    W = {"id:o"}
    for k in range(1, radius + 1):
        W.add(f"g:{k % n}")
        W.add(f"g:{(-k) % n}")
    W = sorted(W)
    return presentations.local_data(G, W, core.discrete_topology(W))


def _swap_groupoid(points, moved):
    """C2 acting on ``points``, swapping the two in ``moved``."""
    a, b = moved
    act = {}
    for p in points:
        act[(0, p)] = p
        act[(1, p)] = {a: b, b: a}.get(p, p)
    return core.action_groupoid(core.cyclic_group(2), list(points), act)


def _sierpinski_pair():
    """Pair groupoid on two points; no bisection passes through the cross arrows."""
    G = core.pair_groupoid(["a", "b"])
    opens = [
        [],
        ["id:a"],
        ["id:a", "a>b"],
        ["id:a", "b>a"],
        ["id:a", "a>b", "b>a"],
        ["id:a", "id:b", "a>b", "b>a"],
        ["id:a", "id:b", "a>b"],
        ["id:a", "id:b", "b>a"],
        ["id:a", "id:b"],
    ]
    W = sorted(G.arrows)
    return presentations.local_data(G, W, core.topology_from_opens(W, opens))


def _chain_window(n):
    """Pair groupoid on n points with window: identities and neighbour arrows."""
    pts = "abcdefgh"[:n]
    G = core.pair_groupoid(list(pts))
    W = sorted(
        a for a in G.arrows
        if a.startswith("id:") or abs(pts.index(a[0]) - pts.index(a[2])) == 1
    )
    return presentations.local_data(G, W, core.discrete_topology(W))


def _semigroup_job(name, text, smoke):
    def run():
        D = gkio.local_data_from_dict(read_doc(text))
        gens = bisections.w_bisections(D)
        try:
            S = bisections.generate_semigroup(D.G, gens, max_elements=10_000)
        except OverflowError:
            return {"closed": None, "recorded": {"seeds": len(gens), "capped": True}}
        laws = bisections.inverse_semigroup_laws(S)
        return {
            "closed": {"elements": len(S.elements), "law_violations": len(laws)},
            "recorded": {"seeds": len(gens), "elements": len(S.elements), "law_violations": len(laws)},
        }

    return Job(name, run, smoke)


def semigroup_instances():
    """(name, local data, in smoke mode)."""
    pair4, pair5 = core.pair_groupoid(list("abcd")), core.pair_groupoid(list("abcde"))
    return [
        ("swap2-full", _full_window(_swap_groupoid("pq", "pq")), True),
        ("swap3-full", _full_window(_swap_groupoid("123", "12")), True),
        ("c4-window", _cyclic_window(4, 1), True),
        ("c8-window-2", _cyclic_window(8, 2), True),
        ("sierpinski", _sierpinski_pair(), True),
        ("swap3-identity", _identity_window(_swap_groupoid("123", "12")), True),
        ("pair4-full", _full_window(pair4), False),
        ("pair4-chain", _chain_window(4), True),
        ("pair5-full", _full_window(pair5), False),
        ("pair5-chain", _chain_window(5), False),
    ]


def semigroup_jobs(root, workdir):
    return [
        _semigroup_job(name, gkio.canonical_dumps(gkio.local_data_to_dict(D)), smoke)
        for name, D, smoke in semigroup_instances()
    ]


# ---------------------------------------------------------------------------
# cubes: square tables, cube enumeration and sweep, interchange
# ---------------------------------------------------------------------------


def _box_sweep_job(name, text, smoke):
    def run():
        G = gkio.groupoid_from_dict(read_doc(text))
        D = double.commuting_squares(G)
        sweep = double.cube_closure_sweep(D)
        counts = {
            "cubes": sweep["cubes"],
            "commutative": sweep["commutative"],
            "violations": len(sweep["violations"]),
        }
        return {"closed": counts, "recorded": dict(counts, composites_checked=sweep["composites_checked"])}

    return Job(name, run, smoke)


def _cli_sweep_closed(results):
    sweep = results["checks"]["cube-closure"]
    return {"cubes": sweep["cubes"], "commutative": sweep["commutative"], "ok": sweep["ok"]}


def cubes_jobs(root, workdir):
    laws = "transport,interchange,roundtrip"
    squares = os.path.join(workdir, "box-c2-squares.json")
    jobs = [
        cli_job("cli-double-xmod-trivial", ["double", _fixture(root, "xmod-trivial.json"), "--check", laws],
                smoke=True),
        cli_job("cli-double-xmod-inner-s3", ["double", _fixture(root, "xmod-inner-s3.json"), "--check", laws]),
        cli_job("cli-double-xmod-c2c2", ["double", _fixture(root, "xmod-c2c2.json"), "--check",
                                         laws + ",cube-closure"]),
        cli_job("cli-double-box-c2", ["double", _fixture(root, "box-c2.json"), "--check",
                                      "transport,interchange,cube-closure", "--emit-squares", squares],
                _cli_sweep_closed, smoke=True),
        cli_job("cli-cube-box-c2", ["cube", _fixture(root, "box-c2.json"), _fixture(root, "cube-degenerate.json")],
                lambda r: {"commutative": r["commutative"]}, smoke=True),
    ]
    c3 = core.one_object_groupoid(core.cyclic_group(3))
    i2 = core.indiscrete(2)
    jobs.append(_box_sweep_job("sweep-box-c3", gkio.canonical_dumps(gkio.groupoid_to_dict(c3)), False))
    jobs.append(_box_sweep_job("sweep-box-indiscrete2", gkio.canonical_dumps(gkio.groupoid_to_dict(i2)), True))
    return jobs


# ---------------------------------------------------------------------------
# tables: validation, monodromy, pushouts, rewriting
# ---------------------------------------------------------------------------


def monodromy_instances():
    """The 24-instance monodromy corpus plus full windows of C12, C16, C24, S4.

    Entries are (name, local data, in smoke mode).
    """
    cg, og, sg = core.cyclic_group, core.one_object_groupoid, core.symmetric_group
    klein = core.direct_product_group(cg(2), cg(2))
    s3 = og(sg(3))
    transpositions = ["id:o", "g:(0, 2, 1)", "g:(1, 0, 2)", "g:(2, 1, 0)"]
    pair3 = core.pair_groupoid(["x", "y", "z"])
    adjacent = sorted(a for a in pair3.arrows if a.startswith("id:") or "z" not in a)
    klein_w = ["id:o", "g:(0, 1)", "g:(1, 0)"]

    def window(G, W):
        return presentations.local_data(G, W, core.discrete_topology(W))

    smoke = {"c4-window-1", "c4-full", "c4-identity", "c8-window-2"}
    out = [
        ("c4-window-1", _cyclic_window(4, 1)),
        ("c4-full", _full_window(og(cg(4)))),
        ("c4-identity", _identity_window(og(cg(4)))),
        ("c6-window-1", _cyclic_window(6, 1)),
        ("c6-window-2", _cyclic_window(6, 2)),
        ("c6-full", _full_window(og(cg(6)))),
        ("c8-window-1", _cyclic_window(8, 1)),
        ("c8-window-2", _cyclic_window(8, 2)),
        ("c2-full", _full_window(og(cg(2)))),
        ("c3-full", _full_window(og(cg(3)))),
        ("klein-window", window(og(klein), klein_w)),
        ("klein-full", _full_window(og(klein))),
        ("s3-full", _full_window(s3)),
        ("s3-transpositions", window(s3, transpositions)),
        ("interval-full", _full_window(core.indiscrete(2))),
        ("interval-identity", _identity_window(core.indiscrete(2))),
        ("triangle-full", _full_window(core.indiscrete(3))),
        ("swap2-full", _full_window(_swap_groupoid("pq", "pq"))),
        ("swap2-identity", _identity_window(_swap_groupoid("pq", "pq"))),
        ("swap3-full", _full_window(_swap_groupoid("123", "12"))),
        ("pair3-full", _full_window(pair3)),
        ("pair3-chain", window(pair3, adjacent)),
        ("two-blocks-full", _full_window(core.equivalence_groupoid("abcd", [["a", "b"], ["c", "d"]]))),
        ("two-intervals", _full_window(core.disjoint_union(core.indiscrete(2), core.indiscrete(2)))),
        ("c12-full", _full_window(og(cg(12)))),
        ("c16-full", _full_window(og(cg(16)))),
        ("c24-full", _full_window(og(cg(24)))),
        ("s4-full", _full_window(og(sg(4)))),
    ]
    return [(name, D, name in smoke) for name, D in out]


def _monodromy_job(name, text, smoke):
    def run():
        D = gkio.local_data_from_dict(read_doc(text))
        M = presentations.monodromy(D)
        confluent = M.rewriting.confluent
        finite = presentations.monodromy_is_finite(M) if confluent else None
        arrows = len(presentations.monodromy_groupoid(M)[0].arrows) if finite else None
        return {
            "closed": {"finite": finite, "arrows": arrows},
            "recorded": {
                "generators": len(M.presentation.generators()),
                "relations": len(M.presentation.relations),
                "confluent": confluent,
                "finite": finite,
                "arrows": arrows,
            },
        }

    return Job(f"monodromy-{name}", run, smoke)


def _presentation(objects, edges, relations=()):
    return FpGroupoid(presentations.reflexive_graph(objects, edges), tuple(relations))


def _cyclic_presentation(gen, order, obj="v"):
    rel = (Word(obj, ((gen, POS),) * order), empty_word(obj))
    return _presentation([obj], [(gen, obj, obj)], [rel])


def _morphism_to_dict(obj_map, gen_map):
    """Document in the morphism schema that ``io.morphism_from_dict`` reads."""
    return {
        "objects": sorted([x, y] for x, y in obj_map.items()),
        "generators": sorted([e, gkio.word_to_dict(w)] for e, w in gen_map.items()),
    }


def pushout_spans():
    """The 11-instance pushout corpus as (name, A, B, C, f, g, in smoke mode).

    Each map is given as (object map, generator map).
    """
    def incl(A):
        return ({x: x for x in A.objects}, {})

    def disc(objs):
        return _presentation(objs, [])

    def interval(e, objs):
        return _presentation(objs, [(e, objs[0], objs[1])])

    def loops(names, obj="v"):
        return _presentation([obj], [(e, obj, obj) for e in names])

    W = disc(["m", "p"])
    A2, pt, dot = disc(["0", "1"]), disc(["0"]), disc(["v"])
    seg = interval("e", ("0", "1"))
    two_edges = _presentation(["0", "1"], [("f1", "0", "1"), ("f2", "0", "1")])
    c2a, c2b, c3b = _cyclic_presentation("a", 2), _cyclic_presentation("b", 2), _cyclic_presentation("b", 3)
    collapse = ({"0": "0", "1": "0"}, {})
    same = ({"0": "0", "1": "1"}, {"e": Word("0", (("e", POS),))})
    return [
        ("circle-two-points", W, interval("eU", ("p", "m")), interval("eV", ("p", "m")), incl(W), incl(W), True),
        ("circle-one-object", A2, pt, seg, collapse, incl(A2), True),
        ("wedge-two-loops", dot, loops(("a",)), loops(("b",)), incl(dot), incl(dot), False),
        ("identity-glue", seg, seg, seg, same, same, True),
        ("theta-graph", A2, seg, two_edges, incl(A2), incl(A2), False),
        ("c2-wedge-c2", dot, c2a, c2b, incl(dot), incl(dot), False),
        ("c2-wedge-c3", dot, c2a, c3b, incl(dot), incl(dot), False),
        ("loop-plus-isolated", dot, disc(["v", "w"]), loops(("a",)), incl(dot), incl(dot), True),
        ("two-segments", pt, interval("e1", ("0", "x")), interval("e2", ("0", "y")), incl(pt), incl(pt), False),
        ("interval-against-loop", A2, seg, loops(("a",)), incl(A2), ({"0": "v", "1": "v"}, {}), False),
        ("swapped-circle", A2, seg, pt, incl(A2), collapse, False),
    ]


def _pushout_job(name, texts, smoke):
    def run():
        A, B, C = (gkio.presentation_from_dict(read_doc(t)) for t in texts[:3])
        f = gkio.morphism_from_dict(read_doc(texts[3]), A, B)
        g = gkio.morphism_from_dict(read_doc(texts[4]), A, C)
        out = colimits.pushout(f, g)
        base = sorted(out.apex.objects)[0]
        recorded = {
            "apex_objects": len(out.apex.objects),
            "apex_generators": len(out.apex.generators()),
            "apex_relations": len(out.apex.relations),
        }
        try:
            pres = colimits.vertex_group_presentation(out.apex, base)
        except NotConnected:
            verdict = "NotConnected"
        else:
            verdict = pres.element_count_up_to(8)
            recorded["vertex_generators"] = len(pres.generators)
            recorded["vertex_relators"] = len(pres.relators)
        recorded["elements_up_to_8"] = verdict
        return {"closed": {"elements_up_to_8": verdict}, "recorded": recorded}

    return Job(f"pushout-{name}", run, smoke)


def tables_jobs(root, workdir):
    cg, og, sg = core.cyclic_group, core.one_object_groupoid, core.symmetric_group
    def valid(r):
        return {"valid": r["valid"], "violations": len(r["violations"])}

    jobs = []
    groups = [
        ("s4", og(sg(4)), True),
        ("s5", og(sg(5)), False),
        ("c2xs3-pair3", core.product_groupoid(og(core.direct_product_group(cg(2), sg(3))),
                                             core.pair_groupoid(["x", "y", "z"])), False),
    ]
    for name, G, smoke in groups:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gkio.canonical_dumps(gkio.groupoid_to_dict(G)))
        jobs.append(cli_job(f"cli-validate-{name}", ["validate", path], valid, smoke))
    jobs.append(cli_job("cli-validate-interval", ["validate", _fixture(root, "interval.json")], valid, True))
    jobs.append(cli_job(
        "cli-validate-broken-inverse", ["validate", _fixture(root, "broken-inverse.json")],
        lambda r: {"valid": r["valid"], "rules": sorted({v["rule"] for v in r["violations"]})}, True))
    circle = [_fixture(root, f"circle-{c}.json") for c in "wuvij"]
    jobs.append(cli_job("cli-pushout-circle", ["pushout", *circle, "--vertex-group", "{B.m,C.m}"],
                        lambda r: {"vertex_generators": len(r["vertex_group"]["generators"]),
                                   "vertex_relators": len(r["vertex_group"]["relators"])}, True))
    jobs.append(cli_job("cli-monodromy-extend", ["monodromy", _fixture(root, "c4-window.json"), "--extend",
                                                 _fixture(root, "extend-c8.json")], smoke=True))
    for name, D, smoke in monodromy_instances():
        jobs.append(_monodromy_job(name, gkio.canonical_dumps(gkio.local_data_to_dict(D)), smoke))
    for name, A, B, C, f, g, smoke in pushout_spans():
        texts = [gkio.canonical_dumps(gkio.presentation_to_dict(P)) for P in (A, B, C)]
        texts += [json.dumps(_morphism_to_dict(*m)) for m in (f, g)]
        jobs.append(_pushout_job(name, texts, smoke))
    return jobs


JOB_LISTS = {
    "foliation": foliation_jobs,
    "semigroup": semigroup_jobs,
    "cubes": cubes_jobs,
    "tables": tables_jobs,
}


def build_jobs(workload: str, root: str, workdir: str, smoke: bool = False) -> list[Job]:
    """The workload's fixed job list; ``smoke`` keeps only the tiny jobs."""
    jobs = JOB_LISTS[workload](root, workdir)
    return [j for j in jobs if j.smoke] if smoke else jobs
