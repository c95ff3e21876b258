"""Command line for groupoidkit.

Every command but ``mobius`` and ``annulus`` prints one canonical JSON
manifest to stdout: command name, the input files in the order they were
read (each with the sha256 of the bytes parsed), tool version, a
``results`` object (byte-stable across runs with identical inputs) and the
elapsed time.  Output files (``--emit-dot``, ``--emit-squares``) are written
before the manifest; an unwritable output path is a parse failure.  Exit
codes: 0 success, 1 semantic failure, 2 parse failure, 3 diagnostic finding.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .bisections import check_extendible
from .colimits import pushout, vertex_group_presentation
from .core import validate_groupoid
from .double import (
    commuting_squares,
    cube_closure_sweep,
    interchange_check,
    is_commutative_cube,
    roundtrip_isomorphism,
    transport_check,
    xmod_to_double,
)
from .errors import (
    GroupoidKitError,
    IllFormedWord,
    NotAGroupoid,
    NotFiniteOnInstance,
    SchemaError,
    WellDefinednessFailure,
)
from .germs import germ_closure  # noqa: F401  (perfbench traces cli.germ_closure)
from .holonomy import (
    annulus_model,
    germ_groupoid,
    holonomy_groupoid,
    j0,
    mobius_model,
)
from .io import (
    canonical_dumps,
    catalogue_to_dict,
    crossed_module_from_dict,
    cube_from_dict,
    extension_from_dict,
    groupoid_from_dict,
    groupoid_to_dot,
    local_data_from_dict,
    local_data_to_dict,
    morphism_from_dict,
    presentation_from_dict,
    presentation_to_dict,
    square_catalogue,
    word_to_dict,
)
from .presentations import (
    POS,
    broken_product,
    extend_local_morphism,
    is_local_morphism,
    monodromy,
    monodromy_is_finite,
)

OK, SEMANTIC, PARSE, FINDING = 0, 1, 2, 3


def _read_json(path: str) -> tuple[dict, str]:
    """The JSON object in the file at `path`, and the sha256 of its bytes.

    Every input schema is an object at the top level, so any other document is refused here.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data.decode("utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, an unreadable file, bytes that are not UTF-8
        raise SchemaError(f"{path}: cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return doc, hashlib.sha256(data).hexdigest()


def _run(args) -> int:
    """Run `args.cmd(args, read)`, write the output files it returns, then print the manifest.

    A command returns (results, exit code, {output path: text}); the
    manifest's inputs are its `read(path)` calls, in order.
    """
    started = time.time()
    inputs = []

    def read(path):
        doc, sha256 = _read_json(path)
        inputs.append({"path": path, "sha256": sha256})
        return doc

    results, code, outputs = args.cmd(args, read)
    for path, text in outputs.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"{path}: cannot write: {exc}")
    manifest = {
        "schema_version": 1,
        "tool": {"name": "groupoidkit", "version": __version__},
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "timing_ms": int((time.time() - started) * 1000),
    }
    sys.stdout.write(canonical_dumps(manifest))
    return code


def _checked(G):
    """G, once it passes the groupoid axioms; otherwise NotAGroupoid names the first violation."""
    report = validate_groupoid(G)
    if not report.ok:
        raise NotAGroupoid(f"not a groupoid: {report.violations[0]}")
    return G


def _load_local_data(doc):
    """Local data from a document whose groupoid passes the axioms before the window is read."""
    return local_data_from_dict(doc, _checked(groupoid_from_dict(doc)))


def _load_presentation(doc):
    """The presentation in a document, once it is well formed; otherwise IllFormedWord names the first violation."""
    P = presentation_from_dict(doc)
    report = P.validate()
    if not report.ok:
        raise IllFormedWord(f"invalid presentation: {report.violations[0]}")
    return P


def cmd_validate(args, read):
    report = validate_groupoid(groupoid_from_dict(read(args.path)))
    results = {
        "valid": report.ok,
        "violations": [
            {"rule": v.rule, "witness": [str(w) for w in v.witness], "message": v.message}
            for v in report.violations
        ],
    }
    return results, OK if report.ok else SEMANTIC, {}


def _vertex_group_results(P, obj) -> dict:
    pres = vertex_group_presentation(P, obj)
    relators = [[[e, "+" if s == POS else "-"] for (e, s) in r] for r in pres.relators]
    return {"object": obj, "generators": list(pres.generators), "relators": relators}


def cmd_pushout(args, read):
    A, B, C = (_load_presentation(read(path)) for path in (args.a, args.b, args.c))
    f = morphism_from_dict(read(args.f), A, B)
    g = morphism_from_dict(read(args.g), A, C)
    out = pushout(f, g)
    results = {
        "apex": presentation_to_dict(out.apex),
        "object_classes": sorted(
            [str(k[0]) + "." + str(k[1]), v] for k, v in out.transcript["object_classes"].items()
        ),
        "square_commutes_on_generators": all(
            entry["agree_syntactically"] or entry["glued_by_relation"]
            for entry in out.transcript["square_on_generators"].values()
        ),
    }
    if args.vertex_group is not None:
        results["vertex_group"] = _vertex_group_results(out.apex, args.vertex_group)
    return results, OK, {}


def cmd_vertex_group(args, read):
    return _vertex_group_results(_load_presentation(read(args.path)), args.object), OK, {}


def cmd_monodromy(args, read):
    D = _load_local_data(read(args.path))
    M = monodromy(D)
    finite = monodromy_is_finite(M) if M.rewriting.confluent else None
    results = {
        "presentation": presentation_to_dict(M.presentation),
        "projection_on_generators": sorted([e, M.p_gen[e]] for e in M.presentation.generators()),
        "iprime": sorted([w, word_to_dict(M.iprime[w])] for w in D.window),
        "rewriting_confluent": M.rewriting.confluent,
        "finite": finite,
        "iprime_injective": M.iprime_injective(),
    }
    code = OK
    if args.extend is not None:
        H, f = extension_from_dict(read(args.extend))
        _checked(H)
        if not is_local_morphism(D, H, f):
            pair = broken_product(D, H, f)
            results["extension"] = {"local": False, "violating_pair": None if pair is None else list(pair)}
            code = SEMANTIC
        else:
            fp = extend_local_morphism(M, H, f)
            results["extension"] = {
                "local": True,
                "objects": sorted([str(k), str(v)] for k, v in fp.obj_map.items()),
                "generators": sorted([e, fp.gen_map[e]] for e in M.presentation.generators()),
            }
    return results, code, {}


def cmd_holonomy(args, read):
    D = _load_local_data(read(args.path))
    J = germ_groupoid(D)
    N = j0(J, value_normalised=not args.paper_literal_j0)
    hol = holonomy_groupoid(J, N)
    results = {
        "germ_count": len(J.groupoid.arrows),
        "j0_count": len(N.arrows),
        "hol_arrows": len(hol.groupoid.arrows),
        "vertex_groups": {str(x): n for x, n in sorted(hol.vertex_orders().items())},
        "embedding_injective": hol.embedding_injective,
        "projection_constant": hol.projection_constant,
        "j0_normal": N.normal,
    }
    code = OK
    if not hol.projection_constant or not hol.embedding_well_defined:
        witness = hol.projection_witness
        if witness is not None:
            witness = {"class": witness[0], "values": sorted(map(str, witness[1]))}
        results["well_definedness_witness"] = witness
        code = FINDING
    outputs = {} if args.emit_dot is None else {args.emit_dot: groupoid_to_dot(hol.groupoid, name="holonomy")}
    return results, code, outputs


def cmd_extendible(args, read):
    res = check_extendible(_load_local_data(read(args.path)))
    results = {
        "extendible": res.ok,
        "failures": [[kind, str(witness)] for (kind, witness) in res.failures],
        "generator_germs": len(res.generator_germs),
        "iterated_germs": len(res.closure_germs),
        "arrow_topology_base": sorted(sorted(map(str, U)) for U in res.topology.base()),
    }
    return results, OK if res.ok else FINDING, {}


def _load_double(doc):
    if "P" in doc:
        return xmod_to_double(crossed_module_from_dict(doc))
    return commuting_squares(_checked(groupoid_from_dict(doc)))


def _transport(D) -> dict:
    bad = transport_check(D)
    return {"ok": not bad, "violations": len(bad)}


def _interchange(D) -> dict:
    rep = interchange_check(D)
    return {"ok": rep.ok, "method": rep.method, "blocks_checked": rep.blocks_checked}


def _cube_closure(D) -> dict:
    sweep = cube_closure_sweep(D)
    return {"ok": not sweep["violations"], **{k: sweep[k] for k in ("cubes", "commutative", "composites_checked")}}


DOUBLE_CHECKS = {
    "transport": _transport,
    "interchange": _interchange,
    "roundtrip": lambda D: {"ok": roundtrip_isomorphism(D)["is_isomorphism"]},
    "cube-closure": _cube_closure,
}


def cmd_double(args, read):
    D = _load_double(read(args.path))
    checks = [c.strip() for c in (args.check or "").split(",") if c.strip()]
    for check in checks:  # the whole list is refused before any check runs
        if check not in DOUBLE_CHECKS:
            raise SchemaError(f"unknown check {check!r}")
        if check == "roundtrip" and D.xmod is None:
            raise SchemaError("roundtrip check needs a crossed module input")
    results = {"kind": D.kind, "square_count": len(D.squares), "checks": {c: DOUBLE_CHECKS[c](D) for c in checks}}
    ok = all(out["ok"] for out in results["checks"].values())
    outputs = {} if args.emit_squares is None else {args.emit_squares: canonical_dumps(catalogue_to_dict(D))}
    return results, OK if ok else SEMANTIC, outputs


def cmd_cube(args, read):
    D = _load_double(read(args.path))
    cube = cube_from_dict(read(args.cube), square_catalogue(D))
    try:
        return {"commutative": is_commutative_cube(D, cube)}, OK, {}
    except GroupoidKitError as exc:
        return {"error": str(exc)}, SEMANTIC, {}


def _cmd_band(args) -> int:
    sys.stdout.write(canonical_dumps(local_data_to_dict(args.model(args.segments))))
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="groupoidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a groupoid file against the axioms")
    p.add_argument("path")
    p.set_defaults(fn=_run, cmd=cmd_validate)

    p = sub.add_parser("pushout", help="pushout of B <- A -> C presentations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--vertex-group", default=None, metavar="OBJ")
    p.set_defaults(fn=_run, cmd=cmd_pushout)

    p = sub.add_parser("vertex-group", help="spanning-tree vertex group presentation")
    p.add_argument("path")
    p.add_argument("object")
    p.set_defaults(fn=_run, cmd=cmd_vertex_group)

    p = sub.add_parser("monodromy", help="monodromy groupoid of a window")
    p.add_argument("path")
    p.add_argument("--extend", default=None, metavar="FILE")
    p.set_defaults(fn=_run, cmd=cmd_monodromy)

    p = sub.add_parser("holonomy", help="germ and holonomy groupoids of a window")
    p.add_argument("path")
    p.add_argument("--paper-literal-j0", action="store_true", dest="paper_literal_j0",
                   help="drop the identity-value normalisation from J0")
    p.add_argument("--emit-dot", default=None, metavar="PATH")
    p.set_defaults(fn=_run, cmd=cmd_holonomy)

    p = sub.add_parser("extendible", help="try to extend the window topology")
    p.add_argument("path")
    p.set_defaults(fn=_run, cmd=cmd_extendible)

    p = sub.add_parser("double", help="double groupoid checks on a groupoid or crossed module file")
    p.add_argument("path")
    p.add_argument("--check", default="", help="comma list: transport,interchange,roundtrip,cube-closure")
    p.add_argument("--emit-squares", default=None, metavar="PATH")
    p.set_defaults(fn=_run, cmd=cmd_double)

    p = sub.add_parser("cube", help="commutativity verdict for a cube file")
    p.add_argument("path", help="groupoid or crossed module file defining the squares")
    p.add_argument("cube", help="cube file with catalogue indices")
    p.set_defaults(fn=_run, cmd=cmd_cube)

    p = sub.add_parser("mobius", help="emit the twisted band model")
    p.add_argument("--segments", type=int, required=True)
    p.set_defaults(fn=_cmd_band, model=mobius_model)

    p = sub.add_parser("annulus", help="emit the straight band model")
    p.add_argument("--segments", type=int, required=True)
    p.set_defaults(fn=_cmd_band, model=annulus_model)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE
    except NotFiniteOnInstance as exc:
        print(f"not finite on this instance: {exc}", file=sys.stderr)
        return SEMANTIC
    except WellDefinednessFailure as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return FINDING
    except GroupoidKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
