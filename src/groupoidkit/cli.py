"""Command line for groupoidkit.

Every command prints one canonical JSON manifest to stdout: command name,
input digests, tool version, a ``results`` object (byte-stable across runs
with identical inputs) and the elapsed time.  Exit codes: 0 success,
1 semantic failure, 2 parse failure, 3 diagnostic finding.
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
    WindowMap,
    broken_product,
    extend_local_morphism,
    is_local_morphism,
    monodromy,
    monodromy_is_finite,
)

OK, SEMANTIC, PARSE, FINDING = 0, 1, 2, 3


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _emit(command: str, paths: list[str], results: dict, started: float) -> None:
    manifest = {
        "schema_version": 1,
        "tool": {"name": "groupoidkit", "version": __version__},
        "command": command,
        "inputs": [{"path": p, "sha256": _digest(p)} for p in paths],
        "results": results,
        "timing_ms": int((time.time() - started) * 1000),
    }
    sys.stdout.write(canonical_dumps(manifest))


def cmd_validate(args) -> int:
    started = time.time()
    G = groupoid_from_dict(_read_json(args.path))
    report = validate_groupoid(G)
    results = {
        "valid": report.ok,
        "violations": [
            {"rule": v.rule, "witness": [str(w) for w in v.witness], "message": v.message}
            for v in report.violations
        ],
    }
    _emit("validate", [args.path], results, started)
    return OK if report.ok else SEMANTIC


def cmd_pushout(args) -> int:
    started = time.time()
    A = presentation_from_dict(_read_json(args.a))
    B = presentation_from_dict(_read_json(args.b))
    C = presentation_from_dict(_read_json(args.c))
    f = morphism_from_dict(_read_json(args.f), A, B)
    g = morphism_from_dict(_read_json(args.g), A, C)
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
        pres = vertex_group_presentation(out.apex, args.vertex_group)
        results["vertex_group"] = {
            "object": args.vertex_group,
            "generators": list(pres.generators),
            "relators": [[[e, "+" if s == POS else "-"] for (e, s) in r] for r in pres.relators],
        }
    _emit("pushout", [args.a, args.b, args.c, args.f, args.g], results, started)
    return OK


def cmd_vertex_group(args) -> int:
    started = time.time()
    P = presentation_from_dict(_read_json(args.path))
    pres = vertex_group_presentation(P, args.object)
    results = {
        "object": args.object,
        "generators": list(pres.generators),
        "relators": [[[e, "+" if s == POS else "-"] for (e, s) in r] for r in pres.relators],
    }
    _emit("vertex-group", [args.path], results, started)
    return OK


def cmd_monodromy(args) -> int:
    started = time.time()
    D = local_data_from_dict(_read_json(args.path))
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
    inputs = [args.path]
    if args.extend is not None:
        doc = _read_json(args.extend)
        inputs.append(args.extend)
        H = groupoid_from_dict(doc.get("target", {}))
        obj_map = {a: b for a, b in doc.get("objects", [])}
        arrow_map = {a: b for a, b in doc.get("arrows", [])}
        f = WindowMap(obj_map, arrow_map)
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
    _emit("monodromy", inputs, results, started)
    return code


def cmd_holonomy(args) -> int:
    started = time.time()
    D = local_data_from_dict(_read_json(args.path))
    J = germ_groupoid(D)
    N = j0(J, value_normalised=not args.paper_literal_j0)
    hol = holonomy_groupoid(J, N, strict=False)
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
    _emit("holonomy", [args.path], results, started)
    if args.emit_dot is not None:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(groupoid_to_dot(hol.groupoid, name="holonomy"))
    return code


def cmd_extendible(args) -> int:
    started = time.time()
    D = local_data_from_dict(_read_json(args.path))
    res = check_extendible(D)
    results = {
        "extendible": res.ok,
        "failures": [[kind, str(witness)] for (kind, witness) in res.failures],
        "generator_germs": len(res.generator_germs),
        "iterated_germs": len(res.closure_germs),
        "arrow_topology_base": sorted(sorted(map(str, U)) for U in res.topology.base()),
    }
    _emit("extendible", [args.path], results, started)
    return OK if res.ok else FINDING


def _load_double(doc):
    if "P" in doc:
        X = crossed_module_from_dict(doc)
        return xmod_to_double(X), X
    G = groupoid_from_dict(doc)
    report = validate_groupoid(G)
    if not report.ok:
        raise NotAGroupoid(f"not a groupoid: {report.violations[0]}")
    return commuting_squares(G), None


def cmd_double(args) -> int:
    started = time.time()
    doc = _read_json(args.path)
    D, X = _load_double(doc)
    checks = [c.strip() for c in (args.check or "").split(",") if c.strip()]
    results = {"kind": D.kind, "square_count": len(D.squares), "checks": {}}
    ok = True
    for check in checks:
        if check == "transport":
            bad = transport_check(D)
            results["checks"]["transport"] = {"ok": not bad, "violations": len(bad)}
            ok &= not bad
        elif check == "interchange":
            rep = interchange_check(D)
            results["checks"]["interchange"] = {
                "ok": rep.ok,
                "method": rep.method,
                "blocks_checked": rep.blocks_checked,
            }
            ok &= rep.ok
        elif check == "roundtrip":
            if X is None:
                raise SchemaError("roundtrip check needs a crossed module input")
            out = roundtrip_isomorphism(X)
            results["checks"]["roundtrip"] = {"ok": out["is_isomorphism"]}
            ok &= out["is_isomorphism"]
        elif check == "cube-closure":
            sweep = cube_closure_sweep(D)
            results["checks"]["cube-closure"] = {
                "ok": not sweep["violations"],
                "cubes": sweep["cubes"],
                "commutative": sweep["commutative"],
                "composites_checked": sweep["composites_checked"],
            }
            ok &= not sweep["violations"]
        else:
            raise SchemaError(f"unknown check {check!r}")
    if args.emit_squares is not None:
        with open(args.emit_squares, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(catalogue_to_dict(D)))
    _emit("double", [args.path], results, started)
    return OK if ok else SEMANTIC


def cmd_cube(args) -> int:
    started = time.time()
    D, _ = _load_double(_read_json(args.path))
    cube_doc = _read_json(args.cube)
    cube = cube_from_dict(cube_doc, square_catalogue(D))
    try:
        verdict = is_commutative_cube(D, cube)
    except GroupoidKitError as exc:
        _emit("cube", [args.path, args.cube], {"error": str(exc)}, started)
        return SEMANTIC
    _emit("cube", [args.path, args.cube], {"commutative": verdict}, started)
    return OK


def _cmd_band(args, model) -> int:
    D = model(args.segments)
    sys.stdout.write(canonical_dumps(local_data_to_dict(D)))
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="groupoidkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a groupoid file against the axioms")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("pushout", help="pushout of B <- A -> C presentations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--vertex-group", default=None, metavar="OBJ")
    p.set_defaults(fn=cmd_pushout)

    p = sub.add_parser("vertex-group", help="spanning-tree vertex group presentation")
    p.add_argument("path")
    p.add_argument("object")
    p.set_defaults(fn=cmd_vertex_group)

    p = sub.add_parser("monodromy", help="monodromy groupoid of a window")
    p.add_argument("path")
    p.add_argument("--extend", default=None, metavar="FILE")
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("holonomy", help="germ and holonomy groupoids of a window")
    p.add_argument("path")
    p.add_argument("--paper-literal-j0", action="store_true", dest="paper_literal_j0",
                   help="drop the identity-value normalisation from J0")
    p.add_argument("--emit-dot", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("extendible", help="try to extend the window topology")
    p.add_argument("path")
    p.set_defaults(fn=cmd_extendible)

    p = sub.add_parser("double", help="double groupoid checks on a groupoid or crossed module file")
    p.add_argument("path")
    p.add_argument("--check", default="", help="comma list: transport,interchange,roundtrip,cube-closure")
    p.add_argument("--emit-squares", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("cube", help="commutativity verdict for a cube file")
    p.add_argument("path", help="groupoid or crossed module file defining the squares")
    p.add_argument("cube", help="cube file with catalogue indices")
    p.set_defaults(fn=cmd_cube)

    p = sub.add_parser("mobius", help="emit the twisted band model")
    p.add_argument("--segments", type=int, required=True)
    p.set_defaults(fn=lambda args: _cmd_band(args, mobius_model))

    p = sub.add_parser("annulus", help="emit the straight band model")
    p.add_argument("--segments", type=int, required=True)
    p.set_defaults(fn=lambda args: _cmd_band(args, annulus_model))

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
