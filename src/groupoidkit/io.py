"""JSON interchange for groupoids, topologies, presentations, crossed modules.

Formats (all documents are JSON objects and carry ``schema_version``):

* groupoid: ``objects`` (strings), ``arrows`` ([{id, src, tgt}]), ``inv``
  ([[g, g_inverse]]), ``comp`` ([[h, g, h_after_g]]); the identity of an
  object x is the arrow with id ``"id:" + x``.
* topology: ``points`` plus ``opens``, a family of open sets generating the
  topology (any subbase is accepted; emission always writes the minimal
  open base).
* local groupoid data: a groupoid document plus ``window`` (arrow ids),
  ``topology_w`` and ``topology_objects``.
* presentation: ``objects``, ``generators`` ([{id, src, tgt}]),
  ``relations`` ([[word, word]]); a word is {"start": object,
  "letters": [[generator, "+"|"-"], ...]} with the rightmost letter acting
  first.  Object and generator names are strings throughout.
* presentation morphism: ``objects`` ([[from, to]]) and ``generators``
  ([[generator, word]]).
* crossed module: groups ``P`` and ``M`` as {"elements": [names],
  "table": [[index]]} multiplication tables (table[i][j], an integer and
  not a boolean, indexes the product elements[i] . elements[j]), ``boundary`` ([[m, p]]) and ``action``
  ([[p, m, result]]).
* cube: {"faces": {"top": i, "bottom": i, "left": i, "right": i,
  "front": i, "back": i}} with indices into the square catalogue emitted by
  the double command; `cube_from_dict` returns them in `double._FACES`
  order, the six-index cube that every cube function of `double` takes.
"""

from __future__ import annotations

import json
from itertools import chain

from .core import FiniteGroup, FiniteGroupoid, FiniteTopology, make_groupoid, topology_from_subbase
from .double import _FACES, CrossedModule, DoubleGroupoid, Square
from .errors import SchemaError
from .presentations import (
    NEG,
    POS,
    FpGroupoid,
    LocalGroupoidData,
    WindowMap,
    Word,
    local_data,
    reflexive_graph,
)

SCHEMA_VERSION = 1


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _require(doc, key, kind, where, strings=False):
    """doc[key], checked to be a `kind`, where a JSON boolean is no int (and, with `strings`, a list of strings)."""
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}: field {key!r} has wrong type")
    for i, v in enumerate(value if strings else ()):
        if not isinstance(v, str):
            raise SchemaError(f"{where}.{key}[{i}]: expected a string")
    return value


def _name_rows(doc, key, where, shape, optional=False):
    """doc[key] as a list of rows of names shaped like `shape`, e.g. "[m, p]"."""
    rows = _require(doc, key, list, where) if key in doc or not optional else []
    n = shape.count(",") + 1
    # one pass in C over every row; the loop below only names the first bad one
    if {list} >= set(map(type, rows)) and {n} >= set(map(len, rows)):
        if {str} >= set(map(type, chain.from_iterable(rows))):
            return rows
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != n or not all(type(v) is str for v in row):
            raise SchemaError(f"{where}.{key}[{i}]: expected {shape}")
    return rows


def _edges_from(doc, key, where):
    """doc[key], a list of {id, src, tgt} objects of strings, as (id, src, tgt) triples."""
    edges = []
    for i, e in enumerate(_require(doc, key, list, where)):
        at = f"{where}.{key}[{i}]"
        edges.append((_require(e, "id", str, at), _require(e, "src", str, at), _require(e, "tgt", str, at)))
    return edges


# ---------------------------------------------------------------------------
# groupoids
# ---------------------------------------------------------------------------


def groupoid_to_dict(G: FiniteGroupoid) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "objects": sorted(map(str, G.objects)),
        "arrows": [
            {"id": a, "src": G.src[a], "tgt": G.tgt[a]} for a in sorted(G.arrows)
        ],
        "inv": [[a, G.inv[a]] for a in sorted(G.arrows)],
        "comp": sorted([h, g, hg] for (h, g), hg in G.comp.items()),
    }


def groupoid_from_dict(doc: dict) -> FiniteGroupoid:
    objects = _require(doc, "objects", list, "groupoid", strings=True)
    edges = _edges_from(doc, "arrows", "groupoid")
    arrows = [a for a, _, _ in edges]
    src, tgt = {a: x for a, x, _ in edges}, {a: y for a, _, y in edges}
    id_of = {}
    for x in objects:
        ident = f"id:{x}"
        if ident not in src:
            raise SchemaError(f"groupoid: no identity arrow {ident!r}")
        id_of[x] = ident
    inv = dict(_name_rows(doc, "inv", "groupoid", "[arrow, inverse]"))
    comp = {(h, g): hg for h, g, hg in _name_rows(doc, "comp", "groupoid", "[h, g, h_after_g]")}
    return make_groupoid(objects, arrows, src, tgt, id_of, inv, comp)


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


def topology_to_dict(T: FiniteTopology) -> dict:
    return {
        "points": sorted(map(str, T.points)),
        "opens": sorted(sorted(map(str, U)) for U in T.base()),
    }


def topology_from_dict(doc: dict, where="topology") -> FiniteTopology:
    points = _require(doc, "points", list, where, strings=True)
    pset = set(points)
    opens = _require(doc, "opens", list, where)
    for i, U in enumerate(opens):
        if not isinstance(U, list):
            raise SchemaError(f"{where}.opens[{i}]: expected a list of points")
        for p in U:
            if not isinstance(p, str) or p not in pset:
                raise SchemaError(f"{where}.opens[{i}]: unknown point {p!r}")
    return topology_from_subbase(points, [frozenset(U) for U in opens])


# ---------------------------------------------------------------------------
# local groupoid data
# ---------------------------------------------------------------------------


def local_data_to_dict(D: LocalGroupoidData) -> dict:
    doc = groupoid_to_dict(D.G)
    doc["window"] = sorted(D.window)
    doc["topology_w"] = topology_to_dict(D.t_window)
    doc["topology_objects"] = topology_to_dict(D.t_objects)
    return doc


def extension_from_dict(doc: dict) -> tuple[FiniteGroupoid, WindowMap]:
    """The target groupoid and the window map of a `monodromy --extend` file."""
    H = groupoid_from_dict(_require(doc, "target", dict, "extension"))
    objects = _name_rows(doc, "objects", "extension", "[object, image]", optional=True)
    arrows = _name_rows(doc, "arrows", "extension", "[arrow, image]", optional=True)
    return H, WindowMap(dict(objects), dict(arrows))


def local_data_from_dict(doc: dict, G: FiniteGroupoid | None = None) -> LocalGroupoidData:
    """Local data read from `doc`; `G`, when given, is `doc`'s groupoid already read."""
    G = groupoid_from_dict(doc) if G is None else G
    window = _require(doc, "window", list, "local data", strings=True)
    t_w = topology_from_dict(_require(doc, "topology_w", dict, "local data"), "topology_w")
    t_obj = None
    if "topology_objects" in doc:
        t_obj = topology_from_dict(_require(doc, "topology_objects", dict, "local data"), "topology_objects")
    return local_data(G, window, t_w, t_obj)


# ---------------------------------------------------------------------------
# presentations and words
# ---------------------------------------------------------------------------


def word_to_dict(w: Word) -> dict:
    return {
        "start": w.start,
        "letters": [[e, "+" if s == POS else "-"] for (e, s) in w.letters],
    }


def word_from_dict(doc: dict, where="word") -> Word:
    start = _require(doc, "start", str, where)
    shape = "[generator, '+'|'-']"
    letters = []
    for i, (e, sign) in enumerate(_name_rows(doc, "letters", where, shape)):
        if sign not in ("+", "-"):
            raise SchemaError(f"{where}.letters[{i}]: expected {shape}")
        letters.append((e, POS if sign == "+" else NEG))
    return Word(start, tuple(letters))


def presentation_to_dict(P: FpGroupoid) -> dict:
    graph = P.graph
    return {
        "schema_version": SCHEMA_VERSION,
        "objects": sorted(map(str, graph.objects)),
        "generators": [
            {"id": e, "src": graph.src[e], "tgt": graph.tgt[e]}
            for e in sorted(P.generators())
        ],
        "relations": [
            [word_to_dict(w1), word_to_dict(w2)] for (w1, w2) in P.relations
        ],
    }


def presentation_from_dict(doc: dict) -> FpGroupoid:
    objects = _require(doc, "objects", list, "presentation", strings=True)
    graph = reflexive_graph(objects, _edges_from(doc, "generators", "presentation"))
    relations = []
    for i, pair in enumerate(_require(doc, "relations", list, "presentation") if "relations" in doc else ()):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"presentation.relations[{i}]: expected [word, word]")
        relations.append(
            (
                word_from_dict(pair[0], f"presentation.relations[{i}][0]"),
                word_from_dict(pair[1], f"presentation.relations[{i}][1]"),
            )
        )
    return FpGroupoid(graph, tuple(relations))


def morphism_from_dict(doc: dict, source: FpGroupoid, target: FpGroupoid):
    from .colimits import PresentationMorphism

    obj_map = dict(_name_rows(doc, "objects", "morphism", "[from, to]"))
    gen_map = {}
    for i, pair in enumerate(_require(doc, "generators", list, "morphism") if "generators" in doc else ()):
        if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
            raise SchemaError(f"morphism.generators[{i}]: expected [generator, word]")
        gen_map[pair[0]] = word_from_dict(pair[1], f"morphism.generators[{i}]")
    return PresentationMorphism(source, target, obj_map, gen_map)


# ---------------------------------------------------------------------------
# groups and crossed modules
# ---------------------------------------------------------------------------


def group_from_dict(doc: dict, where="group") -> FiniteGroup:
    names = _require(doc, "elements", list, where, strings=True)
    table = _require(doc, "table", list, where)
    n = len(names)
    if len(set(names)) != n:
        raise SchemaError(f"{where}: duplicate element names")
    if len(table) != n or any(not isinstance(row, list) or len(row) != n for row in table):
        raise SchemaError(f"{where}: table must be {n}x{n}")
    mul = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            k = table[i][j]
            if type(k) is not int or not 0 <= k < n:
                raise SchemaError(f"{where}: table[{i}][{j}] out of range")
            mul[(a, b)] = names[k]
    ident = doc.get("identity")
    if ident is None:
        ident = next((a for a in names if all(mul[(a, b)] == b == mul[(b, a)] for b in names)), None)
    if ident not in names:
        raise SchemaError(f"{where}: no identity element")
    inv = {}
    for a in names:
        for b in names:
            if mul[(a, b)] == ident and mul[(b, a)] == ident:
                inv[a] = b
                break
        else:
            raise SchemaError(f"{where}: element {a!r} has no inverse")
    return FiniteGroup(tuple(names), mul, ident, inv)


def crossed_module_from_dict(doc: dict) -> CrossedModule:
    P = group_from_dict(_require(doc, "P", dict, "crossed module"), "P")
    M = group_from_dict(_require(doc, "M", dict, "crossed module"), "M")
    boundary = dict(_name_rows(doc, "boundary", "crossed module", "[m, p]"))
    action = {(p, m): pm for p, m, pm in _name_rows(doc, "action", "crossed module", "[p, m, result]")}
    return CrossedModule(P, M, boundary, action)


# ---------------------------------------------------------------------------
# squares and cubes
# ---------------------------------------------------------------------------


def square_catalogue(D: DoubleGroupoid) -> list[Square]:
    return list(D.tables.squares)


def square_to_dict(u: Square) -> dict:
    doc = {"top": u.top, "right": u.right, "left": u.left, "bottom": u.bottom}
    if u.filler is not None:
        doc["filler"] = str(u.filler)
    return doc


def catalogue_to_dict(D: DoubleGroupoid) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "squares": [square_to_dict(u) for u in square_catalogue(D)],
    }


def cube_from_dict(doc: dict, catalogue: list[Square]) -> tuple:
    """The cube file's six catalogue indices, in `_FACES` order."""
    faces = _require(doc, "faces", dict, "cube")
    cube = []
    for name in _FACES:
        idx = _require(faces, name, int, "cube.faces")
        if not 0 <= idx < len(catalogue):
            raise SchemaError(f"cube.faces.{name}: index {idx} out of range")
        cube.append(idx)
    return tuple(cube)


# ---------------------------------------------------------------------------
# DOT emission
# ---------------------------------------------------------------------------


def groupoid_to_dot(G: FiniteGroupoid, name="G") -> str:
    lines = [f"digraph {json.dumps(name)} {{"]
    for x in sorted(map(str, G.objects)):
        lines.append(f"  {json.dumps(x)};")
    for a in sorted(G.arrows):
        lines.append(
            f"  {json.dumps(str(G.src[a]))} -> {json.dumps(str(G.tgt[a]))}"
            f" [label={json.dumps(str(a))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
