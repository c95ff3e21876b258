"""Per-layer spans for the traced run, recorded from outside the package.

`Tracer.install` replaces the module attributes through which the command
line, the other layers and the benchmark call each layer's public
functions with wrappers that record a span: name, start, end, parent span
and job id.  `Tracer.remove` puts every original back.  Counts are derived
from the wrapped calls' arguments and return values after each pass, so
their cost falls outside every span.

A ``_ms`` metric is the summed duration of the outermost spans of its name
in a pass, or, for the metrics marked ``self``, the summed self time: the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

from groupoidkit import bisections, germs

# ---------------------------------------------------------------------------
# counts, computed from public arguments and return values
# ---------------------------------------------------------------------------


def _text_bytes(args, kwargs, result):
    return {"io.parse_bytes": len(args[0].encode())}


def _file_bytes(args, kwargs, result):
    return {"io.parse_bytes": os.path.getsize(args[0])}


def _emit_bytes(args, kwargs, result):
    """Bytes written, not counting the digits of a manifest's elapsed time."""
    doc = args[0]
    timing = len(str(doc["timing_ms"])) if isinstance(doc, dict) and "timing_ms" in doc else 0
    return {"io.emit_bytes": len(result.encode()) - timing}


def _validate_counts(args, kwargs, result):
    return {"core.validate_groupoid_arrows": len(args[0].arrows)}


def _subbase_counts(args, kwargs, result):
    return {"core.subbase_sets": len(args[1])}


def _monodromy_counts(args, kwargs, result):
    rules = result.rewriting.pair_rules
    # an overlap [u][v][w] is a pair of rules (u, v) and (v, w)
    starting = {}
    for (u, _) in rules:
        starting[u] = starting.get(u, 0) + 1
    return {
        "presentations.rules": len(rules),
        "presentations.critical_pairs": sum(starting.get(v, 0) for (_, v) in rules),
        "presentations.nonconfluent": 0 if result.rewriting.confluent else 1,
    }


def _monodromy_groupoid_counts(args, kwargs, result):
    return {"presentations.monodromy_arrows": len(result[0].arrows)}


def _relator_counts(args, kwargs, result):
    return {"colimits.relators": len(result.relators)}


def _kb_counts(args, kwargs, result):
    return {"rewriting.rules": len(result.rules)}


def _element_counts(args, kwargs, result):
    return {"rewriting.elements": len(result)}


def _w_bisection_counts(args, kwargs, result):
    return {"bisections.w_bisections_count": len(result)}


def _semigroup_counts(args, kwargs, result):
    """Closure work of `generate_semigroup`.

    The closure starts from the seeds and their relative inverses and
    multiplies every element it reaches by every seed exactly once, so it
    attempts |closure| x |seeds| products, of which |closure| - |seeds| are new.
    """
    G, gens = args[0], args[1]
    seed = set(gens) | {bisections.relative_inverse(G, s) for s in gens}
    n = len(result.elements)
    return {
        "bisections.semigroup_elements": n,
        "bisections.semigroup_products": n * len(seed),
        "bisections.semigroup_new": n - len(seed),
    }


def _window_germ_counts(args, kwargs, result):
    return {"germs.window_germ_count": len(result)}


def _germ_closure_counts(args, kwargs, result):
    """Closure work of `germ_closure`.

    Every germ reached is composed once with each generator germ based at
    its target; the germs beyond the generators are the new products.
    """
    D = args[0]
    gens, closure = result
    at_base = {}
    for g in gens:
        at_base[g.base] = at_base.get(g.base, 0) + 1
    return {
        "germs.closure_size": len(closure),
        "germs.closure_products": sum(at_base.get(germs.germ_target(D, c), 0) for c in closure),
        "germs.closure_new": len(closure) - len(set(gens)),
    }


def _germ_groupoid_counts(args, kwargs, result):
    return {"holonomy.germ_arrows": len(result.groupoid.arrows)}


def _hol_counts(args, kwargs, result):
    return {"holonomy.hol_arrows": len(result.groupoid.arrows)}


def _build_counts(args, kwargs, result):
    return {"double.squares": len(result.squares)}


def _cube_counts(args, kwargs, result):
    return {"double.cubes": len(result)}


def _sweep_counts(args, kwargs, result):
    return {
        "double.composites_checked": result["composites_checked"],
        "double.sweep_cubes": result["cubes"],
        "double.sweep_commutative": result["commutative"],
    }


# ---------------------------------------------------------------------------
# what is wrapped: span name, count function, and "module:attribute" targets
# ---------------------------------------------------------------------------

GK = "groupoidkit."
BENCH = "workloads"

TARGETS = [
    ("cli.main", None, ["cli:main"]),
    ("io.parse", _text_bytes, [f"{BENCH}:read_doc"]),
    ("io.parse", _file_bytes, ["cli:_read_json"]),
    ("io.parse", None, [
        "cli:groupoid_from_dict", "cli:local_data_from_dict", "cli:presentation_from_dict",
        "cli:morphism_from_dict", "cli:crossed_module_from_dict", "cli:cube_from_dict",
        "io:groupoid_from_dict", "io:local_data_from_dict", "io:presentation_from_dict",
        "io:morphism_from_dict", "io:crossed_module_from_dict",
    ]),
    ("io.emit", _emit_bytes, ["cli:canonical_dumps", "cli:groupoid_to_dot"]),
    ("io.emit", None, ["cli:local_data_to_dict", "cli:catalogue_to_dict", "cli:presentation_to_dict"]),
    ("core.validate_groupoid", _validate_counts, [
        "cli:validate_groupoid", "holonomy:validate_groupoid", "core:validate_groupoid"]),
    ("core.topology_from_subbase", _subbase_counts, [
        "holonomy:topology_from_subbase", "bisections:topology_from_subbase"]),
    ("presentations.monodromy", _monodromy_counts, [
        "cli:monodromy", "holonomy:monodromy", "presentations:monodromy"]),
    ("presentations.monodromy_groupoid", _monodromy_groupoid_counts, [
        "holonomy:monodromy_groupoid", "presentations:monodromy_groupoid"]),
    ("presentations.extend_local_morphism", None, [
        "cli:extend_local_morphism", "presentations:extend_local_morphism"]),
    ("colimits.pushout", None, ["cli:pushout", "colimits:pushout"]),
    ("colimits.vertex_group_presentation", _relator_counts, [
        "cli:vertex_group_presentation", "colimits:vertex_group_presentation"]),
    ("rewriting.knuth_bendix", _kb_counts, ["colimits:knuth_bendix"]),
    ("rewriting.enumerate_elements", _element_counts, ["colimits:enumerate_elements"]),
    ("bisections.w_bisections", _w_bisection_counts, ["bisections:w_bisections"]),
    ("bisections.generate_semigroup", _semigroup_counts, ["bisections:generate_semigroup"]),
    ("bisections.inverse_semigroup_laws", None, ["bisections:inverse_semigroup_laws"]),
    ("bisections.check_extendible", None, ["cli:check_extendible", "bisections:check_extendible"]),
    ("germs.window_germs", _window_germ_counts, [
        "germs:window_germs", "bisections:window_germs", "holonomy:window_germs"]),
    ("germs.germ_closure", _germ_closure_counts, [
        "cli:germ_closure", "germs:germ_closure", "bisections:germ_closure", "holonomy:germ_closure"]),
    ("holonomy.germ_groupoid", _germ_groupoid_counts, ["cli:germ_groupoid", "holonomy:germ_groupoid"]),
    ("holonomy.j0", None, ["cli:j0", "holonomy:j0"]),
    ("holonomy.holonomy_groupoid", _hol_counts, ["cli:holonomy_groupoid", "holonomy:holonomy_groupoid"]),
    ("holonomy.holonomy_topology", None, ["holonomy:holonomy_topology"]),
    ("holonomy.chart", None, ["holonomy:chart"]),
    ("double.build", _build_counts, [
        "cli:xmod_to_double", "cli:commuting_squares", "double:xmod_to_double", "double:commuting_squares"]),
    ("double.transport_check", None, ["cli:transport_check", "double:transport_check"]),
    ("double.interchange_check", None, ["cli:interchange_check", "double:interchange_check"]),
    ("double.roundtrip_isomorphism", None, ["cli:roundtrip_isomorphism", "double:roundtrip_isomorphism"]),
    ("double.square_tables", None, ["double:square_tables"]),
    ("double.enumerate_cubes", _cube_counts, ["double:enumerate_cubes"]),
    ("double.cube_closure_sweep", _sweep_counts, ["cli:cube_closure_sweep", "double:cube_closure_sweep"]),
]

# Per-layer metrics: (name, unit, better, kind, source).  Kinds: "total" and
# "self" sum span times, "calls" counts spans, "count" sums a computed
# count, "ratio" divides two summed counts.
METRICS = [
    ("io.parse_ms", "ms", "lower", "total", "io.parse"),
    ("io.parse_bytes", "bytes", "lower", "count", "io.parse_bytes"),
    ("io.emit_ms", "ms", "lower", "total", "io.emit"),
    ("io.emit_bytes", "bytes", "lower", "count", "io.emit_bytes"),
    ("cli.self_ms", "ms", "lower", "self", "cli.main"),
    ("core.validate_groupoid_ms", "ms", "lower", "total", "core.validate_groupoid"),
    ("core.validate_groupoid_arrows", "count", "lower", "count", "core.validate_groupoid_arrows"),
    ("core.topology_from_subbase_ms", "ms", "lower", "total", "core.topology_from_subbase"),
    ("core.subbase_sets", "count", "lower", "count", "core.subbase_sets"),
    ("presentations.monodromy_ms", "ms", "lower", "total", "presentations.monodromy"),
    ("presentations.rules", "count", "lower", "count", "presentations.rules"),
    ("presentations.critical_pairs", "count", "lower", "count", "presentations.critical_pairs"),
    ("presentations.nonconfluent", "count", "lower", "count", "presentations.nonconfluent"),
    ("presentations.monodromy_groupoid_ms", "ms", "lower", "total", "presentations.monodromy_groupoid"),
    ("presentations.monodromy_arrows", "count", "lower", "count", "presentations.monodromy_arrows"),
    ("presentations.extend_local_morphism_ms", "ms", "lower", "total", "presentations.extend_local_morphism"),
    ("colimits.pushout_ms", "ms", "lower", "total", "colimits.pushout"),
    ("colimits.vertex_group_presentation_ms", "ms", "lower", "total", "colimits.vertex_group_presentation"),
    ("colimits.relators", "count", "lower", "count", "colimits.relators"),
    ("rewriting.knuth_bendix_ms", "ms", "lower", "total", "rewriting.knuth_bendix"),
    ("rewriting.rules", "count", "lower", "count", "rewriting.rules"),
    ("rewriting.enumerate_elements_ms", "ms", "lower", "total", "rewriting.enumerate_elements"),
    ("rewriting.elements", "count", "lower", "count", "rewriting.elements"),
    ("bisections.w_bisections_ms", "ms", "lower", "total", "bisections.w_bisections"),
    ("bisections.w_bisections_count", "count", "lower", "count", "bisections.w_bisections_count"),
    ("bisections.generate_semigroup_ms", "ms", "lower", "total", "bisections.generate_semigroup"),
    ("bisections.semigroup_elements", "count", "lower", "count", "bisections.semigroup_elements"),
    ("bisections.semigroup_products", "count", "lower", "count", "bisections.semigroup_products"),
    ("bisections.semigroup_new_ratio", "ratio", "higher", "ratio",
     ("bisections.semigroup_new", "bisections.semigroup_products")),
    ("bisections.inverse_semigroup_laws_ms", "ms", "lower", "total", "bisections.inverse_semigroup_laws"),
    ("bisections.caps_hit", "count", "lower", "count", "bisections.caps_hit"),
    ("bisections.check_extendible_ms", "ms", "lower", "self", "bisections.check_extendible"),
    ("germs.window_germs_ms", "ms", "lower", "total", "germs.window_germs"),
    ("germs.window_germ_count", "count", "lower", "count", "germs.window_germ_count"),
    ("germs.germ_closure_ms", "ms", "lower", "total", "germs.germ_closure"),
    ("germs.closure_size", "count", "lower", "count", "germs.closure_size"),
    ("germs.closure_products", "count", "lower", "count", "germs.closure_products"),
    ("germs.closure_new_ratio", "ratio", "higher", "ratio", ("germs.closure_new", "germs.closure_products")),
    ("holonomy.germ_groupoid_ms", "ms", "lower", "self", "holonomy.germ_groupoid"),
    ("holonomy.germ_arrows", "count", "lower", "count", "holonomy.germ_arrows"),
    ("holonomy.j0_ms", "ms", "lower", "total", "holonomy.j0"),
    ("holonomy.holonomy_groupoid_ms", "ms", "lower", "total", "holonomy.holonomy_groupoid"),
    ("holonomy.hol_arrows", "count", "lower", "count", "holonomy.hol_arrows"),
    ("holonomy.holonomy_topology_ms", "ms", "lower", "self", "holonomy.holonomy_topology"),
    ("holonomy.chart_ms", "ms", "lower", "total", "holonomy.chart"),
    ("holonomy.chart_calls", "count", "lower", "calls", "holonomy.chart"),
    ("double.build_ms", "ms", "lower", "total", "double.build"),
    ("double.squares", "count", "lower", "count", "double.squares"),
    ("double.transport_check_ms", "ms", "lower", "total", "double.transport_check"),
    ("double.interchange_check_ms", "ms", "lower", "total", "double.interchange_check"),
    ("double.roundtrip_isomorphism_ms", "ms", "lower", "total", "double.roundtrip_isomorphism"),
    ("double.square_tables_ms", "ms", "lower", "total", "double.square_tables"),
    ("double.enumerate_cubes_ms", "ms", "lower", "total", "double.enumerate_cubes"),
    ("double.cubes", "count", "lower", "count", "double.cubes"),
    ("double.cube_closure_sweep_ms", "ms", "lower", "self", "double.cube_closure_sweep"),
    ("double.composites_checked", "count", "lower", "count", "double.composites_checked"),
    ("double.commutative_ratio", "ratio", "higher", "ratio", ("double.sweep_commutative", "double.sweep_cubes")),
]

# The traced run's own numbers: untraced and traced batch_s, and their ratio.
OVERHEAD_METRICS = [
    ("trace.untraced_batch_s", "s", "lower"),
    ("trace.traced_batch_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _resolve(target):
    module_name, attr = target.split(":")
    name = module_name if module_name == BENCH else GK + module_name
    return sys.modules.get(name) or importlib.import_module(name), attr


class Tracer:
    """Span recorder; spans stay in memory until the run writes them out.

    A span is a list [name, start, end, parent index or None, job id].
    """

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []
        self._pending: list = []
        self._saved: list = []  # (module, attribute, original)
        self.missing: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except OverflowError:
                pending.append((rec, _caps_hit, args, kwargs, None))
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                pending.append((rec, count, args, kwargs, result))
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def install(self):
        """Wrap every target; spans recorded until `remove` go to a fresh list."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        self.spans = []
        self.missing = []
        for name, count, targets in TARGETS:
            for target in targets:
                module, attr = _resolve(target)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(target)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- spans --------------------------------------------------------------

    def job_span(self, job_id):
        """Context manager for the root span of one job."""
        return _JobSpan(self, job_id)

    def take_counts(self) -> dict:
        """Evaluate the counts of the spans recorded since the last call."""
        out: dict = {}
        for rec, count, args, kwargs, result in self._pending:
            for key, value in count(args, kwargs, result).items():
                out[key] = out.get(key, 0) + value
        self._pending.clear()
        return out


def _caps_hit(args, kwargs, result):
    return {"bisections.caps_hit": 1}


class _JobSpan:
    def __init__(self, tracer, job_id):
        self.tracer, self.job_id = tracer, job_id

    def __enter__(self):
        t = self.tracer
        t.job = self.job_id
        self.rec = ["job", 0.0, 0.0, None, self.job_id]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.job = None
        return False


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer values for one pass from its spans and computed counts."""
    selfs = self_times(spans)
    total, own, calls = {}, {}, {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + selfs[i]
        # outermost span of its name: no ancestor carries the same name
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            total[name] = total.get(name, 0.0) + (end - start)
    out = {}
    for name, unit, _, kind, source in METRICS:
        if kind == "total":
            out[name] = total.get(source, 0.0) * 1000
        elif kind == "self":
            out[name] = own.get(source, 0.0) * 1000
        elif kind == "calls":
            out[name] = calls.get(source, 0)
        elif kind == "count":
            out[name] = counts.get(source, 0)
        else:
            num, den = counts.get(source[0], 0), counts.get(source[1], 0)
            out[name] = num / den if den else 0.0
    return out
