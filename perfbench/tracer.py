"""Outside-in tracer for symclass.

The tracer wraps every public function and method of the package's modules
at every place it is bound (module globals, package re-exports, and the
dispatch tables that hold constructors), so a call made through
``symclass.claims.classify_pair`` is traced as well as one made through
``symclass.classify.classify_pair``. Each call becomes one span: name, layer,
start, end, parent span and op id. Spans stay in memory, packed in arrays,
and are written out once at the end.

Nothing here touches the package's source; the wrapping happens at run time
in the process that imports it.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
import time
import types
from array import array
from collections import Counter

from oracle import CLAIM_IDS

LAYERS = ("perm", "group", "actions", "subgroups", "graphs", "graph6",
          "families", "autgroup", "classify", "claims", "cli")

# Dunders that are part of the public API. Hashing, comparison and repr are
# left alone: the interpreter calls them from inside dict and sort operations
# at rates that would measure the tracer instead of the program.
_PUBLIC_DUNDERS = frozenset({"__init__", "__mul__", "__pow__", "__call__", "__contains__"})


class Tracer:
    """Span store plus the wrapper factory.

    ``clock`` is injectable so the self-time arithmetic can be tested on
    synthetic spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        # counts and times that a span alone cannot carry (items returned,
        # per-claim time), filled by hooks after a call returns
        self.extra: Counter = Counter()
        self.chain_groups: set = set()

    def _intern(self, name: str, layer: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.name_id[name] = nid
        return nid

    def wrap(self, fn, name: str, layer: str, hook=None):
        nid = self._intern(name, layer)
        clock = self.clock
        stack = self.stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, i, args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def __len__(self) -> int:
        return len(self.span_name)

    def write_spans(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\top\tlayer\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                nid = self.span_name[i]
                out.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                          f"{self.layer_of[nid]}\t{self.names[nid]}\t"
                          f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


@dataclasses.dataclass
class Aggregate:
    """Per-layer self time, per-name call counts, and the time covered by the
    outermost spans of each named group of span names."""

    self_s: dict
    calls: dict
    covered_s: dict
    within: dict


def aggregate(tracer: Tracer, groups: dict, within=()) -> Aggregate:
    """One pass over the spans, parents before children.

    A layer's self time is the summed duration of its spans minus the summed
    duration of their direct children; children of one span never overlap
    (one thread), so that is the time not covered by child spans.
    ``groups`` maps a group label to a set of span names; ``covered_s`` is
    the time inside spans of the group that have no ancestor in the group.
    ``within`` lists ``(name, group)`` pairs whose calls made inside a span
    of the group are counted.
    """
    bit = {label: 1 << k for k, label in enumerate(groups)}
    name_mask = [0] * len(tracer.names)
    for label, members in groups.items():
        for name in members:
            nid = tracer.name_id.get(name)
            if nid is not None:
                name_mask[nid] |= bit[label]
    within_ids = {}
    for name, label in within:
        nid = tracer.name_id.get(name)
        if nid is not None:
            within_ids[nid] = (name, label, bit[label])

    layer_of = tracer.layer_of
    span_name, span_parent = tracer.span_name, tracer.span_parent
    starts, ends = tracer.span_start, tracer.span_end
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = [0] * len(tracer.names)
    covered = dict.fromkeys(groups, 0.0)
    within_counts = {(name, label): 0 for name, label in within}
    masks = [0] * len(span_name)
    for i in range(len(span_name)):
        nid = span_name[i]
        d = ends[i] - starts[i]
        calls[nid] += 1
        self_s[layer_of[nid]] += d
        p = span_parent[i]
        if p >= 0:
            pid = span_name[p]
            self_s[layer_of[pid]] -= d
            m = masks[p] | name_mask[pid]
            masks[i] = m
        else:
            m = 0
        fresh = name_mask[nid] & ~m
        if fresh:
            for label, b in bit.items():
                if fresh & b:
                    covered[label] += d
        hit = within_ids.get(nid)
        if hit is not None and m & hit[2]:
            within_counts[(hit[0], hit[1])] += 1
    return Aggregate(
        self_s=self_s,
        calls={tracer.names[k]: c for k, c in enumerate(calls)},
        covered_s=covered,
        within=within_counts,
    )


# -- installing the wrappers on symclass ---------------------------------------


def _count_items(key):
    def hook(tracer, i, args, kwargs, result):
        tracer.extra[key] += len(result)
    return hook


def _claim_time(tracer, i, args, kwargs, result):
    tracer.extra[f"claims.{result.claim}_s"] += tracer.span_end[i] - tracer.span_start[i]


def _chain_group(tracer, i, args, kwargs, result):
    # a group is identified by its degree and generating set, so a chain
    # rebuilt for the same generators (a stabilizer chain with a new base
    # prefix, or a re-parsed group) counts against the same group
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    gens = args[2] if len(args) > 2 else kwargs.get("generators", ())
    if isinstance(gens, (list, tuple)):
        tracer.chain_groups.add(hash((degree, tuple(g.images for g in gens))))


_HOOKS = {
    "subgroups.enumerate_subgroups": _count_items("subgroups.found"),
    "graphs.enumerate_s_arcs": _count_items("graphs.s_arcs_items"),
    "claims.verify_claim": _claim_time,
    "group.StabilizerChain.__init__": _chain_group,
}


def _wrap_class(tracer, cls, layer) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
            continue
        if attr == "__init__" and dataclasses.is_dataclass(cls):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = tracer.wrap(member.__func__, name, layer, _HOOKS.get(name))
            setattr(cls, attr, type(member)(wrapped))
        elif isinstance(member, types.FunctionType):
            setattr(cls, attr, tracer.wrap(member, name, layer, _HOOKS.get(name)))


def _rebind(value, wrappers: dict):
    """The value with every wrapped original replaced by its wrapper,
    looking into dicts, lists and tuples (the package's dispatch tables)."""
    hit = wrappers.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, dict):
        for key, item in list(value.items()):
            new = _rebind(item, wrappers)
            if new is not item:
                value[key] = new
    elif isinstance(value, list):
        for k, item in enumerate(value):
            new = _rebind(item, wrappers)
            if new is not item:
                value[k] = new
    elif isinstance(value, tuple):
        items = tuple(_rebind(item, wrappers) for item in value)
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items) if type(value) is tuple else value
    return value


def install(tracer: Tracer) -> None:
    """Import symclass and trace the public API of every layer module."""
    import importlib

    modules = {layer: importlib.import_module(f"symclass.{layer}") for layer in LAYERS}
    wrappers: dict = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, type):
                if obj.__module__ == module.__name__ and not issubclass(obj, BaseException):
                    _wrap_class(tracer, obj, layer)
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(obj, name, layer, _HOOKS.get(name)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "symclass" and not mod_name.startswith("symclass."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            new = _rebind(value, wrappers)
            if new is not value:
                setattr(module, attr, new)


# -- per-layer metrics ------------------------------------------------------------

_GROUPS = {
    "group.chain": {"group.StabilizerChain.__init__"},
    "group.stabilizer": {"group.PermutationGroup.point_stabilizer",
                         "group.PermutationGroup.pointwise_stabilizer"},
    "group.elements": {"group.PermutationGroup.elements", "group.StabilizerChain.elements"},
    "group.parse": {"group.parse_generator_file"},
    "actions.tdt": {"actions.transitivity_degree_tests"},
    "actions.kernel": {"actions.kernel_of_action"},
    "actions.blocks": {"actions.find_block_systems", "actions.is_primitive"},
    "subgroups.enum": {"subgroups.enumerate_subgroups"},
    "graph6.decode": {"graph6.decode_graph6", "graph6.decode_graph6_lines"},
    "autgroup.aut": {"autgroup.automorphism_group"},
    "autgroup.canon": {"autgroup.canonical_form"},
    "autgroup.iso": {"autgroup.is_isomorphic"},
    "classify.pair": {"classify.classify_pair"},
    "claims.corpus": {"claims.standard_corpus", "claims.corpus_profiles",
                      "claims.girth4_graph_corpus"},
    "cli.main": {"cli.main"},
}

# name -> unit, in report order; trace.overhead_s and cli.startup_s need the
# untraced run and the process wall time, so run.py fills them in
METRIC_UNITS = {
    "perm.mul_calls": "count", "perm.inverse_calls": "count", "perm.self_s": "s",
    "group.chain_builds": "count", "group.chain_s": "s", "group.chains_per_group": "ratio",
    "group.stabilizer_calls": "count", "group.stabilizer_s": "s", "group.elements_s": "s",
    "group.parse_s": "s", "group.self_s": "s",
    "actions.tdt_calls": "count", "actions.tdt_s": "s", "actions.induced_calls": "count",
    "actions.kernel_s": "s", "actions.blocks_s": "s", "actions.self_s": "s",
    "subgroups.enum_calls": "count", "subgroups.enum_s": "s", "subgroups.found": "count",
    "subgroups.found_per_s": "1/s",
    "graphs.distance_partition_calls": "count", "graphs.intersection_calls": "count",
    "graphs.s_arcs_calls": "count", "graphs.s_arcs_items": "count", "graphs.self_s": "s",
    "graph6.decode_s": "s", "graph6.encode_calls": "count", "graph6.self_s": "s",
    "families.build_s": "s", "families.preserves_graph_calls": "count",
    "families.preserves_per_pair": "ratio",
    "autgroup.aut_calls": "count", "autgroup.aut_s": "s", "autgroup.canon_calls": "count",
    "autgroup.canon_s": "s", "autgroup.iso_calls": "count", "autgroup.iso_s": "s",
    "autgroup.leaves_per_canon": "ratio", "autgroup.self_s": "s",
    "classify.pair_calls": "count", "classify.pair_s": "s", "classify.dt_calls": "count",
    "classify.at_calls": "count", "classify.geo_calls": "count",
    "classify.condition_calls": "count", "classify.self_s": "s",
    "claims.corpus_s": "s",
    **{f"claims.{cid}_s": "s" for cid in CLAIM_IDS},
    "claims.self_s": "s",
    "cli.main_s": "s", "cli.startup_s": "s", "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except the two that need another run."""
    families_build = {name for name, layer in zip(tracer.names, tracer.layer_of)
                      if layer == "families"
                      and name not in ("families.preserves_graph",
                                       "families.grid_condition_holds")}
    agg = aggregate(tracer, {**_GROUPS, "families.build": families_build},
                    within=[("graph6.encode_graph6", "autgroup.canon")])
    c = Counter(agg.calls)
    cov = agg.covered_s
    extra = tracer.extra
    out = {
        "perm.mul_calls": c["perm.Permutation.__mul__"],
        "perm.inverse_calls": c["perm.Permutation.inverse"],
        "perm.self_s": agg.self_s["perm"],
        "group.chain_builds": c["group.StabilizerChain.__init__"],
        "group.chain_s": cov["group.chain"],
        "group.chains_per_group": _ratio(c["group.StabilizerChain.__init__"],
                                         len(tracer.chain_groups)),
        "group.stabilizer_calls": (c["group.PermutationGroup.point_stabilizer"]
                                   + c["group.PermutationGroup.pointwise_stabilizer"]),
        "group.stabilizer_s": cov["group.stabilizer"],
        "group.elements_s": cov["group.elements"],
        "group.parse_s": cov["group.parse"],
        "group.self_s": agg.self_s["group"],
        "actions.tdt_calls": c["actions.transitivity_degree_tests"],
        "actions.tdt_s": cov["actions.tdt"],
        "actions.induced_calls": c["actions.induced_action"],
        "actions.kernel_s": cov["actions.kernel"],
        "actions.blocks_s": cov["actions.blocks"],
        "actions.self_s": agg.self_s["actions"],
        "subgroups.enum_calls": c["subgroups.enumerate_subgroups"],
        "subgroups.enum_s": cov["subgroups.enum"],
        "subgroups.found": extra["subgroups.found"],
        "subgroups.found_per_s": _ratio(extra["subgroups.found"], cov["subgroups.enum"]),
        "graphs.distance_partition_calls": c["graphs.distance_partition"],
        "graphs.intersection_calls": c["graphs.intersection_numbers"],
        "graphs.s_arcs_calls": c["graphs.enumerate_s_arcs"],
        "graphs.s_arcs_items": extra["graphs.s_arcs_items"],
        "graphs.self_s": agg.self_s["graphs"],
        "graph6.decode_s": cov["graph6.decode"],
        "graph6.encode_calls": c["graph6.encode_graph6"],
        "graph6.self_s": agg.self_s["graph6"],
        "families.build_s": cov["families.build"],
        "families.preserves_graph_calls": c["families.preserves_graph"],
        "families.preserves_per_pair": _ratio(c["families.preserves_graph"],
                                              c["classify.classify_pair"]),
        "autgroup.aut_calls": c["autgroup.automorphism_group"],
        "autgroup.aut_s": cov["autgroup.aut"],
        "autgroup.canon_calls": c["autgroup.canonical_form"],
        "autgroup.canon_s": cov["autgroup.canon"],
        "autgroup.iso_calls": c["autgroup.is_isomorphic"],
        "autgroup.iso_s": cov["autgroup.iso"],
        "autgroup.leaves_per_canon": _ratio(
            agg.within[("graph6.encode_graph6", "autgroup.canon")],
            c["autgroup.canonical_form"]),
        "autgroup.self_s": agg.self_s["autgroup"],
        "classify.pair_calls": c["classify.classify_pair"],
        "classify.pair_s": cov["classify.pair"],
        "classify.dt_calls": c["classify.is_s_distance_transitive"],
        "classify.at_calls": c["classify.is_s_arc_transitive"],
        "classify.geo_calls": c["classify.is_2_geodesic_transitive"],
        "classify.condition_calls": c["classify.check_condition_3_1"],
        "classify.self_s": agg.self_s["classify"],
        "claims.corpus_s": cov["claims.corpus"],
        **{f"claims.{cid}_s": extra[f"claims.{cid}_s"] for cid in CLAIM_IDS},
        "claims.self_s": agg.self_s["claims"],
        "cli.main_s": cov["cli.main"],
        "cli.self_s": agg.self_s["cli"],
        "trace.spans": len(tracer),
    }
    return {name: float(value) if METRIC_UNITS[name] != "count" else int(value)
            for name, value in out.items()}
