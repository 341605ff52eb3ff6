"""Seeded inputs and timed passes of the in-process workloads.

Inputs are built with the package's public family constructors (so set-up
pays the order-asserting chain builds a user pays), then relabelled by a
seeded permutation and turned into text with this file's own graph6 and
generator-file writers. The timed operations receive only that text (or an
edge list, for the disjoint unions of triangles) and parse it themselves.

Every call into symclass goes through a module attribute at call time, so a
tracer installed after import sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import symclass as sc
from symclass import families as fam

# -- text writers, independent of the code under test --------------------------


def graph6(n: int, edges) -> str:
    """McKay's graph6 for n <= 62 or the four-byte size header above."""
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adjacent else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    head = chr(63 + n) if n <= 62 else "~" + "".join(
        chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    return head + body


def generator_text(degree: int, generators) -> str:
    """Generator-file text: ``degree N`` then 1-indexed cycles per line."""
    lines = [f"degree {degree}"]
    for images in generators:
        seen, cycles = set(), []
        for start in range(degree):
            if start in seen or images[start] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x + 1)
                x = images[x]
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
        lines.append("".join(cycles) or "()")
    return "\n".join(lines) + "\n"


def relabel(n: int, edges, generators, phi):
    """Edges and generator image tuples after renaming vertex v to phi[v]."""
    new_edges = sorted((min(phi[u], phi[v]), max(phi[u], phi[v])) for u, v in edges)
    new_gens = []
    for images in generators:
        out = [0] * n
        for x in range(n):
            out[phi[x]] = phi[images[x]]
        new_gens.append(tuple(out))
    return new_edges, new_gens


def _edges(graph) -> list:
    return [(u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v]


def _images(group) -> list:
    return [g.images for g in group.generators]


def _triangles(k: int) -> list:
    return [(3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (0, 2), (1, 2))]


def _hexagons(k: int) -> list:
    return [(6 * i + j, 6 * i + (j + 1) % 6) for i in range(k) for j in range(6)]


def _shrikhande() -> list:
    # Cayley graph of Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}
    edges = set()
    for x in range(4):
        for y in range(4):
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                a, b = 4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4
                edges.add((min(a, b), max(a, b)))
    return sorted(edges)


# -- classify-mix -------------------------------------------------------------


def _classify_pairs() -> list:
    """The claim suite's corpus pairs and catalog rows, pinned here so that a
    change to the package's own corpus does not change the benchmark."""
    pairs = []
    witnesses = {4: fam.alt(4), 5: fam.agl1(5), 6: fam.psl25()}
    for m in (4, 5, 6):
        g = fam.grid_complement(m)
        pairs.append((f"grid_complement({m})+wreath_grid({m})", g.graph, g.symmetry_group()))
        pairs.append((f"grid_complement({m})+sym2x{m}witness", g.graph,
                      fam.direct_product(fam.sym(2), witnesses[m])))
    pairs.append(("hamming(3,2)+s2wr_sym3", fam.hamming(3, 2).graph,
                  fam.wreath_hamming(fam.sym(3), 3)))
    pairs.append(("hamming(3,2)+s2wr_cyclic3", fam.hamming(3, 2).graph,
                  fam.wreath_hamming(fam.cyclic(3), 3)))
    pairs.append(("hamming(4,2)+s2wr_sym4", fam.hamming(4, 2).graph,
                  fam.wreath_hamming(fam.sym(4), 4)))
    pairs.append(("hamming(7,2)+s2wr_frobenius21", fam.hamming(7, 2).graph,
                  fam.wreath_hamming(fam.two_homog_frobenius(7), 7)))
    pairs.append(("hamming(2,3)+sym3wr_sym2", fam.hamming(2, 3).graph, fam.hamming_full(2, 3)))
    for m in (2, 3, 4, 5):
        pairs.append((f"complete_bipartite({m},{m})+wreath",
                      fam.complete_bipartite(m, m).graph, fam.wreath_bipartite(m)))
    pairs.append(("octahedron+octahedral", fam.octahedron().graph, fam.octahedral()))
    pairs.append(("icosahedron+rotations", fam.icosahedron().graph, fam.icosahedral_rotations()))
    pairs.append(("icosahedron+full", fam.icosahedron().graph, fam.icosahedral()))
    petersen = fam.petersen()
    line, _ = sc.line_graph(petersen.graph)
    pairs.append(("petersen+sym5", petersen.graph, fam.petersen_sym5()))
    line_group = sc.edge_action(fam.petersen_sym5(), petersen.graph)
    pairs.append(("line(petersen)+sym5", line, line_group))
    pairs.append(("cycle(5)+dihedral", fam.cycle(5).graph, fam.dihedral(5)))
    pairs.append(("cycle(6)+dihedral", fam.cycle(6).graph, fam.dihedral(6)))
    pairs.append(("complete(4)+sym4", fam.complete(4).graph, fam.sym(4)))
    pairs.append(("complete(5)+sym5", fam.complete(5).graph, fam.sym(5)))
    # the seven catalog rows of the valency <= 5 table
    pairs.append(("row:grid_complement(4)", fam.grid_complement(4).graph,
                  fam.direct_product(fam.sym(2), fam.alt(4))))
    pairs.append(("row:octahedron", fam.octahedron().graph, fam.octahedral()))
    pairs.append(("row:hamming(2,3)", fam.hamming(2, 3).graph, fam.hamming_full(2, 3)))
    pairs.append(("row:line_graph_of_cubic_3_arc_transitive", line, line_group))
    pairs.append(("row:grid_complement(5)", fam.grid_complement(5).graph,
                  fam.direct_product(fam.sym(2), fam.agl1(5))))
    pairs.append(("row:icosahedron", fam.icosahedron().graph, fam.icosahedral_rotations()))
    pairs.append(("row:grid_complement(6)", fam.grid_complement(6).graph,
                  fam.direct_product(fam.sym(2), fam.psl25())))
    return pairs


def _report_summary(report: dict) -> dict:
    digest = hashlib.sha1(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return {
        "vertices": report["graph"]["vertices"],
        "valency": report["graph"]["valency"],
        "girth": report["graph"]["girth"],
        "diameter": report["graph"]["diameter"],
        "order": report["group"]["order"],
        "vertex_transitive": report["vertex_transitive"],
        "dt2": report["distance_transitive"]["2"],
        "at2": report["arc_transitive"]["2"],
        "row": report["matched_row"],
        "digest": digest,
    }


class ClassifyMix:
    """One op: decode graph6, parse the generator file, classify the pair."""

    def __init__(self):
        self.base = [(name, graph.n, _edges(graph), _images(group))
                     for name, graph, group in _classify_pairs()]

    def draw(self, rng) -> list:
        inputs = []
        for name, n, edges, gens in self.base:
            new_edges, new_gens = relabel(n, edges, gens, rng.sample(range(n), n))
            inputs.append({"name": name, "g6": graph6(n, new_edges),
                           "gens": generator_text(n, new_gens)})
        return inputs

    def run_pass(self, inputs, rng, record) -> None:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        for k in order:
            item = inputs[k]
            record(k, lambda: sc.classify_pair(sc.decode_graph6(item["g6"]),
                                               sc.parse_generator_file(item["gens"])).to_dict(),
                   _report_summary)


# -- lattice-sweep ------------------------------------------------------------


class LatticeSweep:
    """Per ambient group: enumerate its subgroups, then decide each one.

    The op is one subgroup decided: 2-distance and 2-arc transitivity, plus
    the grid condition on the grid complements. The grid groups keep the
    grid labelling the condition is stated in; the seed relabels them by a
    column permutation and row swap, which maps the group onto itself.
    """

    def __init__(self):
        cases = [("grid_complement(4)", fam.grid_complement(4).graph, fam.wreath_grid(4), 4),
                 ("grid_complement(5)", fam.grid_complement(5).graph, fam.wreath_grid(5), 5),
                 ("octahedron", fam.octahedron().graph, fam.octahedral(), None),
                 ("icosahedron", fam.icosahedron().graph, fam.icosahedral(), None)]
        self.base = [(name, graph.n, _edges(graph), _images(group), m)
                     for name, graph, group, m in cases]

    def draw(self, rng) -> list:
        inputs = []
        for name, n, edges, gens, m in self.base:
            if m is None:
                phi = rng.sample(range(n), n)
            else:
                cols = rng.sample(range(m), m)
                swap = rng.randrange(2)
                phi = [((v // m) ^ swap) * m + cols[v % m] for v in range(n)]
            new_edges, new_gens = relabel(n, edges, gens, phi)
            inputs.append({"name": name, "m": m, "g6": graph6(n, new_edges),
                           "gens": generator_text(n, new_gens)})
        return inputs

    def run_pass(self, inputs, rng, record) -> None:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        for k in order:
            item = inputs[k]
            graph = sc.decode_graph6(item["g6"])
            subgroups = sc.enumerate_subgroups(sc.parse_generator_file(item["gens"]))
            m = item["m"]
            picks = list(range(len(subgroups)))
            rng.shuffle(picks)
            for j in picks:
                sub = subgroups[j]
                record(k, lambda: (
                    sub.order(),
                    bool(sc.is_s_distance_transitive(graph, sub, 2)),
                    bool(sc.is_s_arc_transitive(graph, sub, 2)),
                    None if m is None else sc.check_condition_3_1(sub, m).satisfied),
                    lambda r: {"order": r[0], "dt2": r[1], "at2": r[2], "cond": r[3]})


# -- iso-canon ----------------------------------------------------------------


class IsoCanon:
    """Automorphism groups, canonical forms and isomorphism tests on seeded
    relabellings of family graphs. Every graph comes in two relabelled copies
    ``a`` and ``b``; the canonical forms of both copies must agree."""

    def __init__(self):
        graphs = {}
        for d in range(2, 7):
            graphs[f"hamming({d},2)"] = fam.hamming(d, 2).graph
        for m in range(3, 9):
            graphs[f"grid_complement({m})"] = fam.grid_complement(m).graph
        graphs["icosahedron"] = fam.icosahedron().graph
        graphs["petersen"] = fam.petersen().graph
        graphs["line(petersen)"] = sc.line_graph(graphs["petersen"])[0]
        graphs["hamming(2,4)"] = fam.hamming(2, 4).graph
        self.base = [(name, g.n, _edges(g), True) for name, g in graphs.items()]
        self.base.append(("shrikhande", 16, _shrikhande(), True))
        self.base += [(f"{k}K3", 3 * k, _triangles(k), False) for k in range(1, 9)]
        self.base.append(("4C6", 24, _hexagons(4), False))

        index = {(name, copy): 2 * k + c for k, (name, *_) in enumerate(self.base)
                 for c, copy in enumerate("ab")}
        self.ops = []
        for name, *_ in self.base:
            self.ops.append(("aut", index[name, "a"], None))
            self.ops.append(("canon", index[name, "a"], None))
            self.ops.append(("canon", index[name, "b"], None))
            self.ops.append(("iso", index[name, "a"], index[name, "b"]))
        for left, right in (("hamming(2,4)", "shrikhande"), ("8K3", "4C6"),
                            ("grid_complement(3)", "2K3"),
                            ("hamming(3,2)", "grid_complement(4)")):
            self.ops.append(("iso", index[left, "a"], index[right, "b"]))

    def draw(self, rng) -> list:
        inputs = []
        for name, n, edges, as_graph6 in self.base:
            for copy in "ab":
                new_edges, _ = relabel(n, edges, [], rng.sample(range(n), n))
                item = {"name": name, "copy": copy, "n": n}
                if as_graph6:
                    item["g6"] = graph6(n, new_edges)
                else:
                    item["edges"] = new_edges
                inputs.append(item)
        return inputs

    def run_pass(self, inputs, rng, record) -> None:
        def load(k):
            item = inputs[k]
            if "g6" in item:
                return sc.decode_graph6(item["g6"])
            return sc.Graph(item["n"], item["edges"])

        order = list(range(len(self.ops)))
        rng.shuffle(order)
        for j in order:
            kind, a, b = self.ops[j]
            if kind == "aut":
                record(j, lambda: sc.automorphism_group(load(a)).order(),
                       lambda order: {"order": order})
            elif kind == "canon":
                record(j, lambda: sc.canonical_form(load(a)),
                       lambda r: {"canon": graph6(r[0].n, [(u, v) for u in range(r[0].n)
                                                           for v in r[0].adjacency[u]]),
                                  "labeling": list(r[1])})
            else:
                record(j, lambda: sc.is_isomorphic(load(a), load(b)),
                       lambda r: {"isomorphic": r.isomorphic,
                                  "mapping": None if r.mapping is None else list(r.mapping)})


MAKERS = {"classify-mix": ClassifyMix, "lattice-sweep": LatticeSweep, "iso-canon": IsoCanon}


def run(workload, seconds: float, max_passes: int | None, tracer=None):
    """Timed passes over the workload's whole input set.

    Each pass draws fresh seeded relabellings (untimed, before the pass), so
    a run averages the labelling-dependent cost of refinement search and row
    matching over many labellings instead of the one a seed happens to pick.
    Passes run whole, so every op appears equally often in the latency
    sample; another pass starts only if the median pass so far fits in the
    time left. ``max_passes`` fixes the work instead (the traced run), so
    its counts repeat exactly.

    Results and inputs are kept as JSON text: strings are not tracked by the
    garbage collector, so the benchmark's bookkeeping does not grow the heap
    the program's collections have to scan as the run goes on.
    """
    ops = []
    number = 0

    def record(key, fn, summarize):
        if tracer is not None:
            tracer.op = len(ops)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising op counts as failed; the run goes on
            ms = (time.perf_counter() - t0) * 1000
            ops.append(json.dumps([number, key, ms, {"error": f"{type(exc).__name__}: {exc}"}]))
        else:
            ms = (time.perf_counter() - t0) * 1000
            ops.append(json.dumps([number, key, ms, summarize(result)]))
        if tracer is not None:
            tracer.op = -1

    rng = workload.rng
    inputs = workload.first_inputs
    passes = []
    started = time.perf_counter()
    while True:
        first_op = len(ops)
        t0 = time.perf_counter()
        workload.run_pass(inputs, rng, record)
        passes.append({"wall_s": time.perf_counter() - t0, "ops": len(ops) - first_op,
                       "inputs": json.dumps(inputs)})
        if max_passes is not None:
            if len(passes) >= max_passes:
                break
        else:
            walls = sorted(p["wall_s"] for p in passes)
            if time.perf_counter() - started + walls[len(walls) // 2] > seconds:
                break
        number += 1
        inputs = workload.draw(rng)
    return passes, ops


def make(workload: str, seed: int):
    """Build the workload's base objects and its first pass's inputs."""
    wl = MAKERS[workload]()
    wl.rng = random.Random(f"{workload}/{seed}")
    wl.first_inputs = wl.draw(wl.rng)
    return wl
