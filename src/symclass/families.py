"""Constructors for the named graph and group families, with fixed labelings.

Every graph constructor returns a :class:`LabeledFamily` whose label map and
canonical symmetry generators are deterministic, so downstream reports are
reproducible. Group constructors assert the expected order via the stabilizer
chain on construction.
"""

from __future__ import annotations

import re
from itertools import combinations

from .errors import ParameterError, UnknownFamily
from .graphs import Graph, complement, diameter, girth
from .group import PermutationGroup
from .numtheory import is_prime, smallest_primitive_root
from .perm import Permutation


def preserves_graph(p: Permutation, g: Graph) -> bool:
    return all(g.has_edge(p.images[u], p.images[v]) for u, v in g.edges())


class LabeledFamily:
    """A graph together with its structured vertex labels and the canonical
    generators of its natural symmetry group."""

    __slots__ = ("name", "graph", "labels", "generators")

    def __init__(self, name: str, graph: Graph, labels: tuple, generators: tuple):
        if len(labels) != graph.n or len(set(labels)) != graph.n:
            raise ParameterError(f"{name}: labels are not a bijection")
        for p in generators:
            if p.degree != graph.n or not preserves_graph(p, graph):
                raise ParameterError(
                    f"{name}: generator {p.cycle_string()} does not preserve the graph")
        self.name = name
        self.graph = graph
        self.labels = labels
        self.generators = generators

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParameterError(f"{self.name}: unknown label {label!r}") from None

    def label_of(self, index: int):
        return self.labels[index]

    def symmetry_group(self) -> PermutationGroup:
        return PermutationGroup(self.graph.n, self.generators)


# -- basic permutation groups ------------------------------------------------


def sym(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("sym(n) needs n >= 1")
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    group = PermutationGroup(n, gens)
    assert group.order() == _factorial(n)
    return group


def alt(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("alt(n) needs n >= 1")
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(0, 1, 2)]))
    if n >= 4:
        cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cycle]))
    group = PermutationGroup(n, gens)
    assert group.order() == (1 if n <= 2 else _factorial(n) // 2)
    return group


def cyclic(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("cyclic(n) needs n >= 1")
    gens = [] if n == 1 else [Permutation.from_cycles(n, [tuple(range(n))])]
    group = PermutationGroup(n, gens)
    assert group.order() == n
    return group


def dihedral(n: int) -> PermutationGroup:
    """Symmetries of an n-cycle: rotation plus the reflection fixing 0."""
    if n < 3:
        raise ParameterError("dihedral(n) needs n >= 3")
    rotation = Permutation.from_cycles(n, [tuple(range(n))])
    reflection = Permutation(tuple((n - i) % n for i in range(n)))
    group = PermutationGroup(n, [rotation, reflection])
    assert group.order() == 2 * n
    return group


def agl1(p: int) -> PermutationGroup:
    """Affine maps x -> ax + b mod p, generated by x+1 and gx for the
    smallest primitive root g."""
    if not is_prime(p):
        raise ParameterError(f"agl1(p) needs a prime, got {p}")
    g = smallest_primitive_root(p)
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    scale = Permutation(tuple(g * x % p for x in range(p)))
    group = PermutationGroup(p, [shift, scale])
    assert group.order() == p * (p - 1)
    return group


def two_homog_frobenius(p: int) -> PermutationGroup:
    """The odd-order index-2 subgroup of agl1(p): x+1 and g^2 x.

    2-homogeneous but not 2-transitive; such an action exists only when
    p = 3 (mod 4), so other primes are rejected.
    """
    if not is_prime(p):
        raise ParameterError(f"two_homog_frobenius(p) needs a prime, got {p}")
    if p % 4 != 3:
        raise ParameterError(
            f"two_homog_frobenius(p) needs p = 3 (mod 4) (otherwise the index-2 "
            f"affine subgroup has even order and is 2-transitive); got p={p}")
    g = smallest_primitive_root(p)
    square = g * g % p
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    scale = Permutation(tuple(square * x % p for x in range(p)))
    group = PermutationGroup(p, [shift, scale])
    assert group.order() == p * (p - 1) // 2
    return group


def psl25() -> PermutationGroup:
    """PSL(2,5) on the 6-point projective line {0..4, oo=5}: generated by
    x -> x+1 and x -> -1/x. 2-transitive but not 3-transitive."""
    shift = Permutation.from_cycles(6, [(0, 1, 2, 3, 4)])
    flip = Permutation.from_cycles(6, [(5, 0), (1, 4)])
    group = PermutationGroup(6, [shift, flip])
    assert group.order() == 60
    return group


def direct_product(a: PermutationGroup, b: PermutationGroup) -> PermutationGroup:
    """Product action on pairs, with (x, y) stored as x * b.degree + y."""
    da, db = a.degree, b.degree
    n = da * db
    gens = []
    for g in a.generators:
        gens.append(Permutation(tuple(g.images[x // db] * db + x % db for x in range(n))))
    for h in b.generators:
        gens.append(Permutation(tuple((x // db) * db + h.images[x % db] for x in range(n))))
    group = PermutationGroup(n, gens)
    assert group.order() == a.order() * b.order()
    return group


def wreath_grid(m: int) -> PermutationGroup:
    """S2 x Sm acting on the 2 x m grid (and so on its complement)."""
    if m < 2:
        raise ParameterError("wreath_grid(m) needs m >= 2")
    group = direct_product(sym(2), sym(m))
    assert group.order() == 2 * _factorial(m)
    return group


def wreath_bipartite(m: int) -> PermutationGroup:
    """Sm wr S2 on the two parts {0..m-1} and {m..2m-1} of a bipartition."""
    if m < 2:
        raise ParameterError("wreath_bipartite(m) needs m >= 2")
    n = 2 * m
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if m >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(m))]))
    gens.append(Permutation(tuple((x + m) % n for x in range(n))))
    group = PermutationGroup(n, gens)
    assert group.order() == 2 * _factorial(m) ** 2
    return group


def wreath_hamming(h: PermutationGroup, d: int) -> PermutationGroup:
    """S2 wr H on the binary d-cube: coordinate flips extended by H permuting
    the coordinates."""
    if h.degree != d:
        raise ParameterError(f"coordinate group degree {h.degree} != d = {d}")
    n = 1 << d
    flip0 = Permutation(tuple(v ^ (1 << (d - 1)) for v in range(n)))
    gens = [flip0]
    for p in h.generators:
        images = []
        for v in range(n):
            w = 0
            for i in range(d):
                bit = (v >> (d - 1 - i)) & 1
                w |= bit << (d - 1 - p.images[i])
            images.append(w)
        gens.append(Permutation(images))
    group = PermutationGroup(n, gens)
    assert group.order() == (1 << d) * h.order()
    return group


def hamming_full(d: int, q: int) -> PermutationGroup:
    """Sq wr Sd on q-ary d-tuples: symbol permutations per coordinate extended
    by coordinate permutations."""
    if d < 2 or q < 2:
        raise ParameterError("hamming_full needs d, q >= 2")
    n = q ** d
    weights = [q ** (d - 1 - i) for i in range(d)]

    def digits(v):
        return [(v // weights[i]) % q for i in range(d)]

    gens = []
    for symbol_gen in sym(q).generators:
        images = []
        for v in range(n):
            ds = digits(v)
            ds[0] = symbol_gen.images[ds[0]]
            images.append(sum(ds[i] * weights[i] for i in range(d)))
        gens.append(Permutation(images))
    for coord_gen in sym(d).generators:
        images = []
        for v in range(n):
            ds = digits(v)
            out = [0] * d
            for i in range(d):
                out[coord_gen.images[i]] = ds[i]
            images.append(sum(out[i] * weights[i] for i in range(d)))
        gens.append(Permutation(images))
    group = PermutationGroup(n, gens)
    assert group.order() == _factorial(q) ** d * _factorial(d)
    return group


def octahedral() -> PermutationGroup:
    """S2 wr S3 on the six octahedron vertices (antipodes i, i+3)."""
    gens = [
        Permutation.from_cycles(6, [(0, 3)]),
        Permutation.from_cycles(6, [(0, 1), (3, 4)]),
        Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
    ]
    group = PermutationGroup(6, gens)
    assert group.order() == 48
    return group


_ICOSA_RHO = [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)]
_ICOSA_SIGMA = [(0, 2, 7, 6, 5), (3, 8, 11, 10, 4)]
_ICOSA_TAU = [(0, 11), (1, 9), (2, 10), (3, 6), (4, 7), (5, 8)]


def icosahedral_rotations() -> PermutationGroup:
    group = PermutationGroup(12, [
        Permutation.from_cycles(12, _ICOSA_RHO),
        Permutation.from_cycles(12, _ICOSA_SIGMA),
    ])
    assert group.order() == 60
    return group


def icosahedral() -> PermutationGroup:
    """S2 x A5 on the twelve icosahedron vertices (rotations plus the
    antipodal map)."""
    group = PermutationGroup(12, [
        Permutation.from_cycles(12, _ICOSA_RHO),
        Permutation.from_cycles(12, _ICOSA_SIGMA),
        Permutation.from_cycles(12, _ICOSA_TAU),
    ])
    assert group.order() == 120
    return group


def petersen_sym5() -> PermutationGroup:
    """S5 acting on the ten 2-subsets of {0..4} (the Petersen labeling)."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = []
    for s in sym(5).generators:
        images = [index[tuple(sorted((s.images[a], s.images[b])))] for a, b in pairs]
        gens.append(Permutation(images))
    group = PermutationGroup(10, gens)
    assert group.order() == 120
    return group


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# -- labeled graph families --------------------------------------------------


def grid(n: int, m: int) -> LabeledFamily:
    """The n x m rook's graph on labels (i, j), 1-indexed."""
    if n < 2 or m < 2:
        raise ParameterError("grid needs n, m >= 2")
    labels = tuple((i + 1, j + 1) for i in range(n) for j in range(m))
    edges = []
    for a in range(n * m):
        for b in range(a + 1, n * m):
            if a // m == b // m or a % m == b % m:
                edges.append((a, b))
    graph = Graph(n * m, edges)
    gens = (direct_product(sym(n), sym(m)) if n != m else _square_grid_group(n)).generators
    return LabeledFamily(f"grid({n},{m})", graph, labels, gens)


def _square_grid_group(n: int) -> PermutationGroup:
    base = direct_product(sym(n), sym(n))
    transpose = Permutation(tuple((x % n) * n + x // n for x in range(n * n)))
    group = PermutationGroup(n * n, base.generators + (transpose,))
    assert group.order() == 2 * _factorial(n) ** 2
    return group


def grid_complement(m: int) -> LabeledFamily:
    """Complement of the 2 x m grid: K_{m,m} minus a perfect matching."""
    if m < 3:
        raise ParameterError("grid_complement needs m >= 3")
    base = grid(2, m)
    graph = complement(base.graph)
    fam = LabeledFamily(f"grid_complement({m})", graph, base.labels,
                        wreath_grid(m).generators)
    assert graph.valency() == m - 1
    assert diameter(graph) == 3
    assert girth(graph) == (4 if m >= 4 else 6)
    return fam


def hamming(d: int, q: int) -> LabeledFamily:
    """H(d, q): q-ary d-tuples adjacent when they differ in one coordinate."""
    if d < 2 or q < 2:
        raise ParameterError("hamming needs d, q >= 2")
    n = q ** d
    weights = [q ** (d - 1 - i) for i in range(d)]
    labels = []
    for v in range(n):
        labels.append(tuple((v // weights[i]) % q + 1 for i in range(d)))
    edges = []
    for v in range(n):
        for i in range(d):
            digit = (v // weights[i]) % q
            for other in range(digit + 1, q):
                edges.append((v, v + (other - digit) * weights[i]))
    graph = Graph(n, edges)
    fam = LabeledFamily(f"hamming({d},{q})", graph, tuple(labels),
                        hamming_full(d, q).generators)
    assert graph.valency() == d * (q - 1)
    assert diameter(graph) == d
    assert girth(graph) == (4 if q == 2 else 3)
    return fam


def complete(n: int) -> LabeledFamily:
    if n < 1:
        raise ParameterError("complete needs n >= 1")
    graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return LabeledFamily(f"complete({n})", graph, tuple(range(1, n + 1)),
                         sym(n).generators)


def complete_bipartite(m: int, n: int) -> LabeledFamily:
    if m < 1 or n < 1:
        raise ParameterError("complete_bipartite needs m, n >= 1")
    labels = tuple((1, i + 1) for i in range(m)) + tuple((2, j + 1) for j in range(n))
    graph = Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if m == n and m >= 2:
        gens = wreath_bipartite(m).generators
    else:
        gens = _bipartite_product_gens(m, n)
    return LabeledFamily(f"complete_bipartite({m},{n})", graph, labels, gens)


def _bipartite_product_gens(m: int, n: int) -> tuple:
    gens = []
    for g in sym(m).generators:
        gens.append(Permutation(tuple(g.images[x] if x < m else x for x in range(m + n))))
    for h in sym(n).generators:
        gens.append(Permutation(
            tuple(x if x < m else m + h.images[x - m] for x in range(m + n))))
    return tuple(gens)


def cycle(n: int) -> LabeledFamily:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    graph = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    fam = LabeledFamily(f"cycle({n})", graph, tuple(range(1, n + 1)),
                        dihedral(n).generators)
    assert girth(graph) == n
    return fam


def octahedron() -> LabeledFamily:
    """Six vertices a, b, c, a', b', c'; every vertex adjacent to all but its
    antipode (a-a', b-b', c-c')."""
    labels = ("a", "b", "c", "a'", "b'", "c'")
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
    graph = Graph(6, edges)
    fam = LabeledFamily("octahedron", graph, labels, octahedral().generators)
    assert graph.valency() == 4 and girth(graph) == 3 and diameter(graph) == 2
    return fam


def icosahedron() -> LabeledFamily:
    """Twelve vertices u, v1..v5, w1..w5, x laid out by distance from u."""
    labels = ("u", "v1", "v2", "v3", "v4", "v5",
              "w1", "w2", "w3", "w4", "w5", "x")
    edges = []
    for i in range(1, 6):
        edges.append((0, i))                      # u - v_i
        edges.append((i, i % 5 + 1))              # v-cycle
        edges.append((i, i + 5))                  # v_i - w_i
        edges.append((i, i % 5 + 6))              # v_i - w_{i+1}
        edges.append((i + 5, i % 5 + 6))          # w-cycle
        edges.append((i + 5, 11))                 # w_i - x
    graph = Graph(12, edges)
    fam = LabeledFamily("icosahedron", graph, labels, icosahedral().generators)
    assert graph.valency() == 5 and girth(graph) == 3 and diameter(graph) == 3
    return fam


def petersen() -> LabeledFamily:
    """Kneser labeling: 2-subsets of {1..5}, adjacent when disjoint."""
    pairs = list(combinations(range(5), 2))
    labels = tuple((a + 1, b + 1) for a, b in pairs)
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(p) & set(pairs[j]):
                edges.append((i, j))
    graph = Graph(10, edges)
    fam = LabeledFamily("petersen", graph, labels, petersen_sym5().generators)
    assert graph.valency() == 3 and girth(graph) == 5 and diameter(graph) == 2
    return fam


_GRAPH_FAMILIES = {
    "grid": (grid, 2),
    "grid_complement": (grid_complement, 1),
    "hamming": (hamming, 2),
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "octahedron": (octahedron, 0),
    "icosahedron": (icosahedron, 0),
    "petersen": (petersen, 0),
}


def build_graph(name: str, *params: int) -> LabeledFamily:
    key = name.strip().lower()
    if key not in _GRAPH_FAMILIES:
        raise UnknownFamily(
            f"unknown graph family {name!r}; known: {', '.join(sorted(_GRAPH_FAMILIES))}")
    ctor, arity = _GRAPH_FAMILIES[key]
    if len(params) != arity:
        raise ParameterError(f"family {key!r} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


# -- group spec parser (CLI surface) ------------------------------------------

_NO_PARAM_GROUPS = {
    "octahedral": octahedral,
    "icosahedral": icosahedral,
    "icosahedral_rotations": icosahedral_rotations,
    "petersen_sym5": petersen_sym5,
    "psl25": psl25,
}

_INT_PARAM_GROUPS = {
    "sym": (sym, 1),
    "alt": (alt, 1),
    "cyclic": (cyclic, 1),
    "dihedral": (dihedral, 1),
    "agl1": (agl1, 1),
    "two_homog_frobenius": (two_homog_frobenius, 1),
    "frobenius": (two_homog_frobenius, 1),
    "wreath_grid": (wreath_grid, 1),
    "wreath_bipartite": (wreath_bipartite, 1),
    "hamming_full": (hamming_full, 2),
}

_SPEC_RE = re.compile(r"^([a-z_0-9]+?)(?:[:(]([a-z_0-9:,()]*)\)?)?$")


def build_group(spec: str) -> PermutationGroup:
    """Build a named group from a compact spec string.

    Examples: ``sym5``, ``alt(4)``, ``frobenius:7``, ``wreath_grid:6``,
    ``wreath_hamming(frobenius(7))``, ``icosahedral_rotations``.
    """
    s = spec.strip().lower().replace(" ", "")
    if s in _NO_PARAM_GROUPS:
        return _NO_PARAM_GROUPS[s]()
    if s.startswith("wreath_hamming"):
        inner = s[len("wreath_hamming"):].lstrip(":(").rstrip(")")
        if not inner:
            raise ParameterError("wreath_hamming needs a coordinate group, "
                                 "e.g. wreath_hamming(frobenius(7))")
        h = build_group(inner)
        return wreath_hamming(h, h.degree)
    for name in sorted(_INT_PARAM_GROUPS, key=len, reverse=True):
        if not s.startswith(name):
            continue
        rest = s[len(name):].lstrip(":(").rstrip(")")
        parts = [p for p in re.split(r"[:,]", rest) if p]
        if not all(p.isdigit() for p in parts):
            continue
        ctor, arity = _INT_PARAM_GROUPS[name]
        if len(parts) != arity:
            raise ParameterError(f"group {name!r} takes {arity} parameter(s)")
        return ctor(*(int(p) for p in parts))
    raise UnknownFamily(
        f"unknown group spec {spec!r}; known names: "
        + ", ".join(sorted(list(_NO_PARAM_GROUPS) + list(_INT_PARAM_GROUPS)
                           + ["wreath_hamming"])))
