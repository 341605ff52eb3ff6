"""Constructors for the named graph and group families, with fixed labelings.

Every graph constructor returns a :class:`LabeledFamily` whose label map and
symmetry group are deterministic, so downstream reports are reproducible. Each
group is built once and records the order it was built to have; the first
stabilizer chain built over its generators (the one ``order()`` reads, or a
stabilizer's) is checked against it, so a caller that only needs the graph
never pays for Schreier-Sims. The graph families of known shape check
valency, girth and diameter from vertex 0 at construction. A failed check
raises :class:`InternalCheckFailed`, under ``python -O`` as well. A graph
family refuses parameters that give more than ``EDGE_CAP`` edges with
:class:`SizeCapExceeded`, before anything is built.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

from .errors import InternalCheckFailed, ParameterError, SizeCapExceeded, UnknownFamily
from .graphs import Graph, bfs_cycle_length, distance_partition
from .group import PermutationGroup
from .numtheory import is_prime, smallest_primitive_root
from .perm import Permutation


EDGE_CAP = 1 << 20


def _cap_edges(name: str, edges: int) -> None:
    """Refuse a graph family of more than ``EDGE_CAP`` edges, counted from
    its parameters."""
    if edges > EDGE_CAP:
        raise SizeCapExceeded(f"{name} has more than {EDGE_CAP} edges (the family cap)")


def preserves_graph(p: Permutation, g: Graph) -> bool:
    return all(g.has_edge(p.images[u], p.images[v]) for u, v in g.edges())


class LabeledFamily:
    """A graph together with its structured vertex labels and the natural
    symmetry group it was built with."""

    __slots__ = ("name", "graph", "labels", "_group")

    def __init__(self, name: str, graph: Graph, labels: tuple, group: PermutationGroup):
        if len(labels) != graph.n or len(set(labels)) != graph.n:
            raise ParameterError(f"{name}: labels are not a bijection")
        for p in group.generators:
            if p.degree != graph.n or not preserves_graph(p, graph):
                raise ParameterError(
                    f"{name}: generator {p.cycle_string()} does not preserve the graph")
        self.name = name
        self.graph = graph
        self.labels = labels
        self._group = group

    def symmetry_group(self) -> PermutationGroup:
        """The group the family was built with. Its order is checked by the
        first stabilizer chain built over its generators."""
        return self._group


def _checked(group: PermutationGroup, order: int) -> PermutationGroup:
    """``group``, with ``order`` recorded as the order it was built to have.

    Every chain built over the generators is compared with it before it is
    kept; a chain that already exists is compared at once."""
    group._expected_order = order
    if group._chain is not None:
        group._check_order(group._chain.order())
    return group


def _recorded_order(group: PermutationGroup) -> int:
    """The order ``group`` was built to have, else its chain's. A product of
    recorded orders builds no chain over the factors: the product's own first
    chain checks it."""
    return group.order() if group._expected_order is None else group._expected_order


def _checked_shape(fam: LabeledFamily, valency: int, girth: int,
                   diameter: int) -> LabeledFamily:
    """``fam``, once its graph has the expected valency, girth and diameter.

    The family's group is checked to be transitive first. The graph is then
    vertex-transitive, so a BFS from vertex 0 gives the girth
    (``bfs_cycle_length``) and the diameter (the eccentricity of 0), and
    reaches every vertex exactly when the graph is connected.
    """
    g = fam.graph
    if not fam.symmetry_group().is_transitive():
        raise InternalCheckFailed(f"{fam.name}: the family's group is not transitive")
    layers = distance_partition(g, 0)
    found = (g.valency(), bfs_cycle_length(g, 0), layers.eccentricity,
             sum(map(len, layers.layers)))
    expected = (valency, girth, diameter, g.n)
    if found != expected:
        raise InternalCheckFailed(
            f"{fam.name}: (valency, girth, diameter, vertices reached from 0) is "
            f"{found}, expected {expected}")
    return fam


# -- basic permutation groups ------------------------------------------------


def sym(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("sym(n) needs n >= 1")
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return _checked(PermutationGroup(n, gens), math.factorial(n))


def alt(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("alt(n) needs n >= 1")
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(0, 1, 2)]))
    if n >= 4:
        cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cycle]))
    return _checked(PermutationGroup(n, gens), 1 if n <= 2 else math.factorial(n) // 2)


def cyclic(n: int) -> PermutationGroup:
    if n < 1:
        raise ParameterError("cyclic(n) needs n >= 1")
    gens = [] if n == 1 else [Permutation.from_cycles(n, [tuple(range(n))])]
    return _checked(PermutationGroup(n, gens), n)


def dihedral(n: int) -> PermutationGroup:
    """Symmetries of an n-cycle: rotation plus the reflection fixing 0."""
    if n < 3:
        raise ParameterError("dihedral(n) needs n >= 3")
    rotation = Permutation.from_cycles(n, [tuple(range(n))])
    reflection = Permutation(tuple((n - i) % n for i in range(n)))
    return _checked(PermutationGroup(n, [rotation, reflection]), 2 * n)


def agl1(p: int) -> PermutationGroup:
    """Affine maps x -> ax + b mod p, generated by x+1 and gx for the
    smallest primitive root g."""
    if not is_prime(p):
        raise ParameterError(f"agl1(p) needs a prime, got {p}")
    g = smallest_primitive_root(p)
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    scale = Permutation(tuple(g * x % p for x in range(p)))
    return _checked(PermutationGroup(p, [shift, scale]), p * (p - 1))


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
    return _checked(PermutationGroup(p, [shift, scale]), p * (p - 1) // 2)


def psl25() -> PermutationGroup:
    """PSL(2,5) on the 6-point projective line {0..4, oo=5}: generated by
    x -> x+1 and x -> -1/x. 2-transitive but not 3-transitive."""
    shift = Permutation.from_cycles(6, [(0, 1, 2, 3, 4)])
    flip = Permutation.from_cycles(6, [(5, 0), (1, 4)])
    return _checked(PermutationGroup(6, [shift, flip]), 60)


def direct_product(a: PermutationGroup, b: PermutationGroup) -> PermutationGroup:
    """Product action on pairs, with (x, y) stored as x * b.degree + y."""
    da, db = a.degree, b.degree
    n = da * db
    gens = []
    for g in a.generators:
        gens.append(Permutation(tuple(g.images[x // db] * db + x % db for x in range(n))))
    for h in b.generators:
        gens.append(Permutation(tuple((x // db) * db + h.images[x % db] for x in range(n))))
    return _checked(PermutationGroup(n, gens), _recorded_order(a) * _recorded_order(b))


def wreath_grid(m: int) -> PermutationGroup:
    """S2 x Sm acting on the 2 x m grid (and so on its complement)."""
    if m < 2:
        raise ParameterError("wreath_grid(m) needs m >= 2")
    return direct_product(sym(2), sym(m))


def wreath_bipartite(m: int) -> PermutationGroup:
    """Sm wr S2 on the two parts {0..m-1} and {m..2m-1} of a bipartition."""
    if m < 2:
        raise ParameterError("wreath_bipartite(m) needs m >= 2")
    n = 2 * m
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if m >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(m))]))
    gens.append(Permutation(tuple((x + m) % n for x in range(n))))
    return _checked(PermutationGroup(n, gens), 2 * math.factorial(m) ** 2)


def _product_action(symbols: PermutationGroup, coords: PermutationGroup) -> PermutationGroup:
    """Sq wr H on the q-ary d-tuples, the tuple x stored as the big-endian
    number sum x_i q^(d-1-i): the generators of ``symbols`` (Sq) act on the
    symbol at coordinate 0, those of ``coords`` (H, transitive of degree d)
    move the symbol at coordinate i to coordinate h(i)."""
    q, d = symbols.degree, coords.degree
    weights = [q ** (d - 1 - i) for i in range(d)]

    def digit_map(symbol: tuple, coord: tuple) -> Permutation:
        # symbol(x_0) lands at coord(0) and x_i at coord(i); the image of every
        # tuple is summed one coordinate at a time, coordinate 0 outermost
        images = [0]
        for i in range(d):
            w = weights[coord[i]]
            column = [(symbol[x] if i == 0 else x) * w for x in range(q)]
            images = [a + c for a in images for c in column]
        return Permutation(images)

    gens = [digit_map(s.images, tuple(range(d))) for s in symbols.generators]
    gens += [digit_map(tuple(range(q)), h.images) for h in coords.generators]
    return _checked(PermutationGroup(q ** d, gens),
                    _recorded_order(symbols) ** d * _recorded_order(coords))


def wreath_hamming(h: PermutationGroup, d: int) -> PermutationGroup:
    """S2 wr H on the binary d-cube: coordinate flips extended by H permuting
    the coordinates."""
    if h.degree != d:
        raise ParameterError(f"coordinate group degree {h.degree} != d = {d}")
    if not h.is_transitive():
        raise ParameterError("wreath_hamming needs a transitive coordinate group: the flip "
                             "of coordinate 0 and H generate S2 wr H only then")
    return _product_action(sym(2), h)


def hamming_full(d: int, q: int) -> PermutationGroup:
    """Sq wr Sd on q-ary d-tuples: symbol permutations per coordinate extended
    by coordinate permutations."""
    if d < 2 or q < 2:
        raise ParameterError("hamming_full needs d, q >= 2")
    return _product_action(sym(q), sym(d))


def octahedral() -> PermutationGroup:
    """S2 wr S3 on the six octahedron vertices (antipodes i, i+3)."""
    gens = [
        Permutation.from_cycles(6, [(0, 3)]),
        Permutation.from_cycles(6, [(0, 1), (3, 4)]),
        Permutation.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
    ]
    return _checked(PermutationGroup(6, gens), 48)


_ICOSA_RHO = [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)]
_ICOSA_SIGMA = [(0, 2, 7, 6, 5), (3, 8, 11, 10, 4)]
_ICOSA_TAU = [(0, 11), (1, 9), (2, 10), (3, 6), (4, 7), (5, 8)]


def icosahedral_rotations() -> PermutationGroup:
    return _checked(PermutationGroup(12, [
        Permutation.from_cycles(12, _ICOSA_RHO),
        Permutation.from_cycles(12, _ICOSA_SIGMA),
    ]), 60)


def icosahedral() -> PermutationGroup:
    """S2 x A5 on the twelve icosahedron vertices (rotations plus the
    antipodal map)."""
    return _checked(PermutationGroup(12, [
        Permutation.from_cycles(12, _ICOSA_RHO),
        Permutation.from_cycles(12, _ICOSA_SIGMA),
        Permutation.from_cycles(12, _ICOSA_TAU),
    ]), 120)


def petersen_sym5() -> PermutationGroup:
    """S5 acting on the ten 2-subsets of {0..4} (the Petersen labeling)."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = []
    for s in sym(5).generators:
        images = [index[tuple(sorted((s.images[a], s.images[b])))] for a, b in pairs]
        gens.append(Permutation(images))
    return _checked(PermutationGroup(10, gens), 120)


# -- labeled graph families --------------------------------------------------


def grid(n: int, m: int) -> LabeledFamily:
    """The n x m rook's graph on labels (i, j), 1-indexed."""
    if n < 2 or m < 2:
        raise ParameterError("grid needs n, m >= 2")
    _cap_edges(f"grid({n},{m})", n * m * (n + m - 2) // 2)
    labels = tuple((i + 1, j + 1) for i in range(n) for j in range(m))
    edges = []
    for a in range(n * m):
        edges += [(a, b) for b in range(a + 1, a - a % m + m)]  # the rest of a's row
        edges += [(a, b) for b in range(a + m, n * m, m)]  # the rest of a's column
    graph = Graph(n * m, edges)
    group = direct_product(sym(n), sym(m)) if n != m else _square_grid_group(n)
    return LabeledFamily(f"grid({n},{m})", graph, labels, group)


def _square_grid_group(n: int) -> PermutationGroup:
    base = direct_product(sym(n), sym(n))
    transpose = Permutation(tuple((x % n) * n + x // n for x in range(n * n)))
    return _checked(PermutationGroup(n * n, base.generators + (transpose,)),
                    2 * math.factorial(n) ** 2)


def grid_complement(m: int) -> LabeledFamily:
    """Complement of the 2 x m grid: K_{m,m} minus a perfect matching, with
    the grid's S2 x Sm (the generators of ``wreath_grid(m)``)."""
    if m < 3:
        raise ParameterError("grid_complement needs m >= 3")
    _cap_edges(f"grid_complement({m})", m * (m - 1))
    # row 0 is 0..m-1, row 1 is m..2m-1; a vertex is adjacent to the other
    # row outside its own column
    labels = tuple((i + 1, j + 1) for i in range(2) for j in range(m))
    edges = [(a, m + b) for a in range(m) for b in range(m) if a != b]
    fam = LabeledFamily(f"grid_complement({m})", Graph(2 * m, edges), labels, wreath_grid(m))
    return _checked_shape(fam, m - 1, 4 if m >= 4 else 6, 3)


def hamming(d: int, q: int) -> LabeledFamily:
    """H(d, q): q-ary d-tuples adjacent when they differ in one coordinate."""
    if d < 2 or q < 2:
        raise ParameterError("hamming needs d, q >= 2")
    # q >= 2, so q ** EDGE_CAP.bit_length() is past the cap already: q ** d is
    # never evaluated for a huge d
    _cap_edges(f"hamming({d},{q})",
               q ** min(d, EDGE_CAP.bit_length()) * d * (q - 1) // 2)
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
    fam = LabeledFamily(f"hamming({d},{q})", Graph(n, edges), tuple(labels),
                        hamming_full(d, q))
    return _checked_shape(fam, d * (q - 1), 4 if q == 2 else 3, d)


def complete(n: int) -> LabeledFamily:
    if n < 1:
        raise ParameterError("complete needs n >= 1")
    _cap_edges(f"complete({n})", n * (n - 1) // 2)
    graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    return LabeledFamily(f"complete({n})", graph, tuple(range(1, n + 1)), sym(n))


def complete_bipartite(m: int, n: int) -> LabeledFamily:
    if m < 1 or n < 1:
        raise ParameterError("complete_bipartite needs m, n >= 1")
    _cap_edges(f"complete_bipartite({m},{n})", m * n)
    labels = tuple((1, i + 1) for i in range(m)) + tuple((2, j + 1) for j in range(n))
    graph = Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    group = wreath_bipartite(m) if m == n and m >= 2 else _bipartite_product(m, n)
    return LabeledFamily(f"complete_bipartite({m},{n})", graph, labels, group)


def _bipartite_product(m: int, n: int) -> PermutationGroup:
    """Sm x Sn, each factor on its own part of {0..m-1} and {m..m+n-1}."""
    gens = []
    for g in sym(m).generators:
        gens.append(Permutation(tuple(g.images[x] if x < m else x for x in range(m + n))))
    for h in sym(n).generators:
        gens.append(Permutation(
            tuple(x if x < m else m + h.images[x - m] for x in range(m + n))))
    return _checked(PermutationGroup(m + n, gens), math.factorial(m) * math.factorial(n))


def cycle(n: int) -> LabeledFamily:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    _cap_edges(f"cycle({n})", n)
    graph = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    fam = LabeledFamily(f"cycle({n})", graph, tuple(range(1, n + 1)), dihedral(n))
    return _checked_shape(fam, 2, n, n // 2)


def octahedron() -> LabeledFamily:
    """Six vertices a, b, c, a', b', c'; every vertex adjacent to all but its
    antipode (a-a', b-b', c-c')."""
    labels = ("a", "b", "c", "a'", "b'", "c'")
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
    return _checked_shape(LabeledFamily("octahedron", Graph(6, edges), labels, octahedral()),
                          4, 3, 2)


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
    return _checked_shape(LabeledFamily("icosahedron", Graph(12, edges), labels, icosahedral()),
                          5, 3, 3)


def petersen() -> LabeledFamily:
    """Kneser labeling: 2-subsets of {1..5}, adjacent when disjoint."""
    pairs = list(combinations(range(5), 2))
    labels = tuple((a + 1, b + 1) for a, b in pairs)
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            if not set(p) & set(pairs[j]):
                edges.append((i, j))
    return _checked_shape(LabeledFamily("petersen", Graph(10, edges), labels, petersen_sym5()),
                          3, 5, 2)


# each family's constructor and the names of its parameters, in order; the
# classify command takes one flag per name
GRAPH_FAMILIES = {
    "grid": (grid, ("n", "m")),
    "grid_complement": (grid_complement, ("m",)),
    "hamming": (hamming, ("d", "q")),
    "complete": (complete, ("n",)),
    "complete_bipartite": (complete_bipartite, ("m", "n")),
    "cycle": (cycle, ("n",)),
    "octahedron": (octahedron, ()),
    "icosahedron": (icosahedron, ()),
    "petersen": (petersen, ()),
}
_GRAPH_FAMILIES = GRAPH_FAMILIES  # the name perfbench's tracer test reads


def build_graph(name: str, *params: int) -> LabeledFamily:
    key = name.strip().lower()
    if key not in GRAPH_FAMILIES:
        raise UnknownFamily(
            f"unknown graph family {name!r}; known: {', '.join(sorted(GRAPH_FAMILIES))}")
    ctor, names = GRAPH_FAMILIES[key]
    if len(params) != len(names):
        raise ParameterError(f"family {key!r} takes {len(names)} parameter(s), got {len(params)}")
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


def _parameter_text(rest: str) -> str:
    """The parameter text after a group name, written ``:p``, ``(p)`` or
    ``p``: one colon or one pair of enclosing parentheses is taken off."""
    if rest.startswith("("):
        if not rest.endswith(")"):
            raise ParameterError(f"unbalanced parentheses in group parameter {rest!r}")
        return rest[1:-1]
    return rest[1:] if rest.startswith(":") else rest


def build_group(spec: str) -> PermutationGroup:
    """Build a named group from a compact spec string.

    Examples: ``sym5``, ``alt(4)``, ``frobenius:7``, ``wreath_grid:6``,
    ``wreath_hamming(frobenius(7))``, ``icosahedral_rotations``.
    """
    s = spec.strip().lower().replace(" ", "")
    if s in _NO_PARAM_GROUPS:
        return _NO_PARAM_GROUPS[s]()
    if s.startswith("wreath_hamming"):
        inner = _parameter_text(s[len("wreath_hamming"):])
        if not inner:
            raise ParameterError("wreath_hamming needs a coordinate group, "
                                 "e.g. wreath_hamming(frobenius(7))")
        h = build_group(inner)
        return wreath_hamming(h, h.degree)
    for name in sorted(_INT_PARAM_GROUPS, key=len, reverse=True):
        if not s.startswith(name):
            continue
        rest = s[len(name):]
        parts = [p for p in re.split(r"[:,]", _parameter_text(rest)) if p]
        ctor, arity = _INT_PARAM_GROUPS[name]
        if not all(p.isdigit() for p in parts):
            if rest[0] not in ":(+-0123456789":
                continue  # a longer unknown name, such as ``symfoo``
            raise ParameterError(
                f"group {name!r} takes {arity} non-negative integer parameter(s), "
                f"got {rest!r}")
        if len(parts) != arity:
            raise ParameterError(f"group {name!r} takes {arity} parameter(s)")
        return ctor(*(int(p) for p in parts))
    raise UnknownFamily(
        f"unknown group spec {spec!r}; known names: "
        + ", ".join(sorted(list(_NO_PARAM_GROUPS) + list(_INT_PARAM_GROUPS)
                           + ["wreath_hamming"])))
