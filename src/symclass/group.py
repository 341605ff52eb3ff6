"""Permutation groups backed by deterministic Schreier-Sims stabilizer chains.

The chain fixes base points in a reproducible way (any caller-supplied prefix
first, then the smallest point moved at each level), so orders, element
enumerations and stabilizer generators are byte-for-byte stable across runs.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque

from .errors import (
    DegreeMismatch,
    InternalCheckFailed,
    ParameterError,
    ParseError,
    SizeCapExceeded,
)
from .perm import Permutation, _compose

_ELEMENTS_CAP = 2_000_000


def point_orbit(generators, x: int) -> set:
    """The orbit of point ``x`` under the group generated by ``generators``."""
    seen = {x}
    queue = deque([x])
    while queue:
        a = queue.popleft()
        for g in generators:
            b = g.images[a]
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


class StabilizerChain:
    """Base and strong generating set for a permutation group.

    Per level ``i`` the chain stores the generators introduced there (they fix
    ``base[:i]`` and move ``base[i]``) and a transversal mapping each point of
    the basic orbit to the inverse of a coset representative ``t`` with
    ``t(base[i]) == point``. Sifting only needs the inverses; the few paths
    that need ``t`` itself invert them again.
    """

    __slots__ = ("degree", "base", "prefix_length", "_identity", "_gens", "_inv")

    def __init__(self, degree: int, generators, base_prefix=()):
        self.degree = degree
        self._identity = Permutation.identity(degree)
        self.base: list[int] = []
        self._gens: list[list[Permutation]] = []
        self._inv: list[dict[int, Permutation]] = []
        seen_prefix = set()
        for beta in base_prefix:
            if not 0 <= beta < degree:
                raise ParameterError(f"base point {beta} out of range for degree {degree}")
            if beta not in seen_prefix:
                seen_prefix.add(beta)
                self._new_level(beta)
        self.prefix_length = len(self.base)
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} does not match group degree {degree}")
            if g.images != self._identity.images:
                self._place(g)
        self._close()

    # -- construction ------------------------------------------------------

    def _new_level(self, beta: int) -> None:
        self.base.append(beta)
        self._gens.append([])
        self._inv.append({beta: self._identity})

    def _place(self, g: Permutation) -> None:
        for i, beta in enumerate(self.base):
            if g.images[beta] != beta:
                self._gens[i].append(g)
                return
        self._new_level(min(g.support()))
        self._gens[-1].append(g)

    def _gens_from(self, i: int) -> list[Permutation]:
        out = []
        for level in self._gens[i:]:
            out.extend(level)
        return out

    def _extend_orbit(self, i: int) -> None:
        gens = self._gens_from(i)
        inv = self._inv[i]
        queue = deque(sorted(inv))
        while queue:
            b = queue.popleft()
            ub = inv[b]
            for s in gens:
                c = s.images[b]
                if c not in inv:
                    # the representative of c is t_b * s, its inverse s^-1 * t_b^-1
                    inv[c] = s.inverse() * ub
                    queue.append(c)

    def _close(self) -> None:
        # Standard bottom-up Schreier-Sims: a level is complete once all its
        # Schreier generators sift to the identity through the levels below.
        # ``done`` holds the sifted (point, generator) pairs per level; it is
        # only needed while the chain is being built.
        done = defaultdict(set)
        i = len(self.base) - 1
        while i >= 0:
            j = self._check_level(i, done[i])
            i = i - 1 if j is None else j

    def _check_level(self, i: int, done: set):
        self._extend_orbit(i)
        gens = self._gens_from(i)
        inv = self._inv[i]
        for b in sorted(inv):
            ub = inv[b]
            tb = None
            for s in gens:
                key = (b, s)
                if key in done:
                    continue
                # membership in the subgroup below only ever grows, so a pair
                # that sifted to the identity once never needs rechecking
                done.add(key)
                # the Schreier generator t_b * s * t_c^-1 is the identity
                # exactly when s * t_c^-1 equals t_b^-1
                tail = s * inv[s.images[b]]
                if tail == ub:
                    continue
                if tb is None:
                    tb = ub.inverse()
                h, j = self._strip(tb * tail, i + 1)
                if h.images == self._identity.images:
                    continue
                if j == len(self.base):
                    self._new_level(min(h.support()))
                self._gens[j].append(h)
                return j
        return None

    # -- queries -----------------------------------------------------------

    def _strip(self, g: Permutation, start: int = 0):
        """Sift ``g`` from level ``start``: the residue and the level where it
        left the chain (``len(base)`` when it sifted through). Image tuples are
        composed directly; only the residue becomes a ``Permutation``."""
        images = g.images
        i = start
        while i < len(self.base):
            inv = self._inv[i].get(images[self.base[i]])
            if inv is None:
                break
            images = _compose(images, inv.images)
            i += 1
        return Permutation._raw(images), i

    def orbit_sizes(self) -> list[int]:
        """The size of the basic orbit at each level, in base order."""
        return [len(inv) for inv in self._inv]

    def order(self) -> int:
        return math.prod(self.orbit_sizes())

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        residue, i = self._strip(p)
        return i == len(self.base) and residue.images == self._identity.images

    def strong_generators(self, from_level: int = 0) -> list[Permutation]:
        """Strong generators fixing ``base[:from_level]`` pointwise."""
        out = []
        seen = set()
        for g in self._gens_from(from_level):
            if g not in seen:
                seen.add(g)
                out.append(g)
        return out

    def elements(self) -> list[Permutation]:
        """All elements, sorted by image tuple. Refuses to materialize huge groups."""
        if self.order() > _ELEMENTS_CAP:
            raise SizeCapExceeded(
                f"refusing to enumerate {self.order()} elements (cap {_ELEMENTS_CAP})")
        elems = [self._identity]
        for i in range(len(self.base) - 1, -1, -1):
            reps = [self._inv[i][b].inverse() for b in sorted(self._inv[i])]
            elems = [e * t for e in elems for t in reps]
        return sorted(elems)


class PermutationGroup:
    """A group of permutations of {0..degree-1} given by generators.

    The stabilizer chain, each point stabilizer and each orbit are computed
    lazily on first use and kept; instances are immutable afterwards and safe
    to share between threads.
    """

    __slots__ = ("degree", "generators", "_chain", "_order", "_expected_order",
                 "_stabilizers", "_orbit_of")

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise ParameterError("group degree must be at least 1")
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, Permutation):
                raise ParameterError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} does not match group degree {degree}")
        self.degree = degree
        self.generators = generators
        self._chain = None
        # set by a caller that already knows the order (the automorphism
        # search, and the subgroup enumeration from the element set it
        # closed), so that order() needs no chain
        self._order = None
        # set by a constructor that built the group to have this order
        # (``families._checked``); every chain over the generators is
        # compared with it before it is kept
        self._expected_order = None
        self._stabilizers = {}
        # point -> its orbit, filled one orbit at a time: deciding transitivity
        # walks the orbit of 0 only
        self._orbit_of = {}

    @property
    def chain(self) -> StabilizerChain:
        """The stabilizer chain, based at point 0 so that ``G_0`` can be read off it."""
        if self._chain is None:
            self._chain = self._checked_chain((0,))
        return self._chain

    def _checked_chain(self, base_prefix) -> StabilizerChain:
        """A chain over the generators, once its order is the expected one."""
        chain = StabilizerChain(self.degree, self.generators, base_prefix)
        self._check_order(chain.order())
        return chain

    def _check_order(self, order: int) -> None:
        """Raise ``InternalCheckFailed`` if an expected order is recorded and
        ``order`` is not it."""
        if self._expected_order is not None and order != self._expected_order:
            raise InternalCheckFailed(
                f"group of degree {self.degree} has order {order}, "
                f"expected {self._expected_order}")

    def order(self) -> int:
        return self.chain.order() if self._order is None else self._order

    def __contains__(self, p: Permutation) -> bool:
        return self.chain.contains(p)

    def orbit(self, x: int) -> tuple:
        """The orbit of ``x``, in ascending point order, walked once per group."""
        if not 0 <= x < self.degree:
            raise ParameterError(f"point {x} out of range for degree {self.degree}")
        orb = self._orbit_of.get(x)
        if orb is None:
            orb = tuple(sorted(point_orbit(self.generators, x)))
            self._orbit_of.update(dict.fromkeys(orb, orb))
        return orb

    def orbits(self) -> list[tuple]:
        """The orbit partition, ordered by least point."""
        return [orb for x in range(self.degree) if (orb := self.orbit(x))[0] == x]

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def point_stabilizer(self, x: int) -> "PermutationGroup":
        """The stabilizer of ``x``, from a chain whose base starts at ``x``
        (for ``x = 0`` the group's own chain). Built once per point and kept,
        so repeated calls return the same group and its cached chain."""
        stab = self._stabilizers.get(x)
        if stab is None:
            if x == 0:
                stab = PermutationGroup(self.degree, self.chain.strong_generators(1))
            else:
                chain = self._checked_chain((x,))
                stab = PermutationGroup(self.degree,
                                        chain.strong_generators(chain.prefix_length))
            self._stabilizers[x] = stab
        return stab

    def pointwise_stabilizer(self, points) -> "PermutationGroup":
        chain = self._checked_chain(tuple(points))
        return PermutationGroup(self.degree, chain.strong_generators(chain.prefix_length))

    def elements(self) -> list[Permutation]:
        return self.chain.elements()

    def relabeled(self, phi: Permutation) -> "PermutationGroup":
        """The same group acting through the relabeling ``phi`` (old -> new points)."""
        if phi.degree != self.degree:
            raise DegreeMismatch("relabeling degree does not match group degree")
        phi_inv = phi.inverse()
        return PermutationGroup(
            self.degree, tuple(phi_inv * g * phi for g in self.generators))

    def same_group(self, other: "PermutationGroup") -> bool:
        if self.degree != other.degree or self.order() != other.order():
            return False
        return all(g in self for g in other.generators)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, generators={len(self.generators)})"


# -- generator files --------------------------------------------------------
#
# Format: a mandatory header line ``degree N`` followed by one permutation per
# line in 1-indexed disjoint-cycle notation. Blank lines and ``#`` comments
# are ignored.


def parse_generator_file(text: str) -> PermutationGroup:
    degree = None
    generators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
                raise ParseError(
                    f"line {lineno}: expected header 'degree N', got {raw!r}")
            degree = int(parts[1])
            if degree < 1:
                raise ParseError(f"line {lineno}: degree must be at least 1")
            continue
        try:
            generators.append(Permutation.parse(line, degree))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if degree is None:
        raise ParseError("missing mandatory 'degree N' header line")
    return PermutationGroup(degree, generators)


def format_generator_file(group: PermutationGroup) -> str:
    lines = [f"degree {group.degree}"]
    lines.extend(g.cycle_string() for g in group.generators)
    return "\n".join(lines) + "\n"
