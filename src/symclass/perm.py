"""Permutations of {0, ..., n-1}.

Composition is left-to-right throughout the package: ``(p * q)(i) == q(p(i))``,
i.e. apply ``p`` first and ``q`` second. Points are 0-indexed internally;
textual cycle notation (generator files, CLI output) is 1-indexed and
converted at this boundary.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter

from .errors import DegreeMismatch, NotAPermutation, ParseError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[,\s]+")


def _compose(a: tuple, b: tuple) -> tuple:
    """Image tuple of ``a`` followed by ``b`` (both of the same degree)."""
    if len(a) == 1:
        # itemgetter with a single index returns the item, not a 1-tuple
        return (b[a[0]],)
    return itemgetter(*a)(b)


class Permutation:
    """An immutable bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise NotAPermutation("a permutation needs degree at least 1")
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise NotAPermutation(f"{images!r} is not a bijection of 0..{n - 1}")
            seen[x] = True
        self.images = images
        self._hash = None

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        # internal fast path: images must already be a valid image tuple
        p = object.__new__(cls)
        p.images = images
        p._hash = None
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise NotAPermutation("a permutation needs degree at least 1")
        return cls._raw(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from 0-indexed disjoint cycles; unmentioned points are fixed."""
        images = list(range(n))
        touched = set()
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if not isinstance(x, int) or not 0 <= x < n:
                    raise NotAPermutation(f"point {x!r} out of range for degree {n}")
                if x in touched:
                    raise NotAPermutation(f"point {x} appears in two cycles")
                touched.add(x)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls._raw(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-indexed disjoint-cycle notation, e.g. ``(1 2)(3 4 5)``.

        ``()`` denotes the identity. Separators inside a cycle may be spaces
        or commas.
        """
        stripped = _CYCLE_RE.sub("", text).strip()
        if stripped:
            raise ParseError(f"unexpected text {stripped!r} outside cycles in {text!r}")
        cycles = []
        for match in _CYCLE_RE.finditer(text):
            body = match.group(1).strip()
            if not body:
                continue
            points = []
            for token in _SEP_RE.split(body):
                if not token.isdigit():
                    raise ParseError(f"bad cycle entry {token!r} in {text!r}")
                value = int(token)
                if not 1 <= value <= degree:
                    raise ParseError(
                        f"point {value} out of range 1..{degree} in {text!r}")
                points.append(value - 1)
            cycles.append(points)
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        b = other.images
        if len(b) != len(self.images):
            raise DegreeMismatch(
                f"cannot compose degree {len(self.images)} with degree {len(b)}")
        return Permutation._raw(_compose(self.images, b))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def support(self) -> tuple:
        """Points moved by this permutation, ascending."""
        return tuple(i for i, j in enumerate(self.images) if i != j)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> list:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        out = []
        seen = set()
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        """1-indexed disjoint-cycle notation; identity renders as ``()``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return (len(self.images), self.images) < (len(other.images), other.images)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self):
        return f"Permutation[{self.degree}] {self.cycle_string()}"
