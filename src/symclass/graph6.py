"""graph6 codec (McKay's format).

A graph is one line of printable ASCII: N(n) encodes the vertex count, then
the upper triangle of the adjacency matrix in column order, packed six bits
per byte, every byte offset by 63. This implementation caps n at 258047
(one- and four-byte size headers), and the encoder refuses a body of more
than ``BODY_CAP`` bytes before packing any bit.
"""

from __future__ import annotations

import base64

from .errors import Graph6Error, SizeCapExceeded
from .graphs import Graph

_MAX_N = 258047
BODY_CAP = 1 << 24
# base64 packs six bits per byte too; map its digits to graph6's 63 + value
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


def encode_graph6(g: Graph) -> str:
    if g.n > _MAX_N:
        raise Graph6Error(f"vertex count {g.n} exceeds the supported cap {_MAX_N}")
    nbits = g.n * (g.n - 1) // 2
    size = (nbits + 5) // 6
    if size > BODY_CAP:
        raise SizeCapExceeded(
            f"graph6 body of {g.n} vertices is {size} bytes, above the cap {BODY_CAP}")
    # edge (i, j), i < j, is bit j(j-1)/2 + i; whole 3-byte groups, so base64
    # adds no padding and the zero bits past nbits are graph6's own padding
    bits = bytearray(3 * ((nbits + 23) // 24))
    for j, nbrs in enumerate(g.adjacency):
        for i in nbrs:
            if i >= j:
                break
            pos = j * (j - 1) // 2 + i
            bits[pos >> 3] |= 128 >> (pos & 7)
    body = base64.b64encode(bits)[:size].translate(_BASE64_TO_GRAPH6)
    return _encode_size(g.n) + body.decode("ascii")


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    data = []
    for pos, ch in enumerate(s):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(f"invalid graph6 byte {ch!r} at position {pos}")
        data.append(value)
    if data[0] == 63:  # '~' prefix: 18-bit size
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size header")
        if data[1] == 63:
            raise Graph6Error(f"vertex counts above {_MAX_N} are not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
        body_start = 4
    else:
        n = data[0]
        body = data[1:]
        body_start = 1
    if n > _MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds the supported cap {_MAX_N}")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"body has {len(body)} bytes, expected {expected} for {n} vertices")
    bits = []
    for value in body:
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if any(bits[nbits:]):
        bad = nbits // 6 + body_start
        raise Graph6Error(f"nonzero padding bits in byte at position {bad}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)


def decode_graph6_lines(text: str) -> list[Graph]:
    """Decode a newline-separated stream of graph6 strings."""
    graphs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            graphs.append(decode_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
    return graphs
