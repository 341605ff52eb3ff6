import random
import tracemalloc

import pytest

import symclass.graph6 as graph6_module
from symclass import Graph, decode_graph6, decode_graph6_lines, encode_graph6
from symclass.errors import Graph6Error, SizeCapExceeded
from symclass.families import (
    complete,
    cycle,
    grid_complement,
    hamming,
    icosahedron,
    octahedron,
    petersen,
)


def test_k4_is_c_tilde():
    # n=4 -> chr(67)='C'; all six upper-triangle bits set -> 63+63 = '~'
    assert encode_graph6(complete(4).graph) == "C~"
    assert decode_graph6("C~") == complete(4).graph


def test_empty_graph():
    assert decode_graph6("?") == Graph(0)
    assert encode_graph6(Graph(0)) == "?"


def test_round_trip_corpus():
    graphs = [complete(1).graph, complete(7).graph, cycle(9).graph,
              octahedron().graph, icosahedron().graph, petersen().graph,
              grid_complement(6).graph, hamming(5, 2).graph, Graph(5)]
    for g in graphs:
        assert decode_graph6(encode_graph6(g)) == g


def test_size_header_boundary():
    small = Graph(62, [(0, 61)])
    assert not encode_graph6(small).startswith("~")
    assert decode_graph6(encode_graph6(small)) == small
    g = Graph(63, [(0, 1), (10, 62)])
    code = encode_graph6(g)
    assert code.startswith("~")
    assert decode_graph6(code) == g


def test_size_cap():
    with pytest.raises(Graph6Error):
        encode_graph6(Graph(258048))


def _listed_bits_encoding(g: Graph) -> str:
    """graph6 from the full list of upper-triangle bits, six to a byte."""
    bits = [int(g.has_edge(i, j)) for j in range(1, g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[p:p + 6])), 2))
                   for p in range(0, len(bits), 6))
    return graph6_module._encode_size(g.n) + body


def test_encoding_matches_the_listed_bits():
    rng = random.Random(7)
    for n in list(range(12)) + [62, 63, 64, 100] + [rng.randrange(13, 90) for _ in range(40)]:
        p = rng.choice((0.0, 0.1, 0.5, 1.0))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        code = encode_graph6(g)
        assert code == _listed_bits_encoding(g)
        assert decode_graph6(code) == g
    h = hamming(7, 2).graph
    assert encode_graph6(h) == _listed_bits_encoding(h)


def test_body_cap_is_checked_before_any_bit_is_packed(monkeypatch):
    big = Graph(20000)  # 33 MB of graph6 body, 25 MB of packed bits
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="above the cap"):
            encode_graph6(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the cap is on body bytes: 11 vertices need 10 (55 bits), 12 need 11
    monkeypatch.setattr(graph6_module, "BODY_CAP", 10)
    assert decode_graph6(encode_graph6(complete(11).graph)) == complete(11).graph
    with pytest.raises(SizeCapExceeded):
        encode_graph6(complete(12).graph)
    # the format's own vertex cap is checked first
    with pytest.raises(Graph6Error):
        encode_graph6(Graph(258048))


def test_invalid_byte_reports_position():
    with pytest.raises(Graph6Error, match="position"):
        decode_graph6("C\x07")


def test_truncated_body():
    with pytest.raises(Graph6Error, match="expected"):
        decode_graph6("E~")  # 6 vertices need 3 body bytes


def test_nonzero_padding_rejected():
    # K3 is "Bw": n=3, bits 11 padded with four zeros; force a padding bit on
    assert decode_graph6("Bw").edge_count() == 3
    with pytest.raises(Graph6Error, match="padding"):
        decode_graph6("B" + chr(63 + 0b111111))


def test_decode_lines():
    text = "\n".join([encode_graph6(cycle(5).graph), "", encode_graph6(complete(3).graph)])
    graphs = decode_graph6_lines(text)
    assert [g.n for g in graphs] == [5, 3]
    with pytest.raises(Graph6Error, match="line 2"):
        decode_graph6_lines("C~\nC\x07\n")
