"""
Graph kernel: layers, girth, intersection numbers, line graphs, graph6
======================================================================
"""

from symclass import (
    complement,
    distance_partition,
    encode_graph6,
    girth,
    intersection_numbers,
    line_graph,
)
from symclass.families import (
    complete,
    grid,
    grid_complement,
    hamming,
    icosahedron,
)

# the 2 x m grid complement (complete bipartite minus a perfect matching)
gc4 = grid_complement(4)
print("grid_complement(4): layer sizes from vertex 0:",
      [len(layer) for layer in distance_partition(gc4.graph, 0).layers])
print("girth:", girth(gc4.graph))

# it is the same labeled graph as the complement of the 2 x 4 grid
print("complement(grid(2,4)) == grid_complement(4):",
      complement(grid(2, 4).graph) == gc4.graph)

# per-layer intersection numbers (c_i, a_i, b_i)
inter = intersection_numbers(grid_complement(6).graph, 0)
print("grid_complement(6) triples:", inter.triples)

# the icosahedron, laid out by distance from one vertex
ico = icosahedron()
print("icosahedron layers:",
      [len(layer) for layer in distance_partition(ico.graph, 0).layers])

# line graphs: vertices are edges, adjacency is sharing an endpoint
lk4, edges = line_graph(complete(4).graph)
print("L(K4):", lk4.n, "vertices of valency", lk4.valency(), "- girth", girth(lk4))

# graph6 codec round trip
code = encode_graph6(hamming(3, 2).graph)
print("hamming(3,2) as graph6:", code)
