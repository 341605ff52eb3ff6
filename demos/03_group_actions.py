"""
Derived actions: projections, kernels, blocks, subgroup lattices
================================================================
"""

from symclass import (
    enumerate_subgroups,
    find_block_systems,
    induced_action,
    transitivity_degree_tests,
)
from symclass.classify import check_condition_3_1
from symclass.families import alt, direct_product, octahedral, sym, wreath_grid

# S2 x S4 on the 2 x 4 grid: the action induced on the two rows is the swap
group = wreath_grid(4)
rows = [set(range(4)), set(range(4, 8))]
projection, _ = induced_action(group, rows)
# the kernel of that action is S4 on the columns, read off the grid condition
print("row projection order:", projection.order(),
      "| kernel order:", check_condition_3_1(group, 4).kernel_order)

# transitivity degrees from orbit counts
for name, g in [("S4", sym(4)), ("A4", alt(4)),
                ("S2 x A4", direct_product(sym(2), alt(4)))]:
    flags = transitivity_degree_tests(g)
    print(f"{name}: transitive={flags.transitive} 2-homogeneous={flags.two_homogeneous} "
          f"2-transitive={flags.two_transitive} 3-transitive={flags.three_transitive}")

# the octahedron group preserves the three antipodal pairs
systems = find_block_systems(octahedral())
print("octahedral block systems:", [s.blocks for s in systems])
print("octahedral primitive?", not systems)

# the full subgroup lattice of S4 (exhaustive closure walk)
subgroups = enumerate_subgroups(sym(4))
orders = {}
for sub in subgroups:
    orders[sub.order()] = orders.get(sub.order(), 0) + 1
print("S4 subgroup census (order -> count):", dict(sorted(orders.items())))
