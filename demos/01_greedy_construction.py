"""
Building greedy trees from internal degree sequences
====================================================

The greedy tree hands out the largest remaining degrees level by
level, starting from a maximum-degree root.  This walk builds a few
of them and prints the structure next to the Sombor index.
"""

from sombor import DegreeSequence, build_greedy_tree, check_level_monotonicity, leaf_levels

for text in ("3,2", "3,3,2", "4,3,2", "4,4,4", "2,2,2,2"):
    seq = DegreeSequence.from_text(text)
    tree = build_greedy_tree(seq).tree

    print(f"degree sequence {seq}: {tree.n} vertices")
    print("  edges:", " ".join(f"{u}-{v}" for u, v in tree.edges))
    print(f"  Sombor index = {tree.sombor():.9f}")

    # distance to the nearest pendant vertex, per vertex; in a greedy
    # tree the degrees only rise as that distance grows
    print("  leaf distance per vertex:", list(leaf_levels(tree)))
    print("  degrees rise toward the center:", check_level_monotonicity(tree))
    print()
