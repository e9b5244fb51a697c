"""Transition data on cover nerves: cocycles, coboundaries, holonomy.

Run with: python demos/03_cech_cocycles.py
"""

import torsorkit as tk

# A nerve records which overlaps of an abstract cover are nonempty. Three
# arcs of a circle overlap pairwise but share no triple point.
circle = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)])
triangle = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)], triples=[(0, 1, 2)])
z2 = tk.catalog_group("cyclic(2)")

# With no triple overlaps every assignment is a cocycle, but not every
# cocycle can be trivialized: the obstruction is the holonomy around the
# cycle.
c = tk.check_cocycle(circle, z2, {(0, 1): 0, (1, 2): 0, (0, 2): 1})
print("circle nerve, Z/2 transition data (0,0,1):")
print("  holonomy around 0 -> 1 -> 2 -> 0:", tk.holonomy(c, [0, 1, 2, 0]))
print("  trivializable?", not isinstance(tk.find_trivialization(c), tk.NotTrivial))

trivial = tk.check_cocycle(circle, z2, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
h = tk.find_trivialization(trivial)
print("  the zero cocycle trivializes with cochain", h.h)

# Coboundaries move between equivalent descriptions of the same glued
# object; applying a cochain twice with its inverse is a round trip.
s3 = tk.catalog_group("symmetric(3)")
cs = tk.check_cocycle(circle, s3, {(0, 1): 3, (1, 2): 2, (0, 2): 5})
cochain = tk.make_cochain(circle, s3, [1, 4, 2])
moved = tk.apply_coboundary(cs, cochain)
back = tk.apply_coboundary(
    moved, tk.make_cochain(circle, s3, [s3.inv(v) for v in cochain.h])
)
print("\nnonabelian coboundary round trip restores the cocycle:",
      back.g == cs.g)

# Classification at desk scale: the gauge is fixed on a spanning tree, so
# only the non-tree edge values are enumerated, up to conjugation. Over Z/2
# the circle has two classes (holonomy 0 or 1); over symmetric(3) one class
# per conjugacy class of the holonomy; the full triangle forces triviality.
for name, nerve, group in (
    ("circle / Z2", circle, z2),
    ("circle / S3", circle, s3),
    ("triangle / Z2", triangle, z2),
):
    classes = tk.equivalence_classes(nerve, group)
    sizes = [cls.size for cls in classes]
    print(f"  {name}: {len(classes)} classes, sizes {sizes}")
