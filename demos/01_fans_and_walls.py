"""
Building fans and inspecting their structure
============================================

A fan is handed over as primitive integer rays plus maximal cones given by
ray indices; validation derives the face lattice, the walls, and the
simplicial/complete flags.
"""

from fanforge import validate_fan, minimal_cone_containing
from fanforge import corpus

# the complete simplicial fan over a split square pyramid: five rays,
# six maximal cones
fan = corpus.split_pyramid_fan()
print(fan)
print("rays:", fan.rays)

# every codimension-one face knows the maximal cones on both sides
for wall in fan.interior_walls:
    left, right = (fan.max_cones[k] for k in wall.cone_indices)
    print("wall", wall.ray_indices, "between", left.ray_indices, "and", right.ray_indices)

# any point of the support lies in a unique minimal face
print("minimal cone of (0,0,1):", minimal_cone_containing(fan, (0, 0, 1)).ray_indices)
print("minimal cone of (1,1,1):", minimal_cone_containing(fan, (1, 1, 1)).ray_indices)

# fans are validated on construction; improper input is rejected
try:
    validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3]])
except Exception as e:
    print("rejected:", e)

# the same rays with the square cone left whole give a non-simplicial fan
coarse = corpus.square_pyramid_fan()
print(coarse)
print("fat cone:", [c.ray_indices for c in coarse.max_cones if len(c.ray_indices) > 3])
