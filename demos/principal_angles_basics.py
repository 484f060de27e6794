"""Principal angles, the Asimov distance, and why they are the right metric.

The distance between two k-dimensional subspaces is summarized by k
principal angles; the largest of them (the Asimov distance) is what the
attacks in this package maximize.  This script shows the basic mechanics:
computation from singular values on two planes whose angles are known
exactly, and invariance under rotations of everything.
"""

import numpy as np

from pcattack import (asimov_distance, leading_subspace, pca_distance, principal_angles,
                      unitary_conjugate)

# Two planes in R^3 sharing one direction: angles are exactly {0, phi}.
phi = 0.6
a = np.eye(3)[:, :2]
b = np.column_stack([np.eye(3)[:, 0],
                     [0.0, np.cos(phi), np.sin(phi)]])
print("planes sharing a line:", np.round(principal_angles(a, b), 9),
      f"(phi = {phi})")
print("asimov distance:", round(asimov_distance(a, b), 9))

# Rotating data and comparison matrix together changes nothing: subspace
# geometry only sees the spectrum and relative orientation.
rng = np.random.default_rng(3)
x = rng.standard_normal((4, 6))
y = rng.standard_normal((4, 6))
p, _ = np.linalg.qr(rng.standard_normal((4, 4)))
t, _ = np.linalg.qr(rng.standard_normal((6, 6)))
before, _ = pca_distance(x, y, 2)
after, _ = pca_distance(unitary_conjugate(x, p, t), unitary_conjugate(y, p, t), 2)
print(f"\nrotation invariance: {before:.12f} vs {after:.12f}")

# PCA truncations with tied trailing singular values are flagged: the
# subspace is then not well defined and attacks must not trust it.
print("\ntied spectrum flag:", leading_subspace(np.eye(3), 2).ambiguous)
print("clean spectrum flag:", leading_subspace(np.diag([3.0, 2.0, 1.0]), 2).ambiguous)
