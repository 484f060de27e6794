"""Step-by-step walkthrough of the unconstrained attack's closed-form chain.

Without a rank constraint the optimal perturbation, written in the SVD
coordinates of the data, touches only four entries: the 2x2 block at the
k-th and (k+1)-th rows and columns.  Solving for that block reduces to
maximizing a ratio of two quadratic forms, which is done by a feasibility
argument: the budget eta admits objective value lambda iff a chain of
scalar quantities stays feasible, and the largest feasible lambda has a
closed form.
"""

import numpy as np

from pcattack import (attack_unconstrained, closed_form_lambda, pca_distance,
                      recover_entries)

sigma_k, sigma_k1, eta = 2.0, 1.0, 0.5
x = np.diag([3.0, sigma_k, sigma_k1])
k = 2

print(f"data spectrum: {np.diag(x)},  attacking the k={k} leading components")
print(f"budget eta = {eta}  (threshold for pi/2 is "
      f"(sigma_k - sigma_k1)/sqrt(2) = {(sigma_k - sigma_k1) / np.sqrt(2):.5f})\n")

ci = closed_form_lambda(sigma_k, sigma_k1, eta)
print("feasibility chain:")
print(f"  c          = (sigma_k^2 + sigma_k1^2)/2 - eta^2       = {ci.c}")
print(f"  w          = (c^2 - sigma_k^2 sigma_k1^2) / gap^2     = {ci.w:.12f}")
print(f"  e          = sqrt((1 + s)/(1 - s)), s = sqrt(1 - 4w)  = {ci.e:.12f}")
print(f"  lambda_max = (e^2 - 1) / (2e)                         = {ci.lambda_max:.12f}")
print(f"  theta*     = atan(lambda_max) / 2                     = {ci.theta_star:.12f}")

# The chain reduces to two terms, s gap^2 and sqrt(1 - s^2) gap^2, which the
# solver evaluates; neither divides by gap^2 = sigma_k^2 - sigma_k1^2.
y = 2 * eta * np.sqrt(sigma_k**2 + sigma_k1**2 - eta**2)
x_term = np.sqrt(((sigma_k - sigma_k1) ** 2 - 2 * eta**2)
                 * ((sigma_k + sigma_k1) ** 2 - 2 * eta**2))
print("two-term form (sk, sk1 = sigma_k, sigma_k1):")
for name, formula, value in [
        ("y", "2 eta sqrt(sk^2 + sk1^2 - eta^2)", y),
        ("x", "sqrt(((sk - sk1)^2 - 2 eta^2)((sk + sk1)^2 - 2 eta^2))", x_term),
        ("lambda_max", "y / x", y / x_term),
        ("theta*", "atan2(y, x) / 2", np.arctan2(y, x_term) / 2)]:
    print(f"  {name:<10} = {formula:<54} = {value:.12f}")

entries = recover_entries(ci, sigma_k, sigma_k1)
print(f"\nrecovered 2x2 block entries (b_kk, b_k1k, b_kk1, b_k1k1):")
print(f"  {np.round(entries, 9)}")
print(f"  norm = {np.linalg.norm(entries):.12f}  (the full budget, as expected)")

pm, report = attack_unconstrained(x, k, eta)
print(f"\nassembled attack: ||delta||_F = {pm.budget_used:.12f}")
theta, _ = pca_distance(x, x + pm.delta, k)
print(f"achieved rotation by rerunning PCA: {theta:.12f}")
print(f"prediction error: {abs(theta - ci.theta_star):.2e}")

# Past the threshold, a plain diagonal shift already forces a 90-degree
# rotation: drain the k-th direction, pump the (k+1)-th.
pm_big, report_big = attack_unconstrained(x, k, 0.8)
print(f"\nat eta = 0.8 (past the threshold): regime {report_big.regime.value}, "
      f"achieved {report_big.theta_achieved:.9f} (pi/2 = {np.pi / 2:.9f})")
