"""Check the closed forms against search oracles that know nothing of them.

Three independent checks on one instance:

1. random rank-one attacks (energy-normalized Gaussian pairs) never beat
   the rank-one closed form,
2. an exhaustive grid with golden-section refinement over the two-angle
   reduction lands on the closed-form optimum from below,
3. random dense attacks never beat the unconstrained closed form, and the
   finite-difference stationarity residual vanishes at the solution angles.
"""

import numpy as np

from pcattack import (SearchConfig, attack_rank_one, attack_unconstrained,
                      full_svd, grid_search_angles, klt_rank_closed_form,
                      random_rank_one, random_unconstrained, stationarity_residual,
                      synth_gaussian)

x = synth_gaussian(5, 5, seed=29)
svd = full_svd(x)
k = 3
sigma_k, sigma_k1 = svd.sigma[k - 1], svd.sigma[k]
eta = 0.5 * (sigma_k - sigma_k1)
print(f"instance: 5x5 Gaussian, k={k}, sigma_k={sigma_k:.5f}, "
      f"sigma_k+1={sigma_k1:.5f}, eta={eta:.5f}\n")

cfg = SearchConfig(trials=20_000, seed=7, grid_resolution=400, refine_steps=3)

_, r1_report = attack_rank_one(x, k, eta)
cf = klt_rank_closed_form(sigma_k, sigma_k1, eta)
_, best_r1 = random_rank_one(x, k, eta, cfg)
print(f"rank-one closed form: theta* = {cf.theta_star:.9f} "
      f"(achieved by re-running PCA: {r1_report.theta_achieved:.9f})")
print(f"best of {cfg.trials} random rank-one attacks: {best_r1:.9f} "
      f"(margin {cf.theta_star - best_r1:+.2e})")

alpha, beta, grid_theta = grid_search_angles(sigma_k, sigma_k1, eta, cfg)
print(f"grid + refinement over the two angles: {grid_theta:.9f} "
      f"(margin {cf.theta_star - grid_theta:+.2e})")
res = stationarity_residual(sigma_k, sigma_k1, eta, cf.alpha_star, cf.beta_star)
print(f"stationarity residual at (alpha*, beta*): {res:.2e}\n")

pm, report = attack_unconstrained(x, k, eta)
_, best_wr = random_unconstrained(x, k, eta, cfg)
print(f"unconstrained closed form: theta* = {report.theta_predicted:.9f}")
print(f"best of {cfg.trials} random dense attacks: {best_wr:.9f} "
      f"(margin {report.theta_predicted - best_wr:+.2e})")

ok = (best_r1 <= cf.theta_star + 1e-4
      and grid_theta <= cf.theta_star + 1e-6
      and best_wr <= report.theta_predicted + 1e-4
      and res < 1e-6)
print(f"\nall oracle checks {'passed' if ok else 'FAILED'}")
