"""Check the closed forms against search oracles that know nothing of them.

``verify`` runs three independent checks on one instance and returns one
record per check, with its tolerance and its status:

1. random rank-one attacks (energy-normalized Gaussian pairs) never beat
   the rank-one closed form,
2. an exhaustive grid with golden-section refinement over the two-angle
   reduction lands on the closed-form optimum from below,
3. random dense attacks never beat the unconstrained closed form.

The script exits 1 when any check is not ``ok``.
"""

import sys

from pcattack import SearchConfig, full_svd, synth_gaussian, verify

x = synth_gaussian(5, 5, seed=29)
k = 3
sigma_k, sigma_k1 = full_svd(x).sigma[k - 1:k + 1]
eta = 0.5 * (sigma_k - sigma_k1)
print(f"instance: 5x5 Gaussian, k={k}, sigma_k={sigma_k:.5f}, "
      f"sigma_k+1={sigma_k1:.5f}, eta={eta:.5f}\n")

cfg = SearchConfig(trials=20_000, seed=7, grid_resolution=400, refine_steps=3)
checks = verify(x, k, eta, cfg)
for check in checks:
    print(f"{check.family} {check.kind}: oracle {check.oracle:.9f}, closed form "
          f"{check.closed:.9f}, tolerance {check.tol:g}: {check.status}")

passed = all(check.status == "ok" for check in checks)
print(f"\nall oracle checks {'passed' if passed else 'FAILED'}")
sys.exit(0 if passed else 1)
