"""Laws of the pure closed-form solvers, over every case and budget regime.

The solvers take and return floats, so each draw costs microseconds.  The
draws run in units of sigma_1, as ``report.core_spectrum`` gives the solvers:
sigma_k in [1e-3, 1], sigma_{k+1} / sigma_k in [0, 1 - 1e-12], and eta from
1e-12 of the gap to twice it, past every regime threshold.  Each draw
checks every law: a fixed, derandomized run of the test takes under two
seconds, most of it hypothesis's own per-draw work.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pcattack.rank_one import solve_rank_one
from pcattack.report import core_norm
from pcattack.unconstrained import solve_unconstrained

EPS = 2.0**-52


@st.composite
def _instance(draw):
    """``(sigma_k, sigma_k1, eta, case, gap)``; outside ``k<rank`` both solvers
    count sigma_{k+1} as zero, so the gap is sigma_k."""
    sigma_k = draw(st.floats(1e-3, 1.0))
    sigma_k1 = sigma_k * draw(st.floats(0.0, 1.0 - 1e-12))
    case = draw(st.sampled_from(["k<rank", "low_rank", "full_rank"]))
    gap = sigma_k - sigma_k1 if case == "k<rank" else sigma_k
    eta = gap * 10.0 ** draw(st.floats(-12.0, math.log10(2.0)))
    return sigma_k, sigma_k1, eta, case, gap


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_instance(), st.floats(1.0, 2.0))
def test_solver_laws(instance, growth):
    sigma_k, sigma_k1, eta, case, gap = instance
    theta = {}
    for solve in (solve_rank_one, solve_unconstrained):
        _, theta[solve], core = solve(sigma_k, sigma_k1, eta, case)
        # the core spends the whole budget
        assert abs(core_norm(core) - eta) <= 1e-13 * eta, (solve.__name__, core)
        # the angle is nondecreasing in eta, to within a few eps of rounding,
        # as the two budgets may be one ulp apart
        theta_more = solve(sigma_k, sigma_k1, eta * growth, case)[1]
        assert theta_more >= theta[solve] * (1.0 - 4.0 * EPS), solve.__name__
        # Wedin (1972): a perturbation of norm eta turns the top-k subspace by
        # at most sin theta <= 2 eta / (sigma_k - sigma_{k+1})
        assert math.sin(theta[solve]) <= min(1.0, 2.0 * eta / gap), solve.__name__
    # The unconstrained attack is at least the rank-one one.  Outside k<rank,
    # below sigma_k / sqrt(2), both are arcsin(eta / sigma_k) in exact
    # arithmetic; a few eps cover their rounding.
    assert theta[solve_unconstrained] >= theta[solve_rank_one] * (1.0 - 4.0 * EPS)
