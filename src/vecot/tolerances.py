"""Central numeric tolerances used across the package.

Every module compares against these constants instead of scattering
magic numbers; tests import them so the contract stays in one place.
"""

import math
import os

# entrywise equality of matrices / vectors
ENTRY_TOL = 1e-12
# constraint feasibility residuals
FEAS_TOL = 1e-9
# strict-violation margin a certificate must clear
CERT_TOL = 1e-9
# relative duality-gap bound: |primal - dual| <= GAP_TOL * (1 + |value|)
GAP_TOL = 1e-7
# minimax equality and saddle-point residuals for games
GAME_TOL = 1e-8
# dual sign and reduced-cost slack a certified optimum may show, relative
# to max(1, max|c|)
CERT_DUAL_TOL = 1e-7
# simplex pricing: a reduced cost must pass this to enter the basis
DUAL_TOL = 1e-9
# ratio test and pivot elements: smaller entries count as zero
PIV_TOL = 1e-10
# readers reject entries below -NEG_TOL and clamp the rest to zero
NEG_TOL = 1e-9
# kernel rows reject entries below -KERNEL_NEG_TOL and clamp the rest to zero
KERNEL_NEG_TOL = 1e-15
# a certificate's pointwise pairing may dip this far below zero (relative
# to the data scale where the check names one)
CERT_FLOOR_TOL = 1e-12
# a verified dominance kernel may miss its target by this much, relative
# to max(1, max|target|)
KERNEL_MISS_TOL = 1e-9
# a result re-parsed from its own text must reproduce each residual this closely
REVALIDATE_TOL = 1e-9
# strong_dominates matches totals and subset masses this closely, bucketing them
# at this width, relative to max(1, the largest component total of either measure)
SUBSET_MASS_TOL = 1e-9
# blackwell_check: a common density s fits when every density row gives <row, s> = 1 this closely
DENSITY_FIT_TOL = 1e-9
# blackwell_check: a sampled convex function is a Jensen witness when its gap
# is below -JENSEN_WITNESS_TOL
JENSEN_WITNESS_TOL = 1e-8
# trig_moment: c_0's imaginary part relative to max(1, |c_0|), and the least
# eigenvalue of the Toeplitz matrix relative to max(1, its norm)
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-9
# moment_feasible: a moment row whose entries all clear this bound, in one
# sign, can lift a certificate's floor pointwise
UNIFORMIZER_TOL = 1e-6
# two grid steps agree when they differ by at most this, relative to max(1, step)
GRID_STEP_TOL = 1e-9
# a certificate repair lifts a floor deficit by this factor, plus LIFT_PAD in
# vector._finalize_cert, so the repaired floor lands just above zero
LIFT_FACTOR = 1.0 + 1e-9
LIFT_PAD = 1e-15
# MultiRangeOracle.contains: default entrywise miss a member may show
RANGE_MEMBER_TOL = 1e-9


def tolerance(raw) -> float:
    """A tolerance as a float; raise ValueError unless it is finite and >= 0.

    This is the one tolerance rule: `--tol`, `VECOT_TOL`,
    `MultiRangeOracle.contains` and `golden.run_suite` all read theirs
    through it.  A NaN or infinite tolerance would make every comparison
    against it pass or fail regardless of the measured value, and a
    negative one would fail every comparison.  Zero is a tolerance: it
    asks for exact agreement.
    """
    value = float(raw)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {raw!r}")
    return value


def default_tol() -> float:
    """Default gap tolerance; the VECOT_TOL environment variable overrides it."""
    raw = os.environ.get("VECOT_TOL")
    if raw is None:
        return GAP_TOL
    try:
        return tolerance(raw)
    except ValueError:
        raise ValueError(f"VECOT_TOL must be a finite float >= 0, got {raw!r}") from None
