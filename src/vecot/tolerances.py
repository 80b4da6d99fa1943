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
# chain-transport duality equality
CHAIN_TOL = 1e-6
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


def tolerance(raw) -> float:
    """A tolerance as a float; raise ValueError unless it is finite.

    A NaN or infinite tolerance would make every comparison against it
    pass or fail regardless of the measured value.
    """
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"tolerance must be finite, got {raw!r}")
    return value


def default_tol() -> float:
    """Default gap tolerance; the VECOT_TOL environment variable overrides it."""
    raw = os.environ.get("VECOT_TOL")
    if raw is None:
        return GAP_TOL
    try:
        value = tolerance(raw)
    except ValueError:
        raise ValueError(f"VECOT_TOL must parse as a finite float, got {raw!r}") from None
    if value <= 0.0:
        raise ValueError("VECOT_TOL must be positive")
    return value
