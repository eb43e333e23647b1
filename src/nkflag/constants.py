"""Project-wide numerical policy.

Each check takes its tolerance from its source of error, in two tiers.
Exact checks take no finite difference anywhere in the pipeline.  Those
whose arithmetic rounds (``expm``, the six analytic surface rows) are held
near machine precision by ``TOL_EXACT``; those that read integral tables,
where no float op rounds (every ``verify`` basis row, the surface Lie
triples, the family tangency, polynomial identities on integer nodes),
must read 0 under ``TOL_INTEGER_IDENTITY``.  The finite-difference
tier holds only finite differences, each at the floor set by its step
size: ``TOL_FRAME_AGREEMENT`` for the difference frames and
``TOL_CURVATURE`` for the stencil Gauss curvature.  The six surfaces'
curvature and totally geodesic residual now come from closed-form jets
and read about 1e-13, but stay under ``TOL_CURVATURE`` until a tighter
bound is derived for them.  Keeping the ladder in one place makes it
obvious which kind of error a failing check is reporting.
"""

import math

# --- exact-structure tier -------------------------------------------------

#: exact checks whose arithmetic rounds; the default of ``verify --tol-exact``
TOL_EXACT = 1e-12

#: integral tables and polynomial identities on integer nodes: no op rounds
TOL_INTEGER_IDENTITY = 0.0

# --- finite-difference tier ----------------------------------------------

#: step for first-order central differences (frame cross-checks)
FD_STEP = 1e-5

#: analytic frame derivatives vs central differences of the closed form
TOL_FRAME_AGREEMENT = 1e-6

#: step for the five-point metric-jet stencils: the Gauss curvature of the
#: sheared chart and of the control plane (the six surfaces' own charts take
#: closed-form jets)
CURV_STEP = 1e-3

#: Gauss curvature vs expected constant, and the totally geodesic residual
TOL_CURVATURE = 1e-4

#: induced metric is treated as degenerate below this |det| scale
DEGENERATE_METRIC_MIN = 1e-6

# --- classification grid oracle -------------------------------------------

#: leaf box width of the oracle's branch-and-bound over the simplex a + b + c = 1
GRID_ORACLE_STEP = 1e-3

#: refined oracle candidates must match the case analysis this closely
ORACLE_MATCH_TOL = 1e-8

#: an oracle box whose residual lower bound exceeds this holds no solution
ORACLE_HIT_THRESHOLD = 5e-3

#: "all amplitudes nonzero" means all of a, b, c at least this large
NONZERO_MARGIN = 0.1

#: certified lower bound for the residual on the all-nonzero region (pseudo)
NONZERO_EMPTY_BOUND = 1e-2

#: negative controls must miss by at least this much
CONTROL_RESIDUAL_MIN = 1e-2

# --- sampling defaults -----------------------------------------------------

DEFAULT_SEED = 1729
DEFAULT_GRID = 41

#: curvature-grid t ranges; trig surfaces avoid the t=0 coordinate degeneracy
TRIG_T_RANGE = (0.05, math.pi - 0.05)
HYPERBOLIC_T_RANGE = (0.05, 2.0)

#: exponential cross-check grids
EXPM_T_MAX_TRIG = 2.0 * math.pi
EXPM_T_MAX_HYPERBOLIC = 2.0
