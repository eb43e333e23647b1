"""Project-wide numerical policy.

Tolerances come in two tiers.  Exact-structure checks (pure linear algebra
on the cached tables, no discretization anywhere in the pipeline) are held
near machine precision.  Finite-difference pipelines are held at the floor
set by their step size.  Keeping the ladder in one place makes it obvious
which kind of error a failing check is reporting.
"""

import math

# --- exact-structure tier -------------------------------------------------

#: generic exact checks (identities evaluated on the basis)
TOL_EXACT = 1e-12

#: basis-table coefficients (+-1/2 entries), Jacobi sums, pinned tensor values
TOL_TABLE = 1e-13

#: curvature/metric property checks (Bianchi, pair symmetry, ...)
TOL_PROPERTY = 1e-11

#: constant-type identity (quartic expressions, looser)
TOL_ALPHA = 1e-9

#: coefficient extraction round trip
TOL_ROUNDTRIP = 1e-14

#: polynomial identities on small integer nodes, where every float op is exact
TOL_INTEGER_IDENTITY = 0.0

# --- finite-difference tier ----------------------------------------------

#: step for first-order central differences (frame cross-checks)
FD_STEP = 1e-5

#: analytic frame derivatives vs central differences of the closed form
TOL_FRAME_AGREEMENT = 1e-6

#: step for the five-point metric-jet stencils feeding Gauss curvature
CURV_STEP = 1e-3

#: numeric Gauss curvature vs expected constant
TOL_CURVATURE = 1e-4

#: induced metric samples vs closed forms
TOL_METRIC_CLOSED_FORM = 1e-10

#: matrix exponential vs closed-form immersion on the sample grid
TOL_EXPM_CLOSED_FORM = 1e-10

#: group-membership defect of sampled immersion points
TOL_GROUP_MEMBERSHIP = 1e-10

#: h-part of the left-translated t-derivative (must be horizontal)
TOL_HORIZONTAL = 1e-12

#: drift of the distribution amplitudes over a sample grid
TOL_AMPLITUDE_CONST = 1e-9

#: almost-complex alignment residual of the horizontal frame
TOL_AC_RESIDUAL = 1e-9

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
