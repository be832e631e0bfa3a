"""Golden reference values.

Single source of truth for the published constants that the acceptance
suite (``shoreline check`` and tests/test_acceptance.py) verifies, together
with the tolerances and the fixed Monte Carlo configuration used there.
"""

import math

# Min-max spiral optimum.
MINMAX_KAPPA = 0.2124695594
MINMAX_OBJECTIVE = 13.8111351795
MINMAX_EXP_KAPPA = 1.2367284662

# Min-mean spiral optimum.
MINMEAN_KAPPA = 0.3732051316
MINMEAN_OBJECTIVE = 7.0321857865
MINMEAN_EXP_KAPPA = 1.4523822387

# 17-digit references: each optimum recomputed with mpmath at 40 digits
# (tests/test_spiral_objectives.py recomputes the spiral ones and
# tests/test_coil.py the coil ones where mpmath is installed).  The 10-digit
# names above and below are the published values.
MINMAX_KAPPA_REF = 0.21246955941564791
MINMEAN_KAPPA_REF = 0.37320513161346673
COIL_MINMAX_GAMMA_REF = 2.0
COIL_MEAN_GAMMA_FOR_MIN_REF = 5.7041372673478367
COIL_MEAN_GAMMA_FOR_MAX_REF = 3.2232549401002926
MIXED_GAMMA_REF = 3.5911214766686221

# Historically published erroneous estimates (argmin and minimum of
# e^(kappa*theta1)/kappa; the true worst-case arclength at that argmin is
# ~13.827, reported alongside for context).
ERRONEOUS_KAPPA = 0.22325
ERRONEOUS_VALUE = 13.49

# Min-max coil.
COIL_MINMAX_GAMMA = 2.0
COIL_MINMAX_RATIO = 9.0
COIL_DELTA_PLUS_ONE = 3.0  # delta(+1) at gamma = 2
COIL_DELTA_MINUS_ONE = 5.0  # delta(-1) at gamma = 2

# Normalized-average extrema at gamma = 2 (exact closed forms).
RATIO_MIN_G2 = 1.0 + 6.0 * math.log(2.0)
RATIO_MAX_G2 = 1.0 + 12.0 / math.e

# Min-mean coil optima (period-minimum criterion, then period-maximum).
COIL_MEAN_GAMMA_FOR_MIN = 5.7041372673
COIL_MEAN_MIN = 4.0089813375
COIL_MEAN_GAMMA_FOR_MAX = 3.2232549401
COIL_MEAN_MAX = 4.8131558458

# Mixed (phase-randomized) strategy.
MIXED_GAMMA = 3.591121476669  # = 1/W(1/e)

# Fixed Monte Carlo configuration for the acceptance runs.
CHECK_SEED = 7
MC_SAMPLES = 1_000_000
