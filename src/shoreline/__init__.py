"""Optimal search paths for an unknown shoreline.

Planar case: outward logarithmic spirals r = e^(kappa*theta) with the
worst-case (min-max) and uniform-direction mean (min-mean) arclength
criteria.  Linear case: logarithmic coils (geometric zig-zags) with the
worst-case ratio, the normalized-average criteria, and the phase-randomized
mixed strategy.  Every closed form ships with an independent simulation
oracle; see the `simulate` module and the `shoreline check` acceptance suite.
"""

from .numerics import NumericalError
from .spiral_geometry import Spiral, second_contact
from .spiral_objectives import (erroneous_objective, minimize_minmax, minimize_minmean,
                                minmax_objective, minmax_system_objective, minmean_objective,
                                minmean_system_objective, solve_minmax_system,
                                solve_minmean_system)
from .coil import (Coil, average_ratio, mixed_expected_ratio, optimal_minmax_coil,
                   optimal_minmean_coil, optimal_mixed, ratio_extrema, travel_distance,
                   worst_case_ratio)
from .simulate import SimConfig, mixed_strategy_sample, monte_carlo_mean_arclength

__version__ = "0.1.0"
