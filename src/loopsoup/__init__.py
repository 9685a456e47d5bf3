"""Simulation and numerical verification lab for the two-dimensional
killed-random-walk loop soup: exact walk combinatorics, the closed-form Green's
function (walk series as cross-check), the determinant law det(G_B)^{-u} with
exact small-set cover laws, exact soup sampling, and cover-time Monte Carlo."""

__version__ = "0.1.0"

from .cover import (BoxTarget, CoverEngine, EmpiricalDistribution,
                    PointsTarget, ks_distance, make_target)
from .greens import (GreensTable, MuGammaO, check_green_bounds, green_origin,
                     greens_table, greens_value, mu_gamma_o, rooted_intensity,
                     verify_appendix_bounds)
from .laws import (TargetSet, cover_law, gumbel_cdf, one_point_law,
                   prob_no_shared_loop, prob_uncovered, second_moment_report,
                   u_star)
from .sampler import (LengthDistribution, SoupSample, extend_soup, length_pmf,
                      sample_window_soup)
from .walks import WalkCountTable, count_walks_diagonal, verify_dominance
