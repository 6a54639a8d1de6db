"""2-descent via 2-isogeny for curves with a rational 2-torsion point.

Library layout:

  arith    exact integer primitives (primality, valuations, symbols)
  local    solvability of w^2 = d1 + c z^2 + d2 z^4 over R and Q_l
  descent  curves, Selmer groups, point search, rank bounds
  family   everything specific to y^2 = x^3 + 18p^2x
  points   rational points: group law, isogenies, torsion, space points
  cli      command-line front end (isodescent ...)
  workers  the forked processes of a multi-process scan
"""

from .arith import (
    is_prime,
    jacobi,
    primes_up_to,
    quartic_symbol,
    squarefree_class,
    valuation,
)
from .descent import (
    CurveModel,
    RankBounds,
    SelmerGroup,
    alpha_image,
    bad_places,
    divisor_classes,
    dual_curve,
    rank_bounds,
    selmer,
)
from .family import (
    FamilyReport,
    PrimeClass,
    ReprWitness,
    classify,
    closed_form_selmer_psi,
    closed_form_selmer_psibar,
    curve_for_prime,
    find_repr,
    proposition_rank,
    theorem_bound,
    verify_prime,
)
from .local import (
    INFINITY,
    Place,
    QuarticForm,
    solvable_everywhere_locally,
    solvable_padic,
    solvable_real,
)

__version__ = "0.1.0"
