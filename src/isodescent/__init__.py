"""2-descent via 2-isogeny for curves with a rational 2-torsion point.

Library layout:

  arith    exact integer primitives (primality, valuations, symbols)
  local    solvability of w^2 = d1 + c z^2 + d2 z^4 over R and Q_l
  descent  curves, Selmer groups, point search, rank bounds
  family   everything specific to y^2 = x^3 + 18p^2x
  points   rational points: group law, isogenies, torsion, space points
  cli      command-line front end (isodescent ...)
  workers  the forked processes of a multi-process scan

Every name is imported from its module (from isodescent.descent import selmer).
"""

__version__ = "0.1.0"
