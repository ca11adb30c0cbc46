"""Interacting particles on the torus: simulation, correction hierarchy, bounds.

The package has three layers.  The analytic layer solves the mean-field
density and its finite-size correction hierarchy on a periodic spectral grid
(`pde`), with the one partition-product sum that assembles the corrections
in `partitions` and shared grid/kernel primitives in `core`.  The stochastic
layer simulates the interacting particle system (`particles`) and estimates
the histogram chi-squared and paired pair cumulants from replica ensembles
(`metrics`).  The certification layer evaluates damping integrals and
cascade bounds for hierarchies of differential inequalities (`bounds`), and
`experiments`/`cli` drive end-to-end rate studies against the solved
predictions.  Each module's `__all__` is its public list, and names are
imported from their module (`from pchaos.pde import GTable`).
"""

__version__ = "0.1.0"
