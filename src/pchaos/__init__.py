"""Interacting particles on the torus: simulation, correction hierarchy, bounds.

The package has three layers.  The analytic layer solves the mean-field
density and its finite-size correction hierarchy on a periodic spectral grid
(`pde`), with the one partition-product sum that assembles the corrections
in `partitions` and shared grid/kernel primitives in `core`.  The stochastic
layer simulates the interacting particle system (`particles`) and estimates
histogram divergences and paired pair cumulants from replica ensembles
(`metrics`).  The certification layer evaluates damping integrals and
cascade bounds for hierarchies of differential inequalities (`bounds`), and
`experiments`/`cli` drive end-to-end rate studies against the solved
predictions.
"""

from .bounds import (
    BoundCascade,
    cascade_bound,
    eval_I,
    eval_I_table,
    exp_bound,
    integrate_hierarchy,
    poly_bound,
    recurrence_residual_sweep,
)
from .config import Config, ConfigError, load_config, parse_config_text
from .core import (
    GridField,
    KernelSpec,
    TorusGrid,
    fourier_field,
    product_field,
)
from .experiments import (
    BoundsReport,
    ExperimentConfig,
    RateFit,
    RateResult,
    fit_rate,
    run_bounds_report,
    run_rate_experiment,
)
from .metrics import (
    DivergenceReport,
    bin_masses,
    chi_squared_from_samples,
    divergence_report_from_samples,
    histogram_bins,
    paired_pair_cumulant_difference,
    weighted_l2_error,
)
from .particles import (
    SimConfig,
    SnapshotSet,
    em_step,
    extract_marginal_samples,
    mode_sum_drift,
    pair_drift,
    run_ensemble,
    sample_initial,
)
from .partitions import (
    assemble_correction,
    enumerate_partitions,
    max_asymmetry,
    solve_order,
)
from .pde import (
    BBGKYResult,
    EnergyReport,
    GTable,
    TimeGrid,
    Trajectory,
    assemble_phi,
    check_energy_inequality,
    compute_remainder,
    solve_bbgky_reference,
    solve_g_hierarchy,
    solve_mckean_vlasov,
)

__version__ = "0.1.0"
