"""alignstat: detecting smooth k-dimensional structure in oriented clutter.

Library layout:

* ``grassmann`` -- subspaces, canonical angles, charts, normal forms;
* ``nets`` -- explicit packings/coverings of G(k, d), ball-volume estimates;
* ``holder`` -- jets, smoothness classes, the bump interpolant, graph lifts;
* ``detection`` -- generators, the greedy cell and tube DP statistics,
  exponents, coupon-collector moments;
* ``experiments`` -- seeded sweep drivers, calibration, CSV output;
* ``cli`` -- the ``alignstat`` command-line front end.
"""

from . import errors
from .detection import (
    CellSelection,
    OrientedSamples,
    binomial_tail_check,
    coupon_moments,
    exponent_rho,
    exponent_rho_dir,
    fit_scaling_exponent,
    generate_alt_jets,
    generate_alt_oriented,
    generate_null_jets,
    generate_null_oriented,
    greedy_cell_statistic,
    oriented_to_jets,
    statistic_eps,
    tube_dp_statistic,
    tube_hit_fraction,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SweepResult,
    Threshold,
    null_quantile_threshold,
    power_estimate,
    run_sweep,
    write_records_csv,
)
from .grassmann import (
    ChartMatrix,
    Subspace,
    canonical_angle,
    chart_to_subspace,
    graph_chart,
    orthonormalize,
    sample_uniform_subspace,
    span_normal_form,
)
from .holder import (
    GraphLift,
    HolderInterpolant,
    HolderParams,
    JetPoint,
    JetSamples,
    MembershipReport,
    build_interpolant,
    bump_basis,
    discrepancy_phi,
    evaluate_jet,
    graph_lift,
    holder_membership_check,
    multi_index_set,
    tangent_space,
)
from .nets import (
    SubspaceFamily,
    ball_measure_estimate,
    chart_cube_measure_estimate,
    covering_family,
    estimate_span_bound,
    packing_family,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
