"""Workbench for SU(d)-covariant valence-bond quasi codes.

Builds the codes, evaluates exact and approximate correctability with the
canonical recovery channel, contracts every closed-form expectation value by
transfer matrix and by dense brute force, and accounts for gate-cell
accuracy budgets in noisy logical computations.
"""

from .qec_core import (
    CodeIsometry,
    KLReport,
    SubsystemSplit,
    detect_condition,
    epsilon_from_report,
    format_kl_report,
    kl_decompose,
    kl_report_from_compressions,
    logical_operator_check,
    logical_recovery_channel,
    recovery_error,
    recovery_from_kl,
    span_transform,
    subsystem_gate_factorization,
    subsystem_kl_check,
    transversal_collapse_check,
)
from .quantum_ops import (
    KrausChannel,
    apply_channel,
    choi_matrix,
    cptp_residuals,
    dilation_isometry,
    entanglement_fidelity,
    partial_trace,
    trace_distance,
)
from .quasi_universality import (
    GateCellTable,
    SimTrajectory,
    build_gate_cell_table,
    cell_assign,
    compose_error_bound,
    max_gate_count,
    simulate_computation,
    trajectory_csv,
    unitary_distance,
)
from .su_algebra import (
    SuBasis,
    adjoint_generator,
    adjoint_group_element,
    gell_mann_basis,
    invariant_residuals,
    random_special_unitary,
    structure_constants,
)
from .vbs_code import (
    VbsCode,
    bond_error_compressions,
    bond_error_stacks,
    bond_noise,
    build,
    bulk_state,
    correlation_closed_form,
    covariant_gate,
    dense_isometry,
    detection_closed_form,
    edge_overlap,
    edge_state,
    effective_noise_channel,
    encode_dense,
    erasure_bound,
    eta,
    site_expectation,
    site_operator_overlaps,
    site_overlap_closed_forms,
    sum_rule_check,
)

__version__ = "0.1.0"
