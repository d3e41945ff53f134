"""Quaternionic matrix algebra and canonical-ensemble thermodynamics.

The package is organized bottom-up:

* :mod:`quatstat.quaternion` exact quaternion arithmetic;
* :mod:`quatstat.linalg` quaternionic matrices, the faithful complex
  representation, matrix exponential and right-eigenvalue spectra;
* :mod:`quatstat.metric` metric operators and adjoint-symmetry checks;
* :mod:`quatstat.thermo` partition functions (spectral, formal and
  second-order perturbative) and thermodynamic reports;
* :mod:`quatstat.models` two-level gases, negative temperature, and the
  spin and qubit example models;
* :mod:`quatstat.cli` the ``quatstat`` command-line front end.
"""

from .errors import (
    ConstraintViolation,
    DegenerateLevels,
    DimensionMismatch,
    DomainError,
    EnergyOutOfRange,
    InfiniteTemperature,
    NotDensity,
    NotNormal,
    NotPositive,
    NotSymplectic,
    QuatstatError,
    SelfCheckFailed,
    SingularTheta,
    UnphysicalZ,
    ZeroMeanEnergy,
)
from .linalg import (
    QMatrix,
    dagger,
    embed,
    energies_by_continuity,
    exp_re_trace,
    fro_norm,
    inverse,
    mat_exp,
    mat_mul,
    mat_vec,
    re_trace,
    standard_spectrum,
    unembed,
    vec_inner,
    vec_outer,
    vec_scale_right,
)
from .metric import (
    MetricOperator,
    build_metric,
    classification_report,
    eta_adjoint,
    expectation,
    generalized_density,
    is_pseudo_anti_hermitian,
    is_pseudo_hermitian,
    is_quasi_anti_hermitian,
)
from .models import (
    QubitModelParams,
    SpinModelParams,
    TwoLevelGas,
    build_qubit_model,
    build_spin_model,
    entropy_stirling,
    log_multiplicity,
    printed_spin_entropy,
    printed_spin_entropy_combinatorial,
    printed_spin_internal_energy,
    printed_spin_inverse_temperature,
    printed_spin_log_multiplicity,
    qubit_negative_temperature,
    spin_eigenvectors,
    spin_entropy_per_particle,
    spin_negative_temperature,
    spin_toy_params,
    temperature,
)
from .quaternion import (
    DEFAULT_TOL,
    I,
    J,
    K,
    ONE,
    Quaternion,
    is_imaginary,
    qconj,
    qinv,
    qmul,
)
from .thermo import (
    DiscrepancyLog,
    EnergySliceParams,
    SpectralEnsemble,
    ThermoGrid,
    ThermoReport,
    ToyModelParams,
    VolumeModel,
    bloch_propagator,
    build_toy_hamiltonian,
    closed_form_grid,
    discrepancies,
    dyson_convergence_slope,
    dyson_second_order,
    dyson_trace,
    energy_variance,
    formal_trace,
    pressure,
    printed_entropy,
    printed_internal_energy,
    printed_grid,
    printed_pressure,
    printed_specific_heat,
    relative_rms,
    spectral_grid,
    thermo_closed_form,
    thermo_spectral,
    toy_metric,
    trace_columns,
    van_loan_trace,
    z1_formula,
    z_spectral,
    z_spectral_grid,
)

__version__ = "0.1.0"
