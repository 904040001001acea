"""Chemical-shift-encoded MRI parameter recovery.

Modules cover the forward multi-peak signal model (:mod:`csemri.species`),
identifiability and solution-set analysis (:mod:`csemri.lattice`), the
oblique-projection residual and its Wirtinger calculus
(:mod:`csemri.residual`), single-voxel solvers with certified convergence
radii (:mod:`csemri.solver`), constrained image-grid reconstruction
(:mod:`csemri.imaging`), in-silico phantoms and experiment drivers
(:mod:`csemri.phantom`, :mod:`csemri.experiments`), file formats
(:mod:`csemri.containers`) and the command line (:mod:`csemri.cli`).

Library code reports through the ``csemri`` logger, which is silent until
the application configures logging.
"""

import logging

from . import errors
from .species import (
    AcquisitionModel,
    EchoSpec,
    Species,
    SpectralPeak,
    build_model,
    check_J_full_rank,
    check_submatrices_nonsingular,
    load_species,
    signal,
    weighting_diag,
)
from .lattice import (
    DeltaZero,
    DeltaZeroSet,
    RationalEchoStructure,
    delta_matrix,
    delta_zero_set,
    fieldmap_lattice,
    local_identifiability_certificate,
    rationalize_echoes,
    sigma_min_profile,
    swap_concentrations,
    weighting_error_profile,
)
from .residual import (
    FullResidualEval,
    ResidualOperator,
    WirtingerGradient,
    WirtingerHessian,
    concentrations_ri,
    full_residual,
    make_residual_operator,
    residual_derivative,
    residual_matrix,
    residual_value,
    wirtinger_gradient_f0,
    wirtinger_hessian_f0,
)
from .solver import (
    FlowConfig,
    RecoveryResult,
    constrained_flow,
    curvature_profile,
    gamma_plus,
    lambert_w0,
    radius_empirical_from_profile,
    radius_lambert,
    radius_loose,
    radius_tight,
    step_bound,
    wirtinger_flow,
)
from .imaging import (
    FieldmapConstraint,
    ImageGrid,
    ReconResult,
    SeparationReport,
    constraint_violation,
    forward_gradient,
    gradient_adjoint,
    metrics,
    metrics_table,
    pdff_map,
    project_onto_C_phi,
    reconstruct,
    reconstruct_noisy,
    separation_check,
)
from .phantom import (
    CorruptionSpec,
    FieldSpec,
    PhantomSpec,
    PhantomTruth,
    Shape,
    corrupt,
    default_phantom_spec,
    generate_phantom,
)
from .containers import (
    grid_from_csir,
    model_from_config,
    read_csir,
    write_csir,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
