"""conelab: exact and Monte-Carlo computation on irreducible symmetric cones."""

from .algebra import (
    AlgebraDescriptor,
    Element,
    Endomorphism,
    JordanFrame,
    Points,
    SpectralDecomposition,
    apply_random_k,
    herm_complex,
    identity,
    inner,
    inverse,
    jordan_product,
    lmap,
    lorentz,
    norm,
    parse_algebra,
    quad_rep,
    random_automorphism_k,
    random_cone_element,
    random_cone_points,
    random_element,
    spectral_decompose,
    standard_frame,
    sym_real,
)
from .algorithms import (
    MultiplicationAlgorithm,
    check_algorithm,
    divide,
    interp,
    k_extended,
    parse_algorithm,
    piecewise_det,
    w1,
    w2,
)
from .distributions import (
    DensityModel,
    RieszParams,
    WishartParams,
    in_domain_D,
    riesz_logpdf,
    riesz_model,
    sample_riesz,
    wishart_logpdf,
    wishart_model,
)
from .errors import (
    AlgebraMismatchError,
    ConelabError,
    ConfigError,
    ContractError,
    DomainError,
    FitError,
    InconsistencyError,
    InsufficientSampleError,
    SingularElementError,
    ValidationError,
)
from .funceq import (
    GridSpec,
    LogCauchyFn,
    OBDecomposition,
    delta_s_log,
    k_invariance_check,
    log_det_power,
    make_olkin_baker_instance,
    olkin_baker_decompose,
    pexider_fit,
    wlog_residual,
)
from .lukacs import (
    IndependenceReport,
    factorization_residual,
    independence_test,
    inverse_map,
    jacobian_check,
    k_invariant_quotient_check,
)
from .peirce import (
    PeirceBasis,
    PowerExponent,
    build_peirce_basis,
    principal_minor,
)
from .triangular import (
    as_endomorphism,
    box_operator,
    frobenius_transform,
    triangular_decompose,
)

__version__ = "0.1.0"
