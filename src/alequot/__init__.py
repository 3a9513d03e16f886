"""alequot: exact certificates for toric resolutions of cyclic quotient
singularities, and a radial Monge-Ampere continuity-path solver for the
asymptotically conical Ricci-flat metrics living on them."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .lattice import (
    LatticeCone,
    cone_coordinates,
    contains_in_interior,
    det,
    make_primitive,
    unit_vector,
)
from .quotient import (
    CyclicQuotient,
    SingularityData,
    sigma_cone,
    singularity_data,
)
from .resolution import (
    AngleVerdict,
    ChainResolution,
    ExceptionalRay,
    FanSubdivision,
    SubdivisionReport,
    angle_condition,
    build_subdivision,
    chain_fan,
    hj_continued_fraction,
    hj_resolution,
    three_dim_family,
    validate_subdivision,
)
from .surface import (
    EnergyBreakdown,
    IntersectionMatrix,
    StrataReport,
    adjunction_check,
    chain_strata,
    energy,
    family_strata,
    volume_density_inequality,
)

# The solver needs numpy and scipy, so its names load on first access: the
# exact half runs on the standard library alone.
_RADIAL_NAMES = (
    "DecayFit", "DecayFitError", "KahlerConeError", "MassReport", "PathConfig", "PathTrace",
    "RadialGrid", "RadialProfile", "SolverFailure", "bump_values", "calabi_profile", "decay_fit",
    "link_volume", "mass_integral", "newton_continuity_solve", "oracle_deviation",
    "oracle_effective_constant", "quadrature_oracle", "total_fprime",
)


def __getattr__(name: str):
    if name not in _RADIAL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import radial
    value = globals()[name] = getattr(radial, name)
    return value


# every public name above; the submodules themselves are not part of the flat API
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_RADIAL_NAMES)
