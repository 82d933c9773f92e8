"""Band-edge resonances of truncated periodic discrete Schrodinger operators."""

from .potential import PeriodicPotential
from .floquet import (
    BandStructure,
    EdgeClassification,
    EdgeData,
    band_structure,
    classify_edge,
    monodromy,
    product_matrix,
    quasi_momentum,
)
from .spectrum import (
    SpectralData,
    TridiagonalOperator,
    WeightProfile,
    assemble,
    band_enumerate,
    eigensystem,
    weight_profile,
)
from .resonance import (
    Resonance,
    ResonanceBox,
    alpha_and_seed,
    check_step_inputs,
    count_in_box,
    f_and_fprime,
    free_region_check,
    locate_resonance,
    newton_refine,
    no_root_certificate,
    s_l,
    sweep_band_edge,
    theta,
    theta_prime,
    winding_number,
)
from .analysis import (
    PowerLawFit,
    fit_power_law,
    l_scaling,
    scaling_report,
)

__version__ = "0.1.0"

