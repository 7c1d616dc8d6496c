"""gblab: a numerical laboratory for the good Boussinesq / quadratic
Schrodinger reduction on periodic lattices."""

from .lattice import (
    FrequencyLattice,
    LatticeError,
    SpacetimeSpectrum,
    SpectralField,
    Trajectory,
    dump_spectrum,
    field_from_modes,
    load_field,
    load_spacetime,
    load_spectrum,
    make_lattice,
    make_tau_grid,
    zero_field,
)
from .reduction import GBState, gb_to_qnls, qnls_to_gb, rescale_data
from .norms import (
    NormSpec,
    besov_norm,
    bump_psi,
    h_norm,
    ws_norm,
    xsb_norm,
    ys_norm,
)
from .solver import (
    InternalConsistencyError,
    PicardDivergenceError,
    SolverConfig,
    a2_iterate,
    free_evolve,
    picard_solve,
    reference_solve,
)
from .resonance import (
    CountingCase,
    SweepSampler,
    cell_measure,
    sup_sweep,
)
from .bilinear_probe import (
    bilinear_image,
    l4_ratio,
    ratio_probe,
    slope_sweep,
)
from .illposedness import (
    InflationConfig,
    InflationError,
    InflationReport,
    a2_lower_bound,
    check_cond_n,
    inflation_sweep,
    make_phi,
    scan_cond_n,
)

__version__ = "0.1.0"
