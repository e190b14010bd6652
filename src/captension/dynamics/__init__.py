"""Time evolution: the decomposed free-surface flow, the fixed-disk
Euler flow, independent oracles, and energy diagnostics."""

from .states import (
    EnergyReport,
    FixedEulerState,
    FreeBoundaryState,
    solid_rotation_velocity,
    stream_function_field,
    stream_initial_velocity,
    stream_initial_vorticity,
)
from .pressure import pressure_gradient, pullback_velocity
from .evolution import (
    capillary_frequencies,
    dt_free_max,
    dt_max,
    energy_report,
    output_derivatives,
    reconstruct_eta,
    rhs_free_boundary,
    step_free_boundary,
)
from .fixed import (
    euler_Z,
    invert_disk_map,
    step_fixed_euler,
    vorticity_particle_step,
    vorticity_velocity,
)
from .unsplit import step_unsplit, unsplit_acceleration

__all__ = [
    "EnergyReport", "FixedEulerState", "FreeBoundaryState",
    "solid_rotation_velocity", "stream_function_field",
    "stream_initial_velocity", "stream_initial_vorticity",
    "pressure_gradient", "pullback_velocity",
    "capillary_frequencies", "dt_free_max", "dt_max", "energy_report",
    "output_derivatives", "reconstruct_eta",
    "rhs_free_boundary", "step_free_boundary",
    "euler_Z", "invert_disk_map", "step_fixed_euler",
    "vorticity_particle_step", "vorticity_velocity",
    "step_unsplit", "unsplit_acceleration",
]
