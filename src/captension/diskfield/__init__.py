"""Spectral fields on the unit disk: grid, calculus, elliptic solves, norms."""

from .grid import DiskGrid, make_grid
from .fields import (ScalarField, VectorField, BoundaryFunction, DiskMap,
                     MemberSolve, identity_map, rotation_map)
from .calculus import (grad_values, gradient, divergence, laplacian,
                       hessian, advect, evaluation_plan,
                       evaluate_vector_at, sample_at, compose, jacobian_det,
                       map_jacobian, inverse_jacobian, restrict_boundary,
                       STAGE_CLAMP)
from .elliptic import solve_dirichlet, dirichlet_values, harmonic_extension
from .norms import sobolev_norm_disk, l2_norm_disk

__all__ = [
    "DiskGrid", "make_grid",
    "ScalarField", "VectorField", "BoundaryFunction", "DiskMap",
    "MemberSolve", "identity_map", "rotation_map",
    "grad_values", "gradient", "divergence", "laplacian", "hessian",
    "advect", "evaluation_plan", "evaluate_vector_at", "sample_at", "compose",
    "jacobian_det", "map_jacobian", "inverse_jacobian", "restrict_boundary",
    "STAGE_CLAMP",
    "solve_dirichlet", "dirichlet_values", "harmonic_extension",
    "sobolev_norm_disk", "l2_norm_disk",
]
