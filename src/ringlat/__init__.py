"""Exact diagonalization of bosons and fermions on a rotating ring lattice.

The library splits into parameter types (:mod:`ringlat.model`), closed-form
one-particle results (:mod:`ringlat.analytic`), many-body machinery
(:mod:`ringlat.basis`, :mod:`ringlat.hamiltonian`, :mod:`ringlat.eigen`,
:mod:`ringlat.observables`), parameter scans (:mod:`ringlat.sweep`), a
self-check suite (:mod:`ringlat.verify`) and a CSV/SVG command line
(:mod:`ringlat.cli`).
"""

__version__ = "0.1.0"

from .analytic import (
    WindingState,
    continuum_spectrum,
    crossing_frequency,
    current,
    energy,
    fast_mode_threshold,
    ground_winding,
    max_winding_number,
    meanfield_energy_per_particle,
    polarized_current,
    polarized_current_limits,
    winding_state,
)
from .basis import (
    BasisSizeError,
    FermionFockState,
    FockBasis,
    apply_translation,
    enumerate_basis,
    sector_of_state,
    translate,
)
from .eigen import (
    ConvergenceError,
    EigenResult,
    GroundState,
    SolverOptions,
    ground_state,
    lowest_k,
)
from .hamiltonian import (
    DenseMemoryError,
    HermitianOperator,
    build_boson,
    build_fermion,
    build_operator,
)
from .model import (
    Bosons,
    ContinuumSpec,
    DomainError,
    Fermions,
    PolarizedFermions,
    RingSpec,
    SpeciesSpec,
    make_ring,
    particle_count,
    validate_species,
)
from .observables import (
    CurrentReport,
    current_operator,
    evaluate,
    occupations,
)
from .sweep import (
    BoundaryPoint,
    InteractionGrid,
    OmegaGrid,
    SweepResult,
    SweepRow,
    SweepSpec,
    fast_mode_boundary,
    find_crossings,
    run,
)

__all__ = [
    "BasisSizeError",
    "Bosons",
    "BoundaryPoint",
    "ContinuumSpec",
    "ConvergenceError",
    "CurrentReport",
    "DenseMemoryError",
    "DomainError",
    "EigenResult",
    "FermionFockState",
    "Fermions",
    "FockBasis",
    "GroundState",
    "HermitianOperator",
    "InteractionGrid",
    "OmegaGrid",
    "PolarizedFermions",
    "RingSpec",
    "SolverOptions",
    "SpeciesSpec",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "WindingState",
    "apply_translation",
    "build_boson",
    "build_fermion",
    "build_operator",
    "continuum_spectrum",
    "crossing_frequency",
    "current",
    "current_operator",
    "energy",
    "enumerate_basis",
    "evaluate",
    "fast_mode_boundary",
    "fast_mode_threshold",
    "find_crossings",
    "ground_state",
    "ground_winding",
    "lowest_k",
    "make_ring",
    "max_winding_number",
    "meanfield_energy_per_particle",
    "occupations",
    "particle_count",
    "polarized_current",
    "polarized_current_limits",
    "run",
    "sector_of_state",
    "translate",
    "validate_species",
    "winding_state",
]
