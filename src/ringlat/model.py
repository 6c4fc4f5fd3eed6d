"""Parameter types and errors shared by every other module.

All quantities use hbar = 1 and lattice constant = 1, so hopping t, the
stirring frequency omega, and the interaction u all carry energy units.
Every type is an immutable value object; construction validates the
physical domain and raises :class:`DomainError` naming the bad field.
A solve that fails raises :class:`ConvergenceError` or a subclass of it,
which a sweep records as a failed row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """A parameter lies outside its physically allowed domain."""


class ConvergenceError(RuntimeError):
    """The iterative solver failed to converge; carries diagnostics."""


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise DomainError(f"{field}: {message}")


@dataclass(frozen=True)
class RingSpec:
    """Geometry and drive of a homogeneous ring lattice.

    ``k_factor`` is the geometric coefficient K multiplying omega in the
    complex hopping amplitude ``-t - i*omega*K``.  For a ring of equally
    spaced sites it is ``beta * sin(2*pi/n_sites) / 2`` (see
    :func:`make_ring`), but it may be set directly.  ``omega`` may take
    either sign; negative values stir the ring the other way.
    """

    n_sites: int
    t: float = 1.0
    k_factor: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.n_sites, int) and self.n_sites >= 3,
                 "n_sites", f"need an integer >= 3, got {self.n_sites!r}")
        _require(math.isfinite(self.t) and self.t > 0,
                 "t", f"hopping must be finite and > 0, got {self.t!r}")
        _require(math.isfinite(self.k_factor) and self.k_factor > 0,
                 "k_factor", f"must be finite and > 0, got {self.k_factor!r}")
        _require(math.isfinite(self.omega),
                 "omega", f"must be finite, got {self.omega!r}")

    @property
    def omega_k_over_t(self) -> float:
        """Dimensionless drive strength omega*K/t, the canonical control."""
        return self.omega * self.k_factor / self.t

    def with_omega(self, omega: float) -> "RingSpec":
        return RingSpec(self.n_sites, self.t, self.k_factor, omega)


def make_ring(n_sites: int, t: float = 1.0, beta: float = 1.0,
              omega: float = 0.0) -> RingSpec:
    """Build a :class:`RingSpec` with K derived from the site geometry.

    K = beta * sin(alpha) / 2 with alpha = 2*pi/n_sites the angle
    subtended by neighboring sites; beta is a dimensionless lattice
    constant of order one.
    """
    _require(isinstance(n_sites, int) and n_sites >= 3,
             "n_sites", f"need an integer >= 3, got {n_sites!r}")
    _require(math.isfinite(t) and t > 0, "t", f"must be > 0, got {t!r}")
    _require(math.isfinite(beta) and beta > 0,
             "beta", f"must be > 0, got {beta!r}")
    k_factor = beta * math.sin(2.0 * math.pi / n_sites) / 2.0
    return RingSpec(n_sites=n_sites, t=t, k_factor=k_factor, omega=omega)


@dataclass(frozen=True)
class Bosons:
    """n_particles identical bosons with on-site interaction u."""

    n_particles: int
    u: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.n_particles, int) and self.n_particles >= 1,
                 "n_particles", f"need an integer >= 1, got {self.n_particles!r}")
        _require(math.isfinite(self.u), "u", f"must be finite, got {self.u!r}")


@dataclass(frozen=True)
class Fermions:
    """Spin-1/2 fermions, n_up + n_down particles with on-site u."""

    n_up: int
    n_down: int
    u: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.n_up, int) and self.n_up >= 0,
                 "n_up", f"need an integer >= 0, got {self.n_up!r}")
        _require(isinstance(self.n_down, int) and self.n_down >= 0,
                 "n_down", f"need an integer >= 0, got {self.n_down!r}")
        _require(math.isfinite(self.u), "u", f"must be finite, got {self.u!r}")


@dataclass(frozen=True)
class PolarizedFermions:
    """Identical (single spin state) fermions; carries no contact u
    because s-wave scattering between identical fermions is forbidden."""

    n_particles: int

    def __post_init__(self) -> None:
        _require(isinstance(self.n_particles, int) and self.n_particles >= 1,
                 "n_particles", f"need an integer >= 1, got {self.n_particles!r}")


SpeciesSpec = Bosons | Fermions | PolarizedFermions


def particle_count(species: SpeciesSpec) -> int:
    if isinstance(species, Fermions):
        return species.n_up + species.n_down
    return species.n_particles


def particle_content(species: SpeciesSpec) -> tuple:
    """Statistics and counts only; two species with the same content share
    a Fock basis whatever their interactions."""
    if isinstance(species, Bosons):
        return ("bosons", species.n_particles)
    if isinstance(species, Fermions):
        return ("fermions", species.n_up, species.n_down)
    return ("polarized", species.n_particles)


def validate_species(species: SpeciesSpec, ring: RingSpec) -> SpeciesSpec:
    """Check particle counts against the ring; returns the spec unchanged.

    Bosons are unbounded per site; fermion counts obey the Pauli bound of
    at most one particle per site and spin.
    """
    if isinstance(species, Fermions):
        _require(species.n_up <= ring.n_sites, "n_up",
                 f"{species.n_up} up fermions exceed {ring.n_sites} sites")
        _require(species.n_down <= ring.n_sites, "n_down",
                 f"{species.n_down} down fermions exceed {ring.n_sites} sites")
        _require(species.n_up + species.n_down >= 1, "n_up",
                 "need at least one particle")
    elif isinstance(species, PolarizedFermions):
        _require(species.n_particles <= ring.n_sites, "n_particles",
                 f"{species.n_particles} identical fermions exceed "
                 f"{ring.n_sites} sites")
    elif not isinstance(species, Bosons):
        raise DomainError(f"species: unknown species type {type(species).__name__}")
    return species


@dataclass(frozen=True)
class ContinuumSpec:
    """Single particle of mass ``mass`` on a continuum ring of radius
    ``radius``, stirred at ``omega`` (hbar = 1)."""

    mass: float
    radius: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        _require(math.isfinite(self.mass) and self.mass > 0,
                 "mass", f"must be > 0, got {self.mass!r}")
        _require(math.isfinite(self.radius) and self.radius > 0,
                 "radius", f"must be > 0, got {self.radius!r}")
        _require(math.isfinite(self.omega),
                 "omega", f"must be finite, got {self.omega!r}")
