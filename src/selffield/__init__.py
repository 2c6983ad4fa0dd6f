"""Coherent self-field energetics of moving charged particles.

Evaluates the conserved-energy terms of a drifting wave packet coupled to
its own Coulomb-gauge field, finds the energy-minimizing localization
radius and binding energy (including scaled particles and neutral atoms),
and co-evolves the self-coupled wave/field system on a periodic spectral
grid with conservation diagnostics.
"""

__version__ = "0.1.0"

from .scales import (CONST, ELECTRON, EV, PROTON, ParticleSpec,
                     PhysicalConstants, ScaleSet, derived_scales)
from .wavepacket import (GaussianPacket, RadialProfile, density_fourier,
                         fourier_density_numeric, internal_kinetic_energy)
from .coherent_field import (SpectralVector, classical_current_fourier,
                             mean_vector_potential, renormalized_momentum,
                             total_momentum, transverse_efield_fourier,
                             transverse_project, vector_potential_fourier)
from .energy_budget import (BudgetMode, EnergyBudget, assemble_budget,
                            current_potential_energy, electrostatic_energy,
                            transverse_field_energy)
from .localization import (LocalizationResult, debroglie_ratio,
                           functional_coefficients, minimize_radius,
                           scale_to_particle, sweep)
from .atom import (NeutralAtom, atom_charge_density_fourier,
                   atom_electrostatic_energy, atom_minimize)
from .dynamics import (GridSpec, GridState, diagnostics, evolve, init_grid,
                       solve_vector_potential, step)
