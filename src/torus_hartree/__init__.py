"""Spectral toolkit for the Hartree equation on a periodic box.

Coefficients live on the cubic integer lattice |n|_inf <= M; the
nonlinearity couples them through the auto-correlation of the state
and the Fourier transform of the pair potential.  Modules:

  potential    the Gaussian pair potential, its Fourier profile, decay constants
  field        lattices, states, correlations, snapshots
  evolution    integrators, Picard iteration, lifespan guard
  diagnostics  conserved quantities, envelopes, bound calculators
  scan         density/box ladders for the iterated-limit experiment
  cli          command-line frontend
"""

from .potential import GaussianPotential, make_potential, potential_l2
from .field import (AutoCorrelation, SpectralState, TorusLattice,
                    autocorrelation, difference_lattice, load_state,
                    make_state, pointwise_product, random_state, s_sum,
                    save_state, t_sum, time_reversal, to_physical, wiener_norm)
from .evolution import (ContractionError, ConvergenceError, InstabilityError,
                        IntegratorConfig, Lifespan, LifespanGuardError,
                        Trajectory, evolve, lifespan_guard, picard_solve, rhs,
                        step_rk4, step_split)
from .diagnostics import (BoundInputs, DiagnosticsRecord, EnvelopeDomainError,
                          TrajectoryContext, assumption_check, bound_inputs,
                          energy_per_particle, energy_physical,
                          envelope_audit, excitation_bound, kinetic_tail,
                          make_record, omega_coefficient,
                          plane_wave_comparison, quasi_vacuum_energy_bound,
                          RunReport, run_report, s_envelope, t_envelope,
                          tail_sum, u_mass_envelope, write_trajectory_csv)
from .scan import (SCAN_COLUMNS, ScanPlan, ScanRecord,
                   iterated_limit_summary, load_plan, run_scan)

__version__ = "0.1.0"
