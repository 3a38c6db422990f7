"""Feed a measured state into the closed-form bound calculators.

The excitation-number and quasi-vacuum-energy bounds take the
quasi-vacuum's scalars (excitation mass n, energy offset e, energy h_xi)
beside the potential and condensate constants, and return rigorous upper
bounds with an exponential Gronwall rate omega.  bound_inputs derives
every constant from the model and an actual perturbed condensate, as
``torus-hartree bound-report`` does: that state, saved as a snapshot and
given to the CLI with the same n, e, h_xi, horizon and t, reports these
numbers bit for bit.
"""

import numpy as np

from torus_hartree import (GaussianPotential, TorusLattice, bound_inputs,
                           excitation_bound, make_state, omega_coefficient,
                           quasi_vacuum_energy_bound)

# the sixth-power dependence on S makes omega huge, so the bound is only
# informative on the scale 1/omega; t is listed in those units
T_MULTIPLES = (0.0, 0.5, 1.0, 2.0)


def measure():
    """The demo's model, state, bound inputs, horizon and omega."""
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(8.0, 8), 100.0,
                       eps=0.05, s=6.0, seed=21)
    n = float(1.0 - np.max(np.abs(state.alpha)) ** 2)  # mass off the condensate mode
    inputs = bound_inputs(state, model, n, e=0.0, h_xi=0.0)
    horizon = 0.05 / model.b
    omega = omega_coefficient(inputs.s_inf, inputs.d_inf, inputs.b, inputs.v2,
                              model.C, horizon)
    return model, state, inputs, horizon, omega


def main():
    model, state, inputs, horizon, omega = measure()
    lat = state.lattice
    print(f"state: perturbed condensate, rho={state.rho:g}, L={lat.L:g}, M={lat.M}")
    print(f"measured: n = {inputs.n:.3e}, S0 = {inputs.s_inf:.6f}, "
          f"T0 = {inputs.d_inf:.4f}")
    print(f"model: b = {model.b:.6f}, v2 = {inputs.v2:.6f}, C = {model.C:.6g}")
    print(f"Gronwall rate omega({horizon:.2e}) = {omega:.4e}")
    print()
    print(f"{'t (units of 1/omega)':>21} {'excitation bound':>17}")
    for mult in T_MULTIPLES:
        value = excitation_bound(inputs, omega, mult / omega)
        print(f"{mult:21.1f} {value:17.5f}")
    print()
    print(f"quasi-vacuum energy bound: "
          f"{quasi_vacuum_energy_bound(inputs):.5f}")
    print("both bounds carry the 1/rho penalty of the mean-field replacement,")
    print("so they tighten at fixed t as the density grows.")


if __name__ == "__main__":
    main()
