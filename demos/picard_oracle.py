"""Cross-check the split-step integrator against the Picard oracle.

picard_solve integrates the coefficient ODE by fixed-point iteration on
a Legendre collocation grid.  It is slow and only certified inside the
contraction horizon, but it needs no step-size tuning, which makes it a
good independent referee for the production integrators.  Past the
horizon the guard refuses to answer rather than extrapolate.
"""

import numpy as np

from torus_hartree import (GaussianPotential, IntegratorConfig,
                           LifespanGuardError, TorusLattice, evolve,
                           lifespan_guard, make_state, picard_solve)


def main():
    model = GaussianPotential()
    state = make_state("perturbed_condensate", TorusLattice(4.0, 3), 10.0,
                       eps=0.05, s=6.0, seed=5)
    guard = lifespan_guard(state, model)
    print(f"contraction horizon for this state: {guard.guard:.5e}")
    print("(rho-independent form 1/(12 b W2^2), W2 the order-2 Wiener norm;")
    print(f" t* = {guard.t_star:.5e} for the normalized dynamics)")
    print()

    t = 0.25 * guard.guard
    oracle = picard_solve(state, model, t)
    print(f"{'dt':>9} {'l2 distance to picard':>24}")
    for dt in (t / 8, t / 16, t / 32, t / 64):
        traj = evolve(state, model, t, IntegratorConfig(dt=dt),
                      keep_states=False)
        dist = float(np.sqrt(np.sum(
            np.abs(traj.final_state.alpha - oracle.alpha) ** 2)))
        print(f"{dt:9.2e} {dist:24.3e}")
    print()

    try:
        picard_solve(state, model, 1.01 * guard.guard)
    except LifespanGuardError as exc:
        print(f"beyond the horizon the solver refuses: {exc}")


if __name__ == "__main__":
    main()
