"""Manufactured solutions for convergence verification.

The default profile family is built so that the enthalpy has vanishing
curvature at the pipe ends (velocity and its slope vanish there, the
density profile is a sine, and the quadratic pressure law has constant
P''), which keeps the one-sided boundary stencils second order.  The
velocity is nonnegative, so the friction term is polynomial in the
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import NetworkState, build_system
from .gas import PowerLaw
from .network import single_pipe
from .solver import SolverConfig, run


@dataclass
class ManufacturedCase:
    law: object
    epsilon: float
    gamma: float
    length: float
    rho: callable          # rho(x, tau)
    w: callable            # w(x, tau)
    enthalpy: callable     # h(x, tau)
    forcing: tuple         # (f1(x, tau), f2(x, tau))

    def topology(self):
        return single_pipe(length=self.length, epsilon=self.epsilon,
                           friction=self.gamma)

    def boundary(self):
        h = self.enthalpy
        length = self.length
        return {"inlet": lambda tau: float(h(0.0, tau)),
                "outlet": lambda tau: float(h(length, tau))}

    def initial_state(self, system):
        return NetworkState(0.0, self.rho(system.x_cells, 0.0),
                            self.w(system.x_faces, 0.0))


def default_case(epsilon=0.3, gamma=1.0, kappa=1.0, length=1.0,
                 rho_amplitude=0.1, w_amplitude=0.4, rate=np.pi):
    """Smooth space-time profiles with boundary-compatible curvature.  The
    forcing follows by the product rule: f1 = rho_t + rho_x w + rho w_x and
    f2 = eps^2 (w_t + w w_x) + 2 kappa rho_x + gamma w^2."""
    k, c = 2 * np.pi / length, 16 * w_amplitude / length**4

    def fields(x, tau):
        """rho, w, h, f1 and f2 at (x, tau)."""
        g, g_t = 1 + np.sin(rate * tau) / 2, rate * np.cos(rate * tau) / 2
        q, q_t = 1 + np.cos(rate * tau) / 2, -rate * np.sin(rate * tau) / 2
        sine, bump = rho_amplitude * np.sin(k * x), c * x**2 * (length - x) ** 2
        rho, rho_x = 1 + sine * g, rho_amplitude * k * np.cos(k * x) * g
        w, w_x = bump * q, 2 * c * x * (length - x) * (length - 2 * x) * q
        return (rho, w, epsilon**2 * w**2 / 2 + kappa * (2 * rho - 1),
                sine * g_t + rho_x * w + rho * w_x,
                epsilon**2 * (bump * q_t + w * w_x) + 2 * kappa * rho_x
                + gamma * w**2)  # w >= 0 by construction

    def field(j):
        return lambda x, tau: fields(x, tau)[j]

    return ManufacturedCase(
        law=PowerLaw(kappa=kappa, exponent=2.0),
        epsilon=epsilon, gamma=gamma, length=length,
        rho=field(0), w=field(1), enthalpy=field(2),
        forcing=(field(3), field(4)),
    )


T_FINAL = 0.2


def _solve(case, cells, dt):
    system = build_system(case.topology(), cells_per_edge=cells, law=case.law)
    state0 = case.initial_state(system)
    config = SolverConfig(dt=dt, t_final=T_FINAL, newton_tol=1e-12)
    traj = run(system, state0, config, case.boundary(), forcing=case.forcing)
    return system, traj.states[-1]


def _state_error(system, state, other_rho, other_w):
    return np.sqrt(system.l2sq_cells(state.rho - other_rho)
                   + system.l2sq_faces(state.w - other_w))


def spatial_convergence(case, cells_list):
    """Errors against the exact restriction at T_FINAL per resolution."""
    errors = []
    for n in cells_list:
        system, final = _solve(case, n, 2e-4)
        errors.append(_state_error(system, final,
                                   case.rho(system.x_cells, T_FINAL),
                                   case.w(system.x_faces, T_FINAL)))
    orders = np.log(np.array(errors[:-1]) / np.array(errors[1:])) / \
        np.log(np.array(cells_list[1:]) / np.array(cells_list[:-1], dtype=float))
    return np.asarray(errors), orders


def temporal_convergence(case, dt_list):
    """Self-convergence on 24 cells against a run with a quarter of the
    smallest step."""
    system, ref = _solve(case, 24, min(dt_list) / 4)
    errors = []
    for dt in dt_list:
        _, final = _solve(case, 24, dt)
        errors.append(_state_error(system, final, ref.rho, ref.w))
    orders = np.log(np.array(errors[:-1]) / np.array(errors[1:])) / \
        np.log(np.array(dt_list[:-1]) / np.array(dt_list[1:]))
    return np.asarray(errors), orders


@dataclass
class ConvergenceTable:
    spatial_cells: tuple
    spatial_errors: np.ndarray
    spatial_orders: np.ndarray
    temporal_steps: tuple
    temporal_errors: np.ndarray
    temporal_orders: np.ndarray

    def format(self):
        lines = ["resolution study (exact restriction):"]
        for n, e in zip(self.spatial_cells, self.spatial_errors):
            lines.append(f"  cells={n:5d}  error={e:.6e}")
        lines.append("  observed orders: "
                     + ", ".join(f"{o:.3f}" for o in self.spatial_orders))
        lines.append("time-step study (self-convergence):")
        for dt, e in zip(self.temporal_steps, self.temporal_errors):
            lines.append(f"  dt={dt:9.3e}  error={e:.6e}")
        lines.append("  observed orders: "
                     + ", ".join(f"{o:.3f}" for o in self.temporal_orders))
        return "\n".join(lines)


def manufactured_solution_test(cells_list=(12, 24, 48),
                               dt_list=(2e-3, 1e-3, 5e-4)):
    case = default_case()
    se, so = spatial_convergence(case, cells_list)
    te, to = temporal_convergence(case, dt_list)
    return ConvergenceTable(tuple(cells_list), se, so, tuple(dt_list), te, to)
