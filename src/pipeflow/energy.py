"""Energy functionals, relative-energy machinery and stability monitors.

All functionals use the discretization's own quadrature weights (cell
widths and face dual volumes), so the discrete power balance is an
algebraic identity of the scheme rather than a quadrature approximation.
The dissipation is the operator form integral of gamma * a * rho * |w|^3
(cross-section weighted) on pipes and networks alike.  The functionals
take one state or a (K, n) stack of K snapshots, such as
NetworkState(times, trajectory.rho_array(), trajectory.w_array()), and
return a float or a (K,) array whose rows are the floats bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import NetworkState, weighted_sum


# ---------------------------------------------------------------------------
# basic functionals

def hamiltonian(system, state):
    """Total energy: integral of a*(eps^2 rho w^2/2 + P(rho) + g z rho)."""
    kin = system.kinetic_cells(state.w)
    density = (0.5 * system.epsilon**2 * state.rho * kin
               + system.law.potential(state.rho) + system.gz_cells * state.rho)
    return weighted_sum(system.c_rho, density)


def limit_energy(system, rho):
    """The limit model's energy: integral of a*(P(rho) + g z rho), the
    Hamiltonian without its eps^2 kinetic term."""
    density = system.law.potential(rho) + system.gz_cells * rho
    return weighted_sum(system.c_rho, density)


def dissipation(system, state):
    """Friction dissipation: integral of gamma * a * rho * |w|^3."""
    arho = system.arho_faces(state.rho)
    abs_w = np.abs(state.w)
    return weighted_sum(system.omega_gamma * arho, abs_w * abs_w * abs_w)


def boundary_flux(system, state, boundary_values):
    """Signed energy flux over the boundary vertices, -sum(n h m); for a
    stack, boundary_values maps each vertex to its (K,) values."""
    m = system.arho_faces(state.rho) * state.w
    return weighted_sum(system.boundary_load(boundary_values), m)


def _check_pair(system, u, uhat):
    batch = u.rho.shape[:-1]  # () for states, (K,) for stacks
    if not (u.rho.shape == uhat.rho.shape == batch + (system.n_cells,)
            and u.w.shape == uhat.w.shape == batch + (system.n_faces,)):
        raise ValueError("states do not match the system's grids")


def relative_energy(system, u, uhat):
    """Bregman distance H(u) - H(uhat) - <H'(uhat), u - uhat>.

    Evaluated in a form where the gravity terms cancel identically:
    the pressure part contributes P(rho) - P(rhohat) - P'(rhohat) drho
    per cell and the kinetic part eps^2 [rho (w^2 - what^2)/2]_cells
    minus the face-weighted a*rhohat*what*(w - what).
    """
    _check_pair(system, u, uhat)
    law = system.law
    p_rel = (law.potential(u.rho) - law.potential(uhat.rho)
             - law.dpotential(uhat.rho) * (u.rho - uhat.rho))
    kin = 0.5 * system.epsilon**2 * u.rho * (
        system.kinetic_cells(u.w) - system.kinetic_cells(uhat.w))
    cells = weighted_sum(system.c_rho, p_rel + kin)
    mhat = system.arho_faces(uhat.rho) * uhat.w
    return cells - weighted_sum(system.c_w * mhat, u.w - uhat.w)


def relative_dissipation(system, u, uhat):
    """(1/16) integral of gamma a rhohat (|w| + |what|) (w - what)^2."""
    _check_pair(system, u, uhat)
    weight = system.omega_gamma * system.arho_faces(uhat.rho)
    return weighted_sum(weight, (np.abs(u.w) + np.abs(uhat.w))
                        * (u.w - uhat.w) ** 2) / 16.0


def power_balance_residual(trajectory):
    """Per-step residuals H^{n+1} - H^n + dt*(D - flux) at the stage; on
    a parabolic run H is the limit energy and the residual is <= 0 up to
    solver tolerance."""
    return np.array([r.balance_residual for r in trajectory.reports[1:]])


# ---------------------------------------------------------------------------
# stability constants

def c0_constants(bounds, law):
    """Norm-equivalence constants of the relative energy.

    Lower: from the pointwise Hessian bound (a/2)(P'' x^2 + rho (eps y)^2)
    combined with the Taylor-remainder weight 1/2, reduced to a multiple
    of the C-norm; upper correspondingly from (3a/2)(...).  Requires the
    subsonic margin of the bounds to be nonnegative.
    """
    if bounds.subsonic_margin(law) < 0.0:
        raise ValueError("subsonic margin violated; the norm equivalence "
                         "needs rho P''(rho) >= 4 eps_max^2 w_max^2")
    d2_min, d2_max = law.d2potential_bounds(bounds.rho_min, bounds.rho_max)
    lower = 0.25 * min(d2_min, bounds.area_min * bounds.rho_min)
    upper = 0.75 * max(d2_max, bounds.area_max * bounds.rho_max)
    return lower, upper


@dataclass(frozen=True)
class StabilityConstants:
    """All constants entering the stability certificate.

    c0_lower/c0_upper  relative-energy norm equivalence
    c1, c2, c3         growth factors from the friction, profile-drift
                       and residual estimates; growth = c1 + c2 + c3
    c_d                lower-bound constant of the relative dissipation
    p1, p2, p3         weights of the residual perturbation functional
    c_boundary         weight of the boundary perturbation functional
    """

    c0_lower: float
    c0_upper: float
    c1: float
    c2: float
    c3: float
    c_d: float
    p1: float
    p2: float
    p3: float
    c_boundary: float

    @property
    def growth(self):
        return self.c1 + self.c2 + self.c3


def stability_constants(bounds, law, lip_drho=0.0, lip_eps_dw=0.0, n_boundary=2):
    """Compute certificate constants from the admissible bounds.

    lip_drho and lip_eps_dw are sup-norm estimates of the reference
    solution's time derivatives (of rho and of eps*w); they scale the
    profile-drift growth factor.
    """
    c0l, c0u = c0_constants(bounds, law)
    d2_min, d2_max = law.d2potential_bounds(bounds.rho_min, bounds.rho_max)
    c_d = bounds.friction_min * bounds.area_min * bounds.rho_min / 16.0
    c1 = 2.0 * bounds.friction_max * bounds.w_max**2 / (bounds.rho_min * c0l)
    c2 = (max(d2_max, bounds.area_max, math.sqrt(bounds.area_max))
          / (2.0 * c0l) * (lip_drho + lip_eps_dw))
    p1 = (bounds.eps_max**2 * bounds.w_max**2 / 4.0
          + d2_max**2 / (2.0 * bounds.area_min))
    p2 = bounds.area_max * bounds.w_max**2 / (4.0 * c0l)
    p3 = ((bounds.area_max * bounds.rho_max) ** 1.5
          * (2.0 / 3.0) / math.sqrt(3.0 * c_d))
    c_boundary = (2.0 * bounds.area_max * bounds.rho_max * bounds.w_max
                  * max(1.0, bounds.w_max**2 * math.sqrt(max(n_boundary, 1)) / 2.0))
    return StabilityConstants(c0_lower=c0l, c0_upper=c0u, c1=c1, c2=c2, c3=1.0,
                              c_d=c_d, p1=p1, p2=p2, p3=p3,
                              c_boundary=c_boundary)


def lipschitz_estimates(system, trajectory):
    """Discrete sup norms of d rho/d tau and eps * d w/d tau."""
    times = np.asarray(trajectory.times)
    if times.size < 2:
        raise ValueError("need at least two snapshots")
    rho = trajectory.rho_array()
    w = trajectory.w_array()
    dt = np.diff(times)[:, None]
    drho = np.max(np.abs(np.diff(rho, axis=0) / dt))
    dw = np.max(np.abs(np.diff(w, axis=0) / dt))
    return float(drho), float(system.epsilon * dw)


# ---------------------------------------------------------------------------
# perturbation residual of a reference trajectory

def residual_fields(system, trajectory, eps_hat, gamma_hat=None):
    """Model-perturbation residual along a reference trajectory.

    The reference solves the equations with (eps_hat, gamma_hat); viewed
    in the system, with its (eps, gamma), it leaves the momentum residual

        e2 = (eps^2 - eps_hat^2) (dw/dtau + d(w^2/2)/dx) +
             (gamma - gamma_hat) |w| w

    and no mass residual.  Time derivatives are centered difference
    quotients of the snapshots (one-sided at the ends); the kinetic
    slope uses the same face stencil as the discrete enthalpy.
    Returns (e1, e2) with shapes (K, n_cells) and (K, n_faces).
    """
    times = np.asarray(trajectory.times)
    if times.size < 2:
        raise ValueError("need at least two snapshots to difference in time")
    w = trajectory.w_array()
    gamma = system.gamma_faces
    gamma_hat = gamma if gamma_hat is None else gamma_hat
    # e2 accumulates in place, so few (K, n_faces) arrays live at once; the
    # kinetic slope: between the adjacent cells' averages of w^2/2, with a
    # terminal face's own w^2/2 standing in for its missing cell
    lc, rc = system.face_left_cell, system.face_right_cell
    kin_c = 0.5 * system.kinetic_cells(w)
    e2, left = (kin_c.take(np.maximum(c, 0), axis=-1) for c in (rc, lc))
    e2[:, rc < 0] = 0.5 * w[:, rc < 0] ** 2
    left[:, lc < 0] = 0.5 * w[:, lc < 0] ** 2
    e2 -= left
    e2 /= system.omega_faces
    del kin_c, left
    # plus dw/dtau from the snapshots before and after, one-sided at the ends
    k = np.arange(times.size)
    prev, succ = np.maximum(k - 1, 0), np.minimum(k + 1, k[-1])
    e2 += (w[succ] - w[prev]) / (times[succ] - times[prev])[:, None]
    e2 *= system.epsilon**2 - eps_hat**2
    e2 += (gamma - gamma_hat) * np.abs(w) * w
    return np.zeros((times.size, system.n_cells)), e2


def perturbation_functional(system, e1, e2, constants):
    """p1 ||e1||_L2^2 + p2 ||e2||_L2^2 + p3 ||e2||_{L^{3/2}}^{3/2}."""
    abs_e2 = np.abs(e2)
    l32 = weighted_sum(system.omega_faces, abs_e2 * np.sqrt(abs_e2))
    return (constants.p1 * system.l2sq_cells(e1)
            + constants.p2 * system.l2sq_faces(e2) + constants.p3 * l32)


def boundary_perturbation(system, schedule, schedule_hat, taus, eps_hat,
                          constants):
    """Boundary perturbation functional per snapshot time.

    c_boundary * (rss over boundary vertices of |h - hhat| + |eps^2 -
    eps_hat^2|) with the system's eps; the root-sum-square couples
    multiple boundary vertices.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))

    def values(entry):  # a schedule takes one time, as the steppers call it
        return (np.array([float(entry(t)) for t in taus]) if callable(entry)
                else float(entry))

    sq = sum(((values(schedule[v]) - values(schedule_hat[v])) ** 2
              for v in system.boundary_vertices), np.zeros(taus.size))
    out = constants.c_boundary * (np.sqrt(sq)
                                  + abs(system.epsilon**2 - eps_hat**2))
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Gronwall certificate

@dataclass
class GronwallCertificate:
    """Certificate data: bound sides plus every ingredient per snapshot."""

    ok: bool
    min_slack: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    rel_energy: np.ndarray = None
    rel_dissipation: np.ndarray = None
    cnorm_sq: np.ndarray = None
    p_residual: np.ndarray = None
    p_boundary: np.ndarray = None
    constants: StabilityConstants = None

    def write_trace(self, path):
        """Tabular relative-energy trace with the bound sides and slack."""
        with open(path, "w") as fh:
            fh.write("tau,rel_energy,rel_dissipation,cnorm_sq,p_residual,"
                     "p_boundary,bound_lhs,bound_rhs,slack\n")
            for k, tau in enumerate(self.times):
                fh.write(f"{tau:.12g},{self.rel_energy[k]:.12g},"
                         f"{self.rel_dissipation[k]:.12g},"
                         f"{self.cnorm_sq[k]:.12g},{self.p_residual[k]:.12g},"
                         f"{self.p_boundary[k]:.12g},{self.lhs[k]:.12g},"
                         f"{self.rhs[k]:.12g},{self.rhs[k] - self.lhs[k]:.12g}\n")


def _exp_trapz_accumulate(times, values, rate):
    """I_k = integral_0^{tau_k} exp(rate (tau_k - s)) values(s) ds (trapezoid)."""
    out = np.zeros_like(values, dtype=float)
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        grow = math.exp(rate * dt)
        out[k] = grow * out[k - 1] + 0.5 * dt * (grow * values[k - 1] + values[k])
    return out


def gronwall_monitor(system, traj_u, traj_hat, constants, schedule,
                     schedule_hat=None, eps_hat=None, gamma_hat=None):
    """Check the exponential stability bound along a trajectory pair.

    At every snapshot the monitor compares

        c0_lower ||u - uhat||_C^2 + int exp-weighted relative dissipation

    against

        c0_upper e^{c tau} ||u - uhat||_C^2(0) + int exp-weighted
        (residual perturbation + boundary perturbation),

    with c = constants.growth and trapezoidal time quadrature.  All
    functionals are those of the unperturbed system.
    """
    times = np.asarray(traj_u.times)
    times_hat = np.asarray(traj_hat.times)
    if times.shape != times_hat.shape or not np.allclose(times, times_hat,
                                                         atol=1e-12, rtol=1e-9):
        raise ValueError("trajectories must share the snapshot time grid")
    if schedule_hat is None:
        schedule_hat = schedule
    if eps_hat is None:
        eps_hat = system.epsilon

    # the residual first: its temporaries are freed before the stacks exist
    p_res = perturbation_functional(
        system, *residual_fields(system, traj_hat, eps_hat,
                                 gamma_hat=gamma_hat), constants)
    p_bnd = boundary_perturbation(system, schedule, schedule_hat, times,
                                  eps_hat, constants)
    u = NetworkState(times, traj_u.rho_array(), traj_u.w_array())
    uh = NetworkState(times, traj_hat.rho_array(), traj_hat.w_array())
    cnorm = system.c_norm_sq(u.rho - uh.rho, u.w - uh.w)
    rel_diss = relative_dissipation(system, u, uh)
    rel_en = relative_energy(system, u, uh)

    rate = constants.growth
    i_diss = _exp_trapz_accumulate(times, rel_diss, rate)
    i_pert = _exp_trapz_accumulate(times, p_res + p_bnd, rate)
    lhs = constants.c0_lower * cnorm + i_diss
    rhs = constants.c0_upper * cnorm[0] * np.exp(rate * times) + i_pert

    slack = rhs - lhs
    tol = 1e-10 * np.maximum(1.0, np.abs(rhs))
    ok = bool(np.all(slack >= -tol))
    return GronwallCertificate(ok=ok, min_slack=float(np.min(slack)),
                               times=times, lhs=lhs, rhs=rhs,
                               rel_energy=rel_en, rel_dissipation=rel_diss,
                               cnorm_sq=cnorm, p_residual=p_res,
                               p_boundary=p_bnd,
                               constants=constants)


# ---------------------------------------------------------------------------
# sampling helpers

def random_admissible_state(system, bounds, rng):
    """Uniform random state at tau 0 strictly inside the admissible box."""
    span_r = bounds.rho_max - bounds.rho_min
    lo = bounds.rho_min + 0.02 * span_r
    hi = bounds.rho_max - 0.02 * span_r
    rho = rng.uniform(lo, max(lo, hi), size=system.n_cells)
    wmax = 0.98 * bounds.w_max
    w = rng.uniform(-wmax, wmax, size=system.n_faces)
    return NetworkState(0.0, rho, w)
