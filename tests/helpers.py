"""Helpers that only the tests call.

The library applies K, D, G, S and J in gather form only
(``NetworkSystem.arho_faces``, ``apply_d``, ``apply_gs``, ``apply_st``
and ``apply_j``).  ``csr_operators`` assembles the same operators as
CSR matrices from the system's index arrays; the tests check the gather
forms against them.  The instantaneous hyperbolic dynamics
(``spatial_residual``), the co-state defect in two forms, constant
states and a few small utilities for the tests live here as well.
"""

import os
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from pipeflow.discretization import NetworkState
from pipeflow.energy import _check_pair


# ---------------------------------------------------------------------------
# reference operators

def csr_operators(system):
    """K, D, G, S and J of a NetworkSystem as CSR matrices, in the
    attributes k, d, g, s and j."""
    n_c, n_f, n_j = system.n_cells, system.n_faces, system.n_junctions
    k = sp.csr_matrix((system.pair_kappa, (system.pair_face, system.pair_cell)),
                      shape=(n_f, n_c))
    # (D m)_c = m_right(c) - m_left(c)
    rows = np.concatenate([np.arange(n_c), np.arange(n_c)])
    cols = np.concatenate([system.cell_right_face, system.cell_left_face])
    data = np.concatenate([np.ones(n_c), -np.ones(n_c)])
    d = sp.csr_matrix((data, (rows, cols)), shape=(n_c, n_f))
    g = sp.csr_matrix(-d.T)
    s = sp.csr_matrix((system.junction_term_signs,
                       (system.junction_term_faces, system.junction_term_slots)),
                      shape=(n_f, n_j))
    z_cc = sp.csr_matrix((n_c, n_c))
    z_cj = sp.csr_matrix((n_c, n_j))
    j = sp.bmat([[z_cc, d, z_cj],
                 [g, sp.csr_matrix((n_f, n_f)), s],
                 [z_cj.T, -s.T, sp.csr_matrix((n_j, n_j))]], format="csr")
    return SimpleNamespace(k=k, d=d, g=g, s=s, j=j)


def assert_csc_is_the_coo_sum(stepper, jac, values):
    """The stepper's CSC Jacobian jac against coo_matrix((values, (rows,
    cols))).tocsc() over the stepper's entries: the same pattern, and
    the same data bit for bit, except that an entry whose values are all
    zero may be +0.0 where the conversion keeps -0.0.  Returns the
    number of such entries."""
    rows, cols = stepper._entries()
    ref = sp.coo_matrix((values, (rows, cols)), shape=jac.shape).tocsc()
    assert ref.has_canonical_format
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(jac, name), getattr(ref, name)), name
    assert np.array_equal(jac.data, ref.data)
    differ = jac.data.view(np.int64) != ref.data.view(np.int64)
    nonzero = sp.coo_matrix(((values != 0.0).astype(float), (rows, cols)),
                            shape=jac.shape).tocsc().data
    assert not nonzero[differ].any()
    assert np.signbit(ref.data[differ]).all()
    assert not np.signbit(jac.data[differ]).any()
    return np.count_nonzero(differ)


# ---------------------------------------------------------------------------
# instantaneous dynamics

def junction_enthalpies(system, state):
    """Consistent junction enthalpies for the instantaneous dynamics.

    Solves for the shared enthalpy of every junction that keeps its
    signed mass-flow balance stationary; requires epsilon > 0.
    """
    if system.epsilon == 0.0:
        raise ValueError("junction enthalpies of the limit model are "
                         "algebraic unknowns of the parabolic solver")
    h, m = system.costate(state)
    jf, slots = system.junction_term_faces, system.junction_term_slots
    arho, cw, w = system.arho_faces(state.rho)[jf], system.c_w[jf], state.w[jf]
    # the rate of w without the junction enthalpy (no boundary load
    # acts at a junction), and d(a rho)/dtau = -(Dm)_c / dx in the
    # cell each face adjoins
    gh = system.apply_gs(h, np.zeros(system.n_junctions))
    wdot_free = -(gh[jf] + system.omega_gamma[jf] * np.abs(w) * w) / cw
    drho_gain = (system.apply_d(m) / system.dx_cells)[system.junction_term_cells]
    # d/dtau sum(sign * arho_f w_f) = 0 determines the multiplier
    coef = np.bincount(slots, arho / cw, minlength=system.n_junctions)
    rhs = np.bincount(slots, system.junction_term_signs
                      * (arho * wdot_free - w * drho_gain),
                      minlength=system.n_junctions)
    return rhs / coef


def spatial_residual(system, state, boundary_values, forcing=None, tau=None):
    """Instantaneous (drho/dtau, dw/dtau) for the hyperbolic model."""
    if system.epsilon == 0.0:
        raise ValueError("epsilon = 0 has no hyperbolic dynamics; "
                         "use the parabolic solver")
    state.validate()
    if tau is None:
        tau = state.tau
    h, m = system.costate(state)
    hv = junction_enthalpies(system, state)
    load_w = system.boundary_load(boundary_values)
    load_rho = np.zeros(system.n_cells)
    if forcing is not None:
        f1, f2 = forcing
        load_rho += system.dx_cells * f1(system.x_cells, tau)
        load_w += system.omega_faces * f2(system.x_faces, tau)
    fr = system.omega_gamma * np.abs(state.w) * state.w
    drho = (load_rho - system.apply_d(m)) / system.c_rho
    dw = (load_w - system.apply_gs(h, hv) - fr) / system.c_w
    return drho, dw


def constant_state(system, rho, w=0.0):
    """The state at tau 0 with density rho in every cell and velocity w
    on every face."""
    return NetworkState(0.0, np.full(system.n_cells, float(rho)),
                        np.full(system.n_faces, float(w)))


def total_mass(system, state):
    return float(np.dot(system.c_rho, state.rho))


def balance_residuals(trajectory):
    """The balance residual of every step, H^{n+1} - H^n + dt*(D -
    flux), from the reports after the first snapshot."""
    return np.array([r.balance_residual for r in trajectory.reports[1:]])


# ---------------------------------------------------------------------------
# co-state defect

def costate_defect_direct(system, u, uhat):
    """z(u) - z(uhat) - G(uhat)(u - uhat) from the assembled maps."""
    _check_pair(system, u, uhat)
    h_u, m_u = system.costate(u)
    h_hat, m_hat = system.costate(uhat)
    d_rho = u.rho - uhat.rho
    d_w = u.w - uhat.w
    lf, rf = system.cell_left_face, system.cell_right_face
    dh = (system.law.d2potential(uhat.rho) * d_rho
          + 0.5 * system.epsilon**2 * (uhat.w[lf] * d_w[lf] + uhat.w[rf] * d_w[rf]))
    dm = system.arho_faces(d_rho) * uhat.w + system.arho_faces(uhat.rho) * d_w
    return h_u - h_hat - dh, m_u - m_hat - dm


def costate_defect_closed(system, u, uhat):
    """Closed form of the same defect.

    First component: P'(rho | rhohat) + eps^2 (w - what)^2 / 2 (cell
    averaged); second component: a (rho - rhohat) (w - what) with the
    face reconstruction of a*(rho - rhohat).
    """
    _check_pair(system, u, uhat)
    d_rho = u.rho - uhat.rho
    d_w = u.w - uhat.w
    law = system.law
    p_rel = (law.dpotential(u.rho) - law.dpotential(uhat.rho)
             - law.d2potential(uhat.rho) * d_rho)
    lf, rf = system.cell_left_face, system.cell_right_face
    first = p_rel + 0.25 * system.epsilon**2 * (d_w[lf] ** 2 + d_w[rf] ** 2)
    second = system.arho_faces(d_rho) * d_w
    return first, second


# ---------------------------------------------------------------------------
# studies and topology files

def assert_no_child_processes():
    """No child process of this one is left, running or unreaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"child process {pid or 'still running'} was left")


def monotone_violations(values, rel_tol=1e-9):
    """Number of increases in a supposedly decreasing error sequence."""
    values = np.asarray(values, dtype=float)
    return int(np.sum(values[1:] > values[:-1] * (1.0 + rel_tol)))


def _format_profile(spec):
    if isinstance(spec, tuple):
        return ", ".join(f"{x:.17g}:{y:.17g}" for x, y in spec)
    return f"{spec:.17g}"


def format_topology(topology, boundary_defaults=None):
    """Serialize a topology to the plain-text format parse_topology reads."""
    lines = ["[vertices]"]
    lines += list(topology.vertices)
    for e in topology.edges:
        p = e.params
        lines += [
            "",
            f"[edge {e.name}]",
            f"from = {e.start}",
            f"to = {e.end}",
            f"length = {p.length:.17g}",
            f"area = {_format_profile(p.area)}",
            f"friction = {_format_profile(p.friction)}",
            f"elevation = {_format_profile(p.elevation)}",
            f"gravity = {p.gravity:.17g}",
        ]
    for v, value in (boundary_defaults or {}).items():
        lines += ["", f"[boundary {v}]", f"h = {value:.17g}"]
    return "\n".join(lines) + "\n"
