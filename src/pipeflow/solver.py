"""Implicit time integration for the semi-discrete network equations.

There is one model, the port-structured system C du/dtau + (J + R(u)) z
= B, and one Newton solver for its theta-scheme stages.  The unknowns are
the cell densities, the face velocities and the junction enthalpies; the
Jacobian is analytic on a fixed sparsity pattern, and the friction term
gamma*|w|*w is handled semismoothly (subgradient 0 at w = 0).  The
iteration is a simplified Newton method: it keeps the LU factorization of
the last Jacobian it built, across iterations and steps of the same dt
but for at most ``max_lu_age`` steps after the one that built it, and
takes a full step with it as long as that step contracts the residual
quickly.  When it does not, the Jacobian is rebuilt and factored at the
current iterate and the update is damped by a halving line search.
The stopping test is the same in both cases, so every accepted state
satisfies the equations to the Newton tolerance.  A step that continues
the stepper's own sequence at the same dt starts Newton from the
solution extrapolated through the last accepted steps, at the order (1
to 4) whose prediction of the last step missed least; any other step
starts afresh from its initial state.
Junction mass balances are imposed on the accepted end-of-step state so
that every snapshot satisfies them to solver tolerance.  Two steppers
fix the model's parameters:

* HyperbolicStepper (epsilon > 0): implicit midpoint (default) or
  backward Euler at the system's epsilon.

* ParabolicStepper (high-friction limit): the same system at epsilon =
  0, where the eps^2 block of C vanishes, with backward Euler.  The
  momentum rows then tie the face velocities to the discrete enthalpy
  gradient s by gamma*|w|*w = -s, solved together with the mass update.
  Its runs record the balance residual of the limit energy (no eps^2
  kinetic term), which backward Euler keeps <= 0.

Only enthalpy-type boundary data are supported; prescribed mass-flux
boundary values would enter through an extra load term at the terminal
faces and are left as an extension point.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import pickle
import sys
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_mod
from .discretization import NetworkState, weighted_sum
from .gas import bisect


_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _load_superlu():
    """scipy's SuperLU extension, loaded from its file.  The extension
    imports numpy alone, so this runs no ``__init__`` of scipy: importing
    ``scipy.sparse.linalg`` for one factorization would cost about 0.25 s
    of every start.  The module goes into ``sys.modules`` under its own
    name, so a later import of ``scipy.sparse.linalg`` uses it too."""
    if _SUPERLU in sys.modules:
        return sys.modules[_SUPERLU]
    spec = importlib.util.find_spec("scipy")  # imports nothing
    if spec is None:
        raise ImportError("pipeflow needs scipy's SuperLU extension, "
                          "and scipy is not installed")
    path = os.path.join(spec.submodule_search_locations[0], "sparse",
                        "linalg", "_dsolve",
                        "_superlu" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import version
        raise ImportError(f"no SuperLU extension at {path} (scipy "
                          f"{version('scipy')}; pipeflow is tested with "
                          "scipy 1.17)", path=path)
    loader = importlib.machinery.ExtensionFileLoader(_SUPERLU, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_SUPERLU, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_SUPERLU] = module
    return module


_superlu = _load_superlu()

# A square matrix in canonical CSC form (column-sorted rows, no
# duplicates), with int32 indices: the attributes splu reads, which a
# scipy CSC matrix has as well.
CSC = namedtuple("CSC", "data indices indptr shape")


def _csc_array(*args, **kwargs):
    """scipy's csc_array, imported when a factorization's L or U is
    asked for."""
    from scipy.sparse import csc_array
    return csc_array(*args, **kwargs)


def splu(jac, permc_spec=None):
    """The SuperLU factorization of a square canonical CSC matrix: the
    gstrf call that scipy.sparse.linalg.splu(jac, permc_spec) makes under
    the COLAMD and MMD orderings (under NATURAL scipy also sets
    SymmetricMode)."""
    return _superlu.gstrf(jac.shape[0], len(jac.data), jac.data,
                          jac.indices, jac.indptr,
                          csc_construct_func=_csc_array, ilu=False,
                          options=dict(DiagPivotThresh=None,
                                       ColPerm=permc_spec, PanelSize=None,
                                       Relax=None))


class StepFailure(RuntimeError):
    """Newton iteration did not reach the requested tolerance."""

    def __init__(self, message, step=None, tau=None, dt=None, residual=None,
                 iterations=None):
        super().__init__(message)
        self.step = step
        self.tau = tau
        self.dt = dt
        self.residual = residual
        self.iterations = iterations
        self.partial = None
        self.run_label = None  # which run of a study failed


@dataclass
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = "midpoint"
    newton_tol: float = 1e-11
    max_iter: int = 30
    parabolic: bool = False

    def __post_init__(self):
        # each comparison is false on nan
        if not 0.0 < self.dt < math.inf:
            raise ValueError("time step must be positive and finite, "
                             f"got {self.dt}")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("final time must be nonnegative and finite, "
                             f"got {self.t_final}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError("Newton tolerance must be positive and finite, "
                             f"got {self.newton_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        aliases = {"implicit-midpoint": "midpoint", "midpoint": "midpoint",
                   "backward-euler": "backward-euler", "be": "backward-euler"}
        key = str(self.scheme).strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        self.scheme = aliases[key]


@dataclass
class EnergyReport:
    tau: float
    energy: float
    dissipation: float
    boundary_flux: float
    balance_residual: float


@dataclass
class Trajectory:
    """Snapshots with their reports and the work of the steps between
    them.  ``rho_array()`` and ``w_array()`` are (K, n) stacks of the
    snapshots, built once."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stage_dissipation: list = field(default_factory=list)
    stage_flux: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    junction_h: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    stacks: tuple = field(default=None, repr=False, compare=False)

    def append(self, state, report):
        self.times.append(state.tau)
        self.states.append(state)
        self.reports.append(report)
        self.stacks = None

    def _stacked(self):
        if self.stacks is None or len(self.stacks[0]) != len(self.states):
            self.stacks = (np.array([s.rho for s in self.states]),
                           np.array([s.w for s in self.states]))
        return self.stacks

    def rho_array(self):
        return self._stacked()[0]

    def w_array(self):
        return self._stacked()[1]


def _eval_boundary(schedule, vertices, tau):
    values = {}
    for v in vertices:
        if v not in schedule:
            raise ValueError(f"missing boundary schedule for vertex {v!r}")
        entry = schedule[v]
        values[v] = float(entry(tau)) if callable(entry) else float(entry)
    return values


# ---------------------------------------------------------------------------
# Newton solver and port model

class _NewtonStepper:
    """Newton solver for one implicit stage of the port model.

    The stage equations are, with stage values x_s = x_n + theta (x - x_n),

        c_rho (rho - rho_n)               + dt (D m_s - l_rho) = 0
        c_w (w - w_n) + dt (G h_s + S h_v + omega gamma |w_s| w_s - l_w) = 0
        S^T m(rho, w) = 0

    with c_w = eps^2 omega, h_s = eps^2 kin(w_s)/2 + P'(rho_s) + g z and
    the junction balances imposed on the end-of-step state.  A stepper
    fixes eps and theta and supplies its stage loads (``_stage``), its
    starting values when there is no prediction (``_fresh_start``), its
    line-search cut limit (``max_cuts``) and the column order SuperLU
    factors its Jacobian in (``ordering``).  At eps = 0 the c_w term and
    the kinetic coupling d(G h)/dw vanish, and with them the template's
    ``ww`` block; at theta = 1 the stage state is the end state.  These
    cases are branches rather than products with zero or one, which
    keeps the other cases' floating-point results unchanged.

    Newton starts from values extrapolated through the stacked unknowns
    x = (rho, w, h_v) of the last accepted steps (the starting values of
    Hairer & Wanner, Solving ODEs II, IV.8).  The stepper keeps them as
    the backward differences [x_n, nabla x_n, ..., nabla^5 x_n], with
    their dt and the state it last returned, and predicts x_n + nabla x_n
    + ... + nabla^p x_n.  nabla^(p+1) x_n is exactly how far the order-p
    prediction of x_n missed, so p, from 1 to ``max_order``, is the one
    whose nabla^(p+1) x_n has the least 2-norm (Shampine & Gordon's order
    choice): smooth solutions extrapolate at high order, grid-scale
    oscillations at low order.  With one accepted step the start is x_n,
    with two the linear extrapolation; a rest state predicts itself bit
    for bit.  The stepper extrapolates only when it is stepped on from
    the state it returned with the same dt and the predicted densities
    are positive; otherwise the table restarts and the step starts from
    the stepper's fresh start (``_fresh_start``).

    Given a list of systems that share topology, grid and gas law, the
    stepper advances them together, as one block-diagonal system: the
    unknowns, residuals and differences are (M, n) stacks, eps, friction
    and boundary loads are each member's own, and one SuperLU
    factorization covers the members' Jacobians tiled along the
    diagonal.  The scaled residual norm, the Newton decisions and the
    extrapolation's restarts are joint (the order is each member's own),
    so each member iterates until all have converged.

    The stepper holds the LU factorization of the last Jacobian it built,
    the dt it was built for and the number of steps taken since.  Each
    iteration first tries a full step with it and keeps that step if the
    scaled residual norm falls to at most ``contraction`` times its
    value, or below the tolerance.  Otherwise the trial is dropped, the
    Jacobian is factored afresh at the current iterate and a damped
    Newton step is taken.  A new stepper or a new dt always factors on
    its first iteration, and so does a step that finds the held LU more
    than ``max_lu_age`` steps old (LSODE and CVODE likewise set their
    Newton matrix up again every 20 steps): the state drifts away from
    the one the LU was built at, and the chord steps contract less.  A
    step whose start already meets the tolerance factors nothing.
    """

    contraction = 0.05  # residual reduction a step with the held LU must reach
    max_lu_age = 20  # steps after its own that a held LU may serve
    max_order = 4  # highest extrapolation order of the Newton start

    def __init__(self, system, theta, newton_tol, max_iter, limit=False):
        members = None
        if isinstance(system, (list, tuple)):
            members, system = tuple(system), system[0]
            keys = ("c_rho", "gz_cells", "pair_kappa", "_gs_left", "_gs_right",
                    "boundary_term_faces")
            if any(s.law is not system.law or not all(
                    np.array_equal(getattr(s, k), getattr(system, k))
                    for k in keys) for s in members):
                raise ValueError("stepped members must share topology, grid "
                                 "and gas law")
        self.system, self.members = system, members

        def per_member(name):
            """The system's value, or the members' stacked (a column of
            numbers, so that each scales its member's rows)."""
            if members is None:
                return getattr(system, name)
            stack = np.array([getattr(s, name) for s in members])
            return stack[:, None] if stack.ndim == 1 else stack

        self.eps = 0.0 if limit else per_member("epsilon")
        self.kinetic = not limit  # whether the c_w and kinetic terms exist
        self.theta = theta
        self.newton_tol = newton_tol
        self.max_iter = max_iter
        self._omega_gamma = per_member("omega_gamma")
        self._gamma = per_member("gamma_faces")
        self._c_w = self.eps**2 * system.omega_faces
        self._half_eps2 = 0.5 * self.eps**2
        self._scale = self._scale_dt = None  # row scale, per dt
        self._lu = None
        self._lu_dt = None
        self._lu_age = 0  # steps ended since the held LU was factored
        self._diffs = []  # backward differences of the accepted unknowns
        self._diffs_dt = None
        self._returned = None  # the state the last step returned
        self._build_template()

    def _entries(self):
        """The Jacobian's (rows, cols) in the order _jacobian_data lists
        its values, duplicates included; sets the index arrays those
        values are gathered with and each block's slice of the values."""
        sys = self.system
        n_c, n_f = sys.n_cells, sys.n_faces
        rows, cols = [], []

        def block(r, c):
            rows.append(np.asarray(r, dtype=int))
            cols.append(np.asarray(c, dtype=int))

        # mass rows: time-derivative diagonal
        block(np.arange(n_c), np.arange(n_c))

        # mass rows: advection d(Dm)/d(rho) via reconstruction pairs
        pf, pc = sys.pair_face, sys.pair_cell
        lc, rc = sys.face_left_cell[pf], sys.face_right_cell[pf]
        self._rr_left = lc >= 0
        self._rr_right = rc >= 0
        block(lc[self._rr_left], pc[self._rr_left])
        block(rc[self._rr_right], pc[self._rr_right])

        # mass rows: d(Dm)/dw
        faces = np.arange(n_f)
        flc, frc = sys.face_left_cell, sys.face_right_cell
        self._rw_left = flc >= 0
        self._rw_right = frc >= 0
        block(flc[self._rw_left], n_c + faces[self._rw_left])
        block(frc[self._rw_right], n_c + faces[self._rw_right])

        # momentum rows: d(Gh)/drho
        block(n_c + faces[self._rw_right], frc[self._rw_right])
        block(n_c + faces[self._rw_left], flc[self._rw_left])

        # momentum rows: kinetic coupling d(Gh)/dw
        if self.kinetic:
            # per face: its right cell (sign +1), then its left cell (-1),
            # each with that cell's left and right face
            cells = np.stack((frc, flc), axis=1).ravel()
            has = cells >= 0
            c = cells[has]
            self._ww_sign = np.repeat(np.tile([1.0, -1.0], n_f)[has], 2)
            self._ww_fp = np.stack((sys.cell_left_face[c],
                                    sys.cell_right_face[c]), axis=1).ravel()
            block(np.repeat(n_c + faces, 2)[has].repeat(2), n_c + self._ww_fp)

        # momentum rows: time derivative + friction diagonal
        block(n_c + faces, n_c + faces)

        # momentum rows: junction enthalpy columns
        block(n_c + sys.junction_term_faces,
              n_c + n_f + sys.junction_term_slots)

        # junction constraint rows (end-of-step state)
        jf, adj = sys.junction_term_faces, sys.junction_term_cells
        self._j_kappa = (sys.a_cells[adj] * sys.dx_cells[adj]
                         / (2.0 * sys.omega_faces[jf]))
        block(n_c + n_f + sys.junction_term_slots, adj)
        block(n_c + n_f + sys.junction_term_slots, n_c + jf)

        ends = np.cumsum([r.size for r in rows]).tolist()
        self._blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        return np.concatenate(rows), np.concatenate(cols)

    def _build_template(self):
        """The CSC pattern coo_matrix((data, (rows, cols))).tocsc() builds
        from the entries: sorted by column, then row, with equal (row,
        col) pairs kept in entry order (a stable sort) and their values
        added left to right.  _csc_first holds each CSC entry's first
        value's position in the data; _csc_more, per further rank j,
        the entries with a j-th value and that value's position."""
        rows, cols = self._entries()
        n = self.system.n_z
        self._shape = (n, n)
        order = np.lexsort((rows, cols)).astype(np.intc)
        r, c = rows[order], cols[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(first)
        count = np.diff(np.append(starts, order.size))
        self._csc_first = order[starts]
        self._csc_more = [(np.flatnonzero(count > j).astype(np.intc),
                           order[starts[count > j] + j])
                          for j in range(1, count.max())]
        self._csc_indices = r[starts].astype(np.intc)
        self._csc_indptr = np.searchsorted(c[starts],
                                           np.arange(n + 1)).astype(np.intc)
        if self.members is not None:
            # the member pattern tiled along the diagonal: member i's
            # unknowns and CSC values follow those of members 0..i-1
            m, nnz = len(self.members), self._csc_indices.size
            i = np.arange(m)[:, None]
            self._csc_indices = (self._csc_indices
                                 + i * n).ravel().astype(np.intc)
            self._csc_indptr = np.append(
                (self._csc_indptr[:-1] + i * nnz).ravel(),
                m * nnz).astype(np.intc)
            self._shape = (m * n, m * n)

    def step(self, state, dt, boundary, tau_new=None):
        """Advance one step; returns (new_state, stage_info dict)."""
        sys = self.system
        tau_n = state.tau
        if tau_new is None:
            tau_new = tau_n + dt
        values, loads = self._stage(state, dt, boundary, tau_new)
        if state is not self._returned or dt != self._diffs_dt:
            self._diffs = []
        x = self._predict()
        if x is None:
            x = self._fresh_start(state, values)
        # scale rows to update units with the flux part in field units
        # (junction rows unscaled); the combined weight keeps the
        # attainable floor near machine precision for any dt
        if dt != self._scale_dt:
            weight = dt * sys.omega_faces
            parts = (sys.c_rho + dt * sys.dx_cells,
                     self._c_w + weight if self.kinetic else weight,
                     np.ones(sys.n_junctions))
            lead = parts[1].shape[:-1]  # (M,) where eps is the members' own
            self._scale = np.concatenate(
                [np.broadcast_to(q, lead + q.shape[-1:]) for q in parts],
                axis=-1)
            self._scale_dt = dt
        scale = self._scale

        def failure(message, residual=None, iterations=None):
            return StepFailure(message, tau=tau_n, dt=dt, residual=residual,
                               iterations=iterations)

        out = self._residual(dt, state, loads, x)
        if out is None:
            raise failure("stage density is not positive or outside the "
                          "gas law's table")
        norm = _scaled_norm(out[0], scale)
        if not np.isfinite(norm):
            raise failure(f"residual is not finite ({norm})", residual=norm,
                          iterations=0)
        if dt != self._lu_dt or self._lu_age > self.max_lu_age:
            self._lu = None
        it = factorizations = 0

        def trial(delta, step_scale):
            """The iterate after a step of -step_scale*delta, with its
            residual and scaled norm (inf if the gas law does not admit a
            stage density)."""
            if step_scale != 1.0:
                delta = step_scale * delta
            x_new = x - delta
            out_new = self._residual(dt, state, loads, x_new)
            if out_new is None:
                return x_new, None, np.inf
            return x_new, out_new, _scaled_norm(out_new[0], scale)

        while norm > self.newton_tol:
            if it >= self.max_iter:
                raise failure(
                    f"Newton did not converge in {self.max_iter} iterations "
                    f"(residual {norm:.3e})", residual=norm, iterations=it)
            rhs = out[0]
            new = None
            if self._lu is not None:
                new = trial(self._solve(rhs), 1.0)
                if not (new[2] <= self.contraction * norm
                        or new[2] <= self.newton_tol):
                    new = None
            if new is None:
                # built while the held factors still hold their memory:
                # freeing them first made SuperLU page its work arrays in
                # afresh (25k against 6k minor page faults in a run of
                # y_transient at 1024 cells per edge)
                jac = self._jacobian(dt, out[1])
                self._lu = None  # free the held factors before factoring anew
                try:
                    self._lu = splu(jac, permc_spec=self.ordering)
                    self._lu_dt = dt
                    self._lu_age = 0
                    delta = self._solve(rhs)
                except RuntimeError as exc:
                    raise failure(f"linear solve failed: {exc}",
                                  residual=norm, iterations=it) from exc
                factorizations += 1
                step_scale = 1.0
                for _ in range(self.max_cuts):
                    new = trial(delta, step_scale)
                    if new[2] < norm or new[2] <= self.newton_tol:
                        break
                    step_scale *= 0.5
                else:
                    raise failure("Newton line search stalled",
                                  residual=norm, iterations=it)
            x, out, norm = new
            it += 1

        rho, w, hv = self._unstack(x)
        # the residual checks the stage density only; at theta < 1 the
        # end density 2 rho_s - rho_n (midpoint) may still not be admitted
        if self.theta != 1.0 and not sys.law.admits(rho):
            raise failure("end density is not positive or outside the gas "
                          "law's table", residual=norm, iterations=it)
        self._accept(x, dt)
        self._lu_age += 1
        stage_dissipation, stage_flux = self._stage_power(loads, out[1])
        info = {
            "junction_h": hv.copy(),
            "stage_dissipation": stage_dissipation,
            "stage_flux": stage_flux,
            "iterations": it,
            "factorizations": factorizations,
        }
        self._returned = NetworkState(tau_new, rho, w)
        return self._returned, info

    def _solve(self, rhs):
        """The held LU's solution for a residual or a stack of them."""
        return self._lu.solve(rhs.ravel()).reshape(rhs.shape)

    def _boundary(self, boundary, tau):
        """The boundary values at tau and their load on the momentum rows;
        a batch takes a list of schedules and gives a list and a stack."""
        sys = self.system
        if self.members is None:
            values = _eval_boundary(boundary, sys.boundary_vertices, tau)
            return values, sys.boundary_load(values)
        values = [_eval_boundary(b, sys.boundary_vertices, tau)
                  for b in boundary]
        return values, sys.boundary_load(
            {v: [x[v] for x in values] for v in sys.boundary_vertices})

    def _accept(self, x, dt):
        """Put accepted unknowns at the head of the difference table:
        nabla^j x_(n+1) = nabla^(j-1) x_(n+1) - nabla^(j-1) x_n."""
        diffs = [x]
        for d in self._diffs[:self.max_order + 1]:
            diffs.append(diffs[-1] - d)
        self._diffs = diffs
        self._diffs_dt = dt

    def _order(self):
        """The extrapolation order: -1 without accepted steps, the number
        of differences below three entries, else the p in 1..max_order
        whose miss nabla^(p+1) x_n is least (the lowest on a tie); on a
        stack, an (M, 1) column of each member's p."""
        d = self._diffs
        if len(d) < 3:
            return len(d) - 1
        if d[0].ndim == 1:
            misses = [np.dot(e, e) for e in d[2:]]
            return 1 + misses.index(min(misses))
        misses = [np.vecdot(e, e) for e in d[2:]]  # sums as np.dot does
        return 1 + np.argmin(misses, axis=0)[:, None]

    def _predict(self):
        """x_n + nabla x_n + ... + nabla^p x_n at p = _order(), or None
        if there are no accepted steps or the gas law does not admit the
        predicted densities (which restarts the table)."""
        d = self._diffs
        if not d:
            return None
        p = self._order()
        x = d[0] + d[1] if len(d) > 1 else d[0].copy()
        top = p if isinstance(p, int) else p.max()
        for j, e in enumerate(d[2:top + 1], 2):
            np.add(x, e, out=x, where=p >= j)  # where the member's p >= j
        if not self.system.law.admits(x[..., :self.system.n_cells]):
            self._diffs = []
            return None
        return x

    def _unstack(self, x):
        """Views of (rho, w, h_v) in a stacked vector."""
        n_c, n_cf = self.system.n_cells, self.system.n_state
        return x[..., :n_c], x[..., n_c:n_cf], x[..., n_cf:]

    def _residual(self, dt, state, loads, x):
        """The stacked residual (f_rho, f_w, f_j) at the unknowns x =
        (rho, w, h_v), and the values the Jacobian and the stage power
        need; None if the gas law does not admit a stage density."""
        sys = self.system
        rho, w, hv = self._unstack(x)
        th = self.theta
        load_rho, load_w = loads
        d_rho = rho - state.rho
        d_w = w - state.w if self.kinetic or th != 1.0 else None
        if th == 1.0:
            rho_s, w_s = rho, w
        else:
            rho_s = state.rho + th * d_rho
            w_s = state.w + th * d_w
        if not sys.law.admits(rho_s):
            return None
        h_s = sys.law._dpotential(rho_s)
        if self.kinetic:
            h_s = self._half_eps2 * sys.kinetic_cells(w_s) + h_s
        h_s = h_s + sys.gz_cells
        arho_s = sys.arho_faces(rho_s)
        m_s = arho_s * w_s
        fr_s = self._omega_gamma * np.abs(w_s) * w_s
        f_rho = sys.c_rho * d_rho + dt * sys.apply_d(m_s)
        if load_rho is not None:
            f_rho = f_rho - dt * load_rho
        f_w = dt * (sys.apply_gs(h_s, hv) + fr_s)
        if self.kinetic:
            f_w = self._c_w * d_w + f_w
        f_w = f_w - dt * load_w
        if th == 1.0:
            arho_end, m_end = arho_s, m_s
        else:
            arho_end = sys.arho_faces(rho)
            m_end = arho_end * w
        f_j = sys.apply_st(m_end)
        cache = (rho_s, w_s, arho_s, m_s, h_s, arho_end, w)
        return np.concatenate((f_rho, f_w, f_j), axis=-1), cache

    def _jacobian(self, dt, cache):
        """The Jacobian at a residual's cache, in canonical CSC form."""
        values = self._jacobian_data(dt, cache)
        data = values.take(self._csc_first, axis=-1)
        for entries, positions in self._csc_more:
            data[..., entries] += values.take(positions, axis=-1)
        return CSC(data.ravel(), self._csc_indices, self._csc_indptr,
                   self._shape)

    def _jacobian_data(self, dt, cache):
        """The Jacobian's values in template entry order, each block
        written into its slice of one buffer."""
        sys = self.system
        dth = dt * self.theta
        rho_s, w_s, arho_s, _, _, arho_end, w_end = cache
        d2p = sys.law._d2potential(rho_s)
        mul = np.multiply
        v = np.empty(w_s.shape[:-1] + (self._blocks[-1].stop,))
        # the blocks in _entries' order, each a slice of the last axis
        at = ((..., block) for block in self._blocks)

        def gather(values, index):
            # numpy's 1-D fast path is five times faster on large grids
            return values[index] if values.ndim == 1 else values[..., index]
        v[next(at)] = sys.c_rho
        pf, kappa, left, right = (sys.pair_face, sys.pair_kappa,
                                  self._rr_left, self._rr_right)
        mul(dth * gather(w_s, pf[left]), kappa[left], out=v[next(at)])
        mul(-dth * gather(w_s, pf[right]), kappa[right], out=v[next(at)])
        mul(dth, gather(arho_s, self._rw_left), out=v[next(at)])
        mul(-dth, gather(arho_s, self._rw_right), out=v[next(at)])
        mul(dth, gather(d2p, sys.face_right_cell[self._rw_right]),
            out=v[next(at)])
        mul(-dth, gather(d2p, sys.face_left_cell[self._rw_left]),
            out=v[next(at)])
        if self.kinetic:
            mul(dth * self._ww_sign * 0.5 * self.eps**2,
                gather(w_s, self._ww_fp), out=v[next(at)])
        abs_w = np.abs(w_s)
        if not self.kinetic:
            np.maximum(abs_w, self._w_floor, out=abs_w)
        diagonal = v[next(at)]
        mul(dth * 2.0 * sys.omega_faces * self._gamma, abs_w, out=diagonal)
        if self.kinetic:
            diagonal += self._c_w
        jf, signs = sys.junction_term_faces, sys.junction_term_signs
        mul(dt, signs, out=v[next(at)])
        mul(signs * gather(w_end, jf), self._j_kappa, out=v[next(at)])
        mul(signs, gather(arho_end, jf), out=v[next(at)])
        return v

    def _stage_power(self, loads, cache):
        sys = self.system
        load_rho, load_w = loads
        _, w_s, arho_s, m_s, h_s, _, _ = cache
        abs_w = np.abs(w_s)
        stage_dissipation = weighted_sum(self._omega_gamma * arho_s,
                                         abs_w * abs_w * abs_w)
        stage_flux = weighted_sum(load_w, m_s)
        if load_rho is not None:
            stage_flux = stage_flux + weighted_sum(load_rho, h_s)
        return stage_dissipation, stage_flux


def _scaled_norm(res, scale):
    """Largest scaled residual entry, over every member of a stack; NaN
    if any entry is NaN."""
    return np.maximum.reduce(np.abs(res) / scale, axis=None)


# ---------------------------------------------------------------------------
# the two steppers

class HyperbolicStepper(_NewtonStepper):
    """The port model at the system's epsilon (each member's own), with
    implicit midpoint (theta = 1/2) or backward Euler (theta = 1)."""

    max_cuts = 12  # line-search halvings before a step is given up
    # C > 0 puts a nonzero on every state row's diagonal and J is skew,
    # so the Jacobian's pattern is symmetric: order on A^T + A.  That
    # fills less on tree networks; COLAMD fills less around a cycle
    ordering = "MMD_AT_PLUS_A"

    def __init__(self, system, scheme="midpoint", newton_tol=1e-11, max_iter=30,
                 forcing=None):
        theta = 0.5 if scheme == "midpoint" else 1.0
        super().__init__(system, theta, newton_tol, max_iter)
        if np.any(self.eps == 0.0):
            raise ValueError("epsilon = 0 has no hyperbolic dynamics; "
                             "use the parabolic solver")
        self.forcing = forcing

    def _stage(self, state, dt, boundary, tau_new):
        sys = self.system
        tau_s = state.tau + self.theta * dt
        values, load_w = self._boundary(boundary, tau_s)
        load_rho = None
        if self.forcing is not None:
            f1, f2 = self.forcing
            load_rho = sys.dx_cells * f1(sys.x_cells, tau_s)
            load_w = load_w + sys.omega_faces * f2(sys.x_faces, tau_s)
        return values, (load_rho, load_w)

    def _fresh_start(self, state, values):
        """The state with zero junction enthalpies."""
        return np.concatenate(
            (state.rho, state.w,
             np.zeros(state.rho.shape[:-1] + (self.system.n_junctions,))),
            axis=-1)


class ParabolicStepper(_NewtonStepper):
    """The high-friction limit: the port model at eps = 0 with backward
    Euler, whatever the system's epsilon.

    Its momentum rows are dt*omega*(gamma*|w|*w + s) = 0, with s the
    discrete enthalpy gradient, so the face velocities stay explicit
    unknowns instead of being eliminated through the square root: Newton
    on the eliminated form oscillates around zero-slope faces (the root
    has unbounded slope there), while the polynomial form is semismooth
    with superlinear convergence.  At convergence both forms satisfy
    exactly the same equations, so every accepted state still fulfils
    gamma*|w|*w = -s face by face to solver tolerance.  A step starts
    from the predicted unknowns as they are; a fresh start takes rho_n
    with limit_flow's velocities and junction enthalpies.

    The Jacobian's friction diagonal 2 dt omega gamma |w| vanishes at
    rest, where a flow that changes no density (around a cycle, or out
    of a junction through two starting pipes) makes it singular.  So the
    Jacobian, not the residual, floors |w| at sqrt(newton_tol / gamma),
    below which gamma w^2 meets the tolerance (no floor where gamma = 0).
    """

    max_cuts = 14
    # the friction diagonal is small where the gas rests, so a symmetric
    # order pivots off the diagonal and fills in
    ordering = "COLAMD"

    def __init__(self, system, newton_tol=1e-11, max_iter=40):
        super().__init__(system, 1.0, newton_tol, max_iter, limit=True)
        gamma = self._gamma
        self._w_floor = np.sqrt(np.divide(newton_tol, gamma, where=gamma > 0.0,
                                          out=np.zeros_like(gamma)))

    def _stage(self, state, dt, boundary, tau_new):
        values, load_w = self._boundary(boundary, tau_new)
        return values, (None, load_w)

    def _fresh_start(self, state, values):
        """rho_n with the limit velocities and junction enthalpies."""
        def start(system, rho, values):
            return np.concatenate((rho, *limit_flow(system, rho, values)))
        if self.members is None:
            return start(self.system, state.rho, values)
        return np.array(list(map(start, self.members, state.rho, values)))


# ---------------------------------------------------------------------------
# velocity recovery and limit junction values

def _recovery(s, gamma):
    return -np.sign(s) * np.sqrt(np.abs(s) / gamma)


def velocity_recovery(system, rho, boundary_values, junction_h):
    """Face velocities solving gamma*|w|*w = -s for the limit model.

    s is the slope of the enthalpy P'(rho) + g z across every face,
    (G h + S h_v - B) / omega: centered between the two cells at interior
    faces, and between the cell and the vertex value (boundary_values at
    a boundary vertex, junction_h at a junction) at terminal faces.
    """
    h = system.law.dpotential(rho) + system.gz_cells
    s = (system.apply_gs(h, junction_h)
         - system.boundary_load(boundary_values)) / system.omega_faces
    return _recovery(s, system.gamma_faces)


def limit_flow(system, rho, boundary_values):
    """The limit model's face velocities and junction enthalpies for a
    density and boundary values: (w, junction_h), with junction_h
    balancing the recovered mass fluxes at every junction.

    The signed mass-flow sum at a junction decreases in its enthalpy x,
    since each term sign*(a rho)_f*w_f(x) does; it is >= 0 at the least
    and <= 0 at the greatest enthalpy of the junction's adjacent cells.
    All junctions are solved at once by bisect on those brackets, and
    each gets the one of the two adjacent floats around its balance with
    the smaller mass defect.  Equal adjacent enthalpies give exactly that
    enthalpy and zero velocities at the junction's faces.
    """
    rho = np.asarray(rho, dtype=float)
    h = system.law.dpotential(rho) + system.gz_cells
    arho = system.arho_faces(rho)
    slots, faces = system.junction_term_slots, system.junction_term_faces
    signs = system.junction_term_signs
    h_adj = h[system.junction_term_cells]
    # the face slope (x - h_adj)/omega, signed by the edge's direction
    sign_omega = signs * system.omega_faces[faces]
    gamma, sign_arho = system.gamma_faces[faces], signs * arho[faces]

    def defect(x):
        s = (x[slots] - h_adj) / sign_omega
        return np.bincount(slots, sign_arho * _recovery(s, gamma),
                           minlength=system.n_junctions)

    lo = np.full(system.n_junctions, np.inf)
    hi = np.full(system.n_junctions, -np.inf)
    np.minimum.at(lo, slots, h_adj)
    np.maximum.at(hi, slots, h_adj)
    hv = bisect(defect, lo, hi)
    return velocity_recovery(system, rho, boundary_values, junction_h=hv), hv


# ---------------------------------------------------------------------------
# driver

def _steps(config):
    n_steps = int(round(config.t_final / config.dt)) if config.t_final > 0 else 0
    if n_steps and abs(n_steps * config.dt - config.t_final) > 1e-9 * config.t_final:
        raise ValueError("t_final must be an integer multiple of dt")
    return n_steps


def _stepper(system, config, forcing=None):
    """The config's stepper for a system or a list of member systems."""
    if config.parabolic:
        return ParabolicStepper(system, newton_tol=config.newton_tol,
                                max_iter=config.max_iter)
    return HyperbolicStepper(system, scheme=config.scheme,
                             newton_tol=config.newton_tol,
                             max_iter=config.max_iter, forcing=forcing)


def _start(system, state0, config, boundary):
    """state0; on a parabolic run from rest velocities, with limit_flow's."""
    if config.parabolic and np.count_nonzero(state0.w) == 0 and system.n_faces:
        values = _eval_boundary(boundary, system.boundary_vertices, state0.tau)
        w0, _ = limit_flow(system, state0.rho, values)
        state0 = NetworkState(state0.tau, state0.rho.copy(), w0)
    return state0


def run(system, state0, config, boundary, forcing=None, bounds=None,
        batch=None):
    """Advance from state0 to t_final, recording every step.

    Returns a Trajectory.  On a step failure the exception carries the
    partial trajectory, reported up to its last accepted state, in its
    ``partial`` attribute.  With ``batch``, returns the trajectory of the
    Batch's member with these arguments.
    """
    if batch is not None:
        return batch.take(system, state0, config, boundary)
    n_steps = _steps(config)
    stepper = _stepper(system, config, forcing)
    state = state0 = _start(system, state0, config, boundary)
    recorder = _Recorder(system, config, boundary, bounds, n_steps + 1)
    recorder.add(state0)
    for k in range(n_steps):
        tau_new = state0.tau + (k + 1) * config.dt
        try:
            state, info = stepper.step(state, config.dt, boundary, tau_new=tau_new)
        except StepFailure as failure:
            failure.step = k
            failure.partial = recorder.flush()
            raise
        recorder.add(state, info)
    return recorder.flush()


class Batch:
    """Runs that share topology, grid, gas law and SolverConfig, stepped
    as one block-diagonal system.  A member is the arguments (system,
    state0, config, boundary) of its run, and ``run(*member,
    batch=batch)`` returns its trajectory, each handed out once.  Members
    iterate to a joint residual norm, so they differ from their own runs
    at tolerance level.

    The members step in a child process forked when the batch is made,
    so the caller can do other work meanwhile; the first ``take`` waits
    for them.  The child inherits the members' systems and boundary
    schedules, which need not pickle, and sends back each trajectory as a
    few arrays, received one member at a time as they are taken.  Without
    ``os.fork``, or if it fails, the members step in process at the first
    ``take``.  After a failed joint step each member runs on its own in
    the caller, so a StepFailure names the failing one and carries its
    partial trajectory; any other error of the joint run is raised in the
    caller.  Leaving a ``with`` block, or ``close()``, stops and reaps a
    child still running.
    """

    def __init__(self, members):
        self.members = [tuple(m) for m in members]
        self._trajectories = None
        self._child = None
        if hasattr(os, "fork"):
            self._fork()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Kill and reap the child if it still runs."""
        if self._child is not None:
            self._reap()

    def take(self, *member):
        for i, known in enumerate(self.members):
            if all(a is b for a, b in zip(known, member)):
                break
        else:
            raise ValueError("not a member of this batch")
        if self._child is not None:
            self._receive(i)
        elif self._trajectories is None:
            try:
                self._trajectories = self._run()
            except StepFailure:
                self._trajectories = [None] * len(self.members)
        traj, self._trajectories[i] = self._trajectories[i], None
        return run(*member) if traj is None else traj

    def _fork(self):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # out of processes, say: step in process instead
            os.close(read)
            os.close(write)
            return
        if pid == 0:  # the child: nothing may return into the caller's stack
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    self._send(pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self._pipe = open(read, "rb")
        # also reaps the child of a batch dropped unfinished, or at exit
        self._child = weakref.finalize(self, _stop, pid, self._pipe)

    def _reap(self, kill=True):
        """Reap the child, killing it first unless it has sent all it
        will; returns its exit code."""
        _, stop, args, _ = self._child.detach()
        self._child = None
        return stop(*args, kill=kill)

    def _send(self, pipe):
        """Step the members; send the outcome, then each trajectory."""
        try:
            trajectories = self._run()
        except StepFailure:
            trajectories = None
        except Exception as exc:
            try:
                message = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
            except Exception:
                message = pickle.dumps(RuntimeError(
                    f"batch child: {type(exc).__name__}: {exc}"))
            pipe.write(message)
            return
        pickle.dump(trajectories is not None, pipe, pickle.HIGHEST_PROTOCOL)
        for traj in trajectories or ():
            pickle.dump(_pack(traj), pipe, pickle.HIGHEST_PROTOCOL)

    def _receive(self, i):
        """Read from the child until member i's trajectory is in; reap
        the child once it has sent everything."""
        if self._trajectories is None:
            outcome = self._load()
            if isinstance(outcome, Exception):
                self._reap(kill=False)
                raise outcome
            if not outcome:  # a joint step failed
                self._trajectories = [None] * len(self.members)
                self._reap(kill=False)
                return
            self._trajectories = []
        while len(self._trajectories) <= i:
            self._trajectories.append(_unpack(*self._load()))
        if len(self._trajectories) == len(self.members):
            self._reap(kill=False)

    def _load(self):
        try:
            return pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError) as exc:
            status = self._reap(kill=False)
            if status == 0:
                raise
            how = (f"was killed by signal {-status}" if status < 0
                   else f"exited with status {status}")
            raise RuntimeError(f"the batch's child process {how} before "
                               "sending its runs") from exc

    def _run(self):
        systems, _, configs, boundaries = zip(*self.members)
        config = configs[0]
        if any(c != config for c in configs):
            raise ValueError("batched runs must share one SolverConfig")
        n_steps = _steps(config)
        stepper = _stepper(systems, config)
        states = [_start(*m) for m in self.members]
        recorders = [_Recorder(system, config, boundary, None, n_steps + 1)
                     for system, boundary in zip(systems, boundaries)]
        for recorder, state in zip(recorders, states):
            recorder.add(state)
        tau0 = states[0].tau
        state = NetworkState(tau0, [s.rho for s in states],
                             [s.w for s in states])
        for k in range(n_steps):
            state, info = stepper.step(state, config.dt, boundaries,
                                       tau_new=tau0 + (k + 1) * config.dt)
            split = zip(state.rho, state.w, info["junction_h"],
                        info["stage_dissipation"].tolist(),
                        info["stage_flux"].tolist())
            for recorder, (rho, w, hv, dissipation, flux) in zip(recorders,
                                                                 split):
                recorder.add(NetworkState(state.tau, rho, w),
                             dict(info, junction_h=hv,
                                  stage_dissipation=dissipation,
                                  stage_flux=flux))
        return [recorder.flush() for recorder in recorders]


def _stop(pid, pipe, kill=True):
    """Close a batch's pipe and reap its child, killed first if kill;
    returns the child's exit code."""
    pipe.close()
    if kill:
        import signal  # 1 ms that a run without a batch need not pay

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _pack(traj):
    """A trajectory as its lists and a few arrays, which pickle compactly."""
    reports = np.array([(r.energy, r.dissipation, r.boundary_flux,
                         r.balance_residual) for r in traj.reports])
    return (traj.times, traj.rho_array(), traj.w_array(), reports,
            traj.stage_dissipation, traj.stage_flux, traj.iterations,
            traj.factorizations, np.array(traj.junction_h), traj.warnings)


def _unpack(times, rho, w, reports, stage_dissipation, stage_flux, iterations,
            factorizations, junction_h, warnings):
    """The trajectory _pack took apart; its states are views of the
    stacks' rows, as in studies._subsample."""
    return Trajectory(
        times=times, states=[NetworkState(*s) for s in zip(times, rho, w)],
        reports=[EnergyReport(tau, *r)
                 for tau, r in zip(times, reports.tolist())],
        stage_dissipation=stage_dissipation, stage_flux=stage_flux,
        iterations=iterations, factorizations=factorizations,
        junction_h=list(junction_h), warnings=warnings, stacks=(rho, w))


# values per row of a report block, whose (K, n) temporaries thus stay
# near 64 kB on any grid
_BLOCK_VALUES = 8192


class _Recorder:
    """A run's trajectory, with the energy reports computed a block of
    snapshots at a time.

    The stepping loop only adds states.  Every few snapshots (fewer on a
    large grid) the functionals run once on a (K, n) stack of the
    block's states: energy, dissipation, boundary flux at each
    snapshot's own boundary data, and the balance residual H_k - H_{k-1}
    + dt (D - F) with the stage power of the step that produced snapshot
    k.  H is the Hamiltonian, or on a parabolic run the limit energy,
    which backward Euler on that convex energy keeps <= 0 to solver
    tolerance.  Admissibility is flagged per snapshot as it is added.

    Each state is its own copy.  With (K, n) stacks preallocated for the
    whole run, about half of the runs of y_transient at 1024 cells per
    edge paged SuperLU's work arrays in afresh at every factorization
    (19k minor page faults per run against 4-6k).
    """

    def __init__(self, system, config, boundary, bounds, n_snapshots):
        self.system, self.boundary, self.bounds = system, boundary, bounds
        self.dt, self.parabolic = config.dt, config.parabolic
        # stage dissipation and flux of the step into each snapshot
        self.power = np.full((2, n_snapshots), np.nan)
        self.h_last = np.nan  # balance energy of the last reported snapshot
        self.block = max(1, _BLOCK_VALUES // max(system.n_faces, 1))
        self.traj = Trajectory()

    def add(self, state, info=None):
        traj, k = self.traj, len(self.traj.states)
        traj.times.append(state.tau)
        traj.states.append(state.copy())
        if info is not None:
            self.power[:, k] = info["stage_dissipation"], info["stage_flux"]
            traj.stage_dissipation.append(info["stage_dissipation"])
            traj.stage_flux.append(info["stage_flux"])
            traj.iterations.append(info["iterations"])
            traj.factorizations.append(info["factorizations"])
            traj.junction_h.append(info["junction_h"])
        if self.bounds is not None:
            _flag(self.system, traj.states[k], self.bounds, traj, k)
        if k + 1 - len(traj.reports) == self.block:
            self.flush()

    def flush(self):
        """Report the snapshots not reported yet; returns the trajectory."""
        sys, traj = self.system, self.traj
        start, stop = len(traj.reports), len(traj.states)
        if start == stop:
            return traj
        taus, states = traj.times[start:stop], traj.states[start:stop]
        block = NetworkState(taus, np.array([s.rho for s in states]),
                             np.array([s.w for s in states]))
        values = [_eval_boundary(self.boundary, sys.boundary_vertices, tau)
                  for tau in taus]
        energy = energy_mod.hamiltonian(sys, block)
        dissipation = energy_mod.dissipation(sys, block)
        flux = energy_mod.boundary_flux(
            sys, block, {v: [x[v] for x in values] for v in sys.boundary_vertices})
        h = (energy_mod.limit_energy(sys, block.rho) if self.parabolic
             else energy)
        h_prev = np.concatenate(([self.h_last], h[:-1]))
        self.h_last = h[-1]
        stage_dissipation, stage_flux = self.power[:, start:stop]
        residual = (h - h_prev + self.dt * stage_dissipation
                    - self.dt * stage_flux)
        traj.reports += map(EnergyReport, taus, energy.tolist(),
                            dissipation.tolist(), flux.tolist(),
                            residual.tolist())
        return traj


def _flag(system, state, bounds, traj, step):
    kinds = system.check_state(state, bounds)
    if kinds:
        traj.warnings.append(
            f"step {step} (tau={state.tau:.6g}): admissibility lost ({', '.join(kinds)})")
