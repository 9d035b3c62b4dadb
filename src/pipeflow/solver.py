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
import tempfile
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import energy as energy_mod
from .discretization import NetworkState, schedule_values, weighted_sum
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


def splu(jac, permc_spec=None, panel_size=None):
    """The SuperLU factorization of a square canonical CSC matrix: the
    gstrf call that scipy.sparse.linalg.splu(jac, permc_spec,
    panel_size=panel_size) makes under the COLAMD and MMD orderings
    (under NATURAL scipy also sets SymmetricMode)."""
    return _superlu.gstrf(jac.shape[0], len(jac.data), jac.data,
                          jac.indices, jac.indptr,
                          csc_construct_func=_csc_array, ilu=False,
                          options=dict(DiagPivotThresh=None,
                                       ColPerm=permc_spec,
                                       PanelSize=panel_size, Relax=None))


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


_SCHEMES = {"implicit-midpoint": "midpoint", "midpoint": "midpoint",
            "backward-euler": "backward-euler", "be": "backward-euler"}


def _scheme(scheme):
    """The time scheme a name or alias stands for, case and surrounding
    blanks ignored; a ValueError for any other name."""
    key = str(scheme).strip().lower()
    if key not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _SCHEMES[key]


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
        self.scheme = _scheme(self.scheme)


@dataclass
class EnergyReport:
    tau: float
    energy: float
    dissipation: float
    boundary_flux: float
    balance_residual: float


class AdmissibilityLost(namedtuple("AdmissibilityLost", "step tau kinds")):
    """A snapshot outside its run's bounds: index, time, check_state's kinds."""

    def __str__(self):
        return (f"step {self.step} (tau={self.tau:.6g}): admissibility lost "
                f"({', '.join(self.kinds)})")


@dataclass
class Trajectory:
    """Snapshots with their reports and the work of the steps between
    them, recorded by run (_Recorder) or kept as (K, n) stacks
    (from_stacks).  ``rho_array()`` and ``w_array()`` are those stacks,
    built once."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stage_dissipation: list = field(default_factory=list)
    stage_flux: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    junction_h: list = field(default_factory=list)
    warnings: list = field(default_factory=list)  # of AdmissibilityLost
    stacks: tuple = field(default=None, repr=False, compare=False)

    @classmethod
    def from_stacks(cls, times, rho, w, **fields):
        """A trajectory over (K, n) stacks rho and w, kept as its
        stacks; its states are views of their rows."""
        return cls(times=times,
                   states=[NetworkState(*s) for s in zip(times, rho, w)],
                   stacks=(rho, w), **fields)

    def _stacked(self):
        if self.stacks is None:
            self.stacks = (np.array([s.rho for s in self.states]),
                           np.array([s.w for s in self.states]))
        return self.stacks

    def rho_array(self):
        return self._stacked()[0]

    def w_array(self):
        return self._stacked()[1]


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
    line-search cut limit (``max_cuts``), the column order SuperLU
    factors its Jacobian in (``ordering``) and SuperLU's panel width
    (``panel_size``, None for SuperLU's default).  At eps = 0 the c_w
    term and the kinetic coupling d(G h)/dw vanish, and with them the
    template's ``ww`` block; at theta = 1 the stage state is the end
    state.  These cases are branches rather than products with zero or
    one, which keeps the other cases' floating-point results unchanged.

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

        # momentum rows: kinetic coupling d(Gh)/dw, one block through each
        # face's right cell (sign +1), then one through its left cell
        # (-1), each entry with that cell's left and right face
        if self.kinetic:
            self._ww_fp = []
            for has, cells in ((self._rw_right, frc), (self._rw_left, flc)):
                c = cells[has]
                fp = np.stack((sys.cell_left_face[c], sys.cell_right_face[c]),
                              axis=1).ravel()
                self._ww_fp.append(fp)
                block(n_c + faces[has].repeat(2), n_c + fp)

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
        from the entries, sorted by column, then row, and each entry's
        position in its data (_csc_positions).  bincount over those
        positions adds the values of one position in entry order, as the
        conversion does, but from +0.0: where all of them are -0.0 the
        sum is +0.0, not -0.0."""
        rows, cols = self._entries()
        n = self.system.n_z
        self._shape = (n, n)
        pattern, self._csc_positions = np.unique(cols * n + rows,
                                                 return_inverse=True)
        self._csc_indices = (pattern % n).astype(np.intc)
        self._csc_indptr = np.searchsorted(pattern // n,
                                           np.arange(n + 1)).astype(np.intc)
        if self.members is not None:
            # the member pattern tiled along the diagonal: member i's
            # unknowns and CSC values follow those of members 0..i-1
            m, nnz = len(self.members), pattern.size
            i = np.arange(m)[:, None]
            self._csc_positions = (self._csc_positions + i * nnz).ravel()
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
        load_rho, load_w = loads
        dt_loads = (None if load_rho is None else dt * load_rho, dt * load_w)
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

        out = self._residual(dt, state, dt_loads, x)
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
            out_new = self._residual(dt, state, dt_loads, x_new)
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
                    self._lu = splu(jac, permc_spec=self.ordering,
                                    panel_size=self.panel_size)
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
            values = schedule_values(boundary, sys.boundary_vertices, tau)
            return values, sys.boundary_load(values)
        values = [schedule_values(b, sys.boundary_vertices, tau)
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

    def _residual(self, dt, state, dt_loads, x):
        """The stacked residual (f_rho, f_w, f_j) at the unknowns x =
        (rho, w, h_v), and the values the Jacobian and the stage power
        need; None if the gas law does not admit a stage density.

        dt_loads are the stage loads (l_rho or None, l_w) times dt, which
        step scales once for all its residuals.  The junction rows are
        S^T m of the end-of-step state: at theta = 1 that is the stage
        flux m_s; otherwise junction_flux gathers K rho and w at the
        junction terminal faces alone, equal bit for bit to the sum over
        every face's flux."""
        sys = self.system
        rho, w, hv = self._unstack(x)
        th = self.theta
        dt_load_rho, dt_load_w = dt_loads
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
        if dt_load_rho is not None:
            f_rho = f_rho - dt_load_rho
        f_w = dt * (sys.apply_gs(h_s, hv) + fr_s)
        if self.kinetic:
            f_w = self._c_w * d_w + f_w
        f_w = f_w - dt_load_w
        if th == 1.0:
            f_j = sys.apply_st(m_s)
        else:
            f_j = sys.junction_flux(rho, w)
        cache = (rho_s, w_s, arho_s, m_s, h_s, rho, w)
        return np.concatenate((f_rho, f_w, f_j), axis=-1), cache

    def _jacobian(self, dt, cache):
        """The Jacobian at a residual's cache, in canonical CSC form."""
        values = self._jacobian_data(dt, cache)
        data = np.bincount(self._csc_positions, values.ravel(),
                           minlength=self._csc_indices.size)
        return CSC(data, self._csc_indices, self._csc_indptr, self._shape)

    def _jacobian_data(self, dt, cache):
        """The Jacobian's values in template entry order, each block
        written into its slice of one buffer."""
        sys = self.system
        dth = dt * self.theta
        rho_s, w_s, arho_s, _, _, rho_end, w_end = cache
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
            k = dth * 0.5 * self.eps**2
            for signed, fp in zip((k, -k), self._ww_fp):
                mul(signed, gather(w_s, fp), out=v[next(at)])
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
        # K rho at a terminal face is its one cell's kappa * rho
        mul(signs, self._j_kappa * gather(rho_end, sys.junction_term_cells),
            out=v[next(at)])
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
    # y_transient's Jacobians at 256 and 1024 cells per edge factor 12-16 %
    # faster at width 4 than at SuperLU's default, with equal fill
    panel_size = 4

    def __init__(self, system, scheme=SolverConfig.scheme,
                 newton_tol=SolverConfig.newton_tol,
                 max_iter=SolverConfig.max_iter, forcing=None):
        theta = 0.5 if _scheme(scheme) == "midpoint" else 1.0
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
    # SuperLU's default: width 4 moved the y_limit epsilon study's errors
    # by up to 8e-12 relative
    panel_size = None

    def __init__(self, system, newton_tol=SolverConfig.newton_tol,
                 max_iter=SolverConfig.max_iter):
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
    n_steps = int(round(config.t_final / config.dt))
    if abs(n_steps * config.dt - config.t_final) > 1e-9 * config.t_final:
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
        values = schedule_values(boundary, system.boundary_vertices,
                                 state0.tau)
        w0, _ = limit_flow(system, state0.rho, values)
        state0 = NetworkState(state0.tau, state0.rho.copy(), w0)
    return state0


def run(system, state0, config, boundary, bounds=None, forcing=None,
        batch=None):
    """Advance from state0 to t_final, recording every step.

    Returns a Trajectory, whose warnings are the snapshots outside
    ``bounds`` if given.  On a step failure the exception carries the
    partial trajectory, reported up to its last accepted state, in its
    ``partial`` attribute.  With ``batch``, returns the trajectory of the
    Batch's member with these arguments.
    """
    if batch is not None:
        return batch.take(system, state0, config, boundary, bounds)
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
    state0, config, boundary, bounds) of its run, and ``run(*member,
    batch=batch)`` returns its trajectory, handed out in member order:
    asking for any member but the next is a ValueError naming the one
    expected.  Members iterate to a joint residual norm, so they differ
    from their own runs at tolerance level.

    The members step, and are checked against their bounds, in a child
    process (_Child) started when the batch is made, so the caller can
    do other work meanwhile; the first ``take`` waits for them.  The
    child inherits the members' systems and boundary schedules, which
    need not pickle, and sends back each trajectory as a few arrays,
    received as it is taken.  After a failed joint step the child sends
    each member's own run, up to the first StepFailure, which the take
    that reaches it raises with the failing member's step and partial
    trajectory; any other error of the joint run is raised by the first
    take.  Without ``os.fork`` all of this runs in process at the first
    take.  Leaving a ``with`` block, or ``close()``, kills and reaps a
    child still running.
    """

    def __init__(self, members):
        self.members = [tuple(m) for m in members]
        self._taken = 0  # members handed out, or whose take raised
        self._child = _Child.start(self._send)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Kill and reap the child if it still runs."""
        self._child.reap()

    def take(self, *member):
        i, n = self._taken, len(self.members)
        if i == n:
            raise ValueError(f"all {n} members of this batch were taken")
        if not all(a is b for a, b in zip(self.members[i], member)):
            raise ValueError(f"batch members are taken in order: expected "
                             f"member {i} of {n}")
        self._taken += 1
        try:
            packed = self._child.load()
        except ChildProcessError as exc:
            raise RuntimeError(f"the batch's {exc} before sending its "
                               "runs") from exc
        if self._taken == n:
            self._child.reap(kill=False)
        return _unpack(*packed)

    def _send(self, pipe):
        """Step the members and send each trajectory; after a failed
        joint step, each member's own run."""
        try:
            trajectories = self._run()
        except StepFailure:
            trajectories = (run(*m) for m in self.members)
        for traj in trajectories:
            pickle.dump(_pack(traj), pipe, pickle.HIGHEST_PROTOCOL)

    def _run(self):
        systems, _, configs, boundaries, bounds = zip(*self.members)
        config = configs[0]
        if any(c != config for c in configs):
            raise ValueError("batched runs must share one SolverConfig")
        n_steps = _steps(config)
        stepper = _stepper(systems, config)
        states = [_start(*m[:4]) for m in self.members]
        recorders = [_Recorder(system, config, boundary, b, n_steps + 1)
                     for system, boundary, b in zip(systems, boundaries,
                                                    bounds)]
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


class _Child:
    """A child process forked to run work(pipe), with pipe the write end
    of a pipe, and the read end of that pipe.  This is the one place
    where pipeflow starts a second process.

    The child's whole body ends in os._exit, so nothing of it returns
    into the caller's stack or flushes the caller's buffers; it exits 0
    once work has returned or its exception has gone into the pipe, for
    load to raise.  reap(), or the finalizer of a child dropped unreaped
    or left at exit, kills and reaps a child still running.  Without
    os.fork, or when it fails, start returns a stand-in: its first load
    runs work here into a temporary file, read as the pipe is (a file
    rather than memory, which would hold the runs twice while they are
    loaded); its reap gives 0.
    """

    def __init__(self, pid, pipe, work=None):
        self._pipe, self._work = pipe, work  # a stand-in runs work at load
        self._finalizer = weakref.finalize(self, _Child._stop, pid, pipe)

    @staticmethod
    def start(work):
        """The child running work, or a stand-in that will run it."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except (AttributeError, OSError):  # no fork here, or out of processes
            os.close(read)
            os.close(write)
            return _Child(None, tempfile.TemporaryFile(), work)
        if pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    _Child._do(work, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        return _Child(pid, open(read, "rb"))

    @staticmethod
    def _do(work, pipe):
        """work(pipe), with an exception of work pickled into the pipe."""
        try:
            work(pipe)
        except Exception as exc:
            try:
                message = pickle.dumps(exc)
            except Exception:  # then say what it was
                message = pickle.dumps(RuntimeError(
                    f"{type(exc).__name__}: {exc}"))
            pipe.write(message)

    def load(self):
        """The next object the child sent, or None once it has ended
        after sending all; an exception it sent is raised.  The child is
        reaped when it has nothing more to send, and a ChildProcessError
        says how it ended if it died first.  A load after reap is a
        ValueError."""
        if not self._finalizer.alive:
            raise ValueError("nothing more to load: the child is reaped")
        if self._work is not None:
            work, self._work = self._work, None
            _Child._do(work, self._pipe)
            self._pipe.seek(0)
        try:
            item = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError) as exc:
            status = self.reap(kill=False)
            if status == 0:
                return None
            raise ChildProcessError(
                "child process " + (f"was killed by signal {-status}"
                                    if status < 0 else
                                    f"exited with status {status}")) from exc
        if isinstance(item, Exception):
            self.reap(kill=False)
            raise item
        return item

    def reap(self, kill=True):
        """Reap the child, killed first if kill; returns its exit code,
        or None if it was reaped before."""
        stop = self._finalizer.detach()
        return stop and stop[1](*stop[2], kill=kill)

    @staticmethod
    def _stop(pid, pipe, kill=True):
        pipe.close()
        if pid is None:  # a stand-in
            return 0
        if kill:
            import signal  # 1 ms that a run without a child need not pay

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
    """The trajectory _pack took apart."""
    return Trajectory.from_stacks(
        times, rho, w, reports=[EnergyReport(tau, *r)
                                for tau, r in zip(times, reports.tolist())],
        stage_dissipation=stage_dissipation, stage_flux=stage_flux,
        iterations=iterations, factorizations=factorizations,
        junction_h=list(junction_h), warnings=warnings)


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
    tolerance.  With bounds, the same stack is checked against them, and
    only a block outside them is checked snapshot by snapshot for the
    warnings.  This is the one admissibility check of a run's snapshots.

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
        energy = energy_mod.hamiltonian(sys, block)
        dissipation = energy_mod.dissipation(sys, block)
        flux = energy_mod.boundary_flux(sys, block, schedule_values(
            self.boundary, sys.boundary_vertices, taus))
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
        if self.bounds is not None and sys.check_state(block, self.bounds):
            traj.warnings += [AdmissibilityLost(k, s.tau, tuple(kinds))
                              for k, s in enumerate(states, start)
                              if (kinds := sys.check_state(s, self.bounds))]
        return traj
