"""Staggered-grid discretization of the rescaled flow equations on networks.

Densities live at cell centers, velocities at faces.  The semi-discrete
system has the form

    C du/dtau + (J + R(u)) z(u) = B,

where z(u) stacks cell enthalpies, face mass flow rates and one shared
enthalpy unknown per interior junction.  J is applied in gather form
and is exactly antisymmetric, C is a positive diagonal over the state
unknowns, and R(u) is a nonnegative diagonal, so the energy balance of
the continuous model carries over to the discrete level identically.

The junction blocks couple each incident pipe's terminal momentum row to
the shared junction enthalpy, and one constraint row per junction
enforces the signed mass-flow balance; together they make the discrete
energy flux across junctions vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as net
from .gas import bisect


def weighted_sum(weight, values):
    """sum(weight * values) over the last axis: a float for one state, a
    (K,) array for a (K, n) stack, each row summed as np.dot sums it."""
    out = np.vecdot(weight, values)
    return float(out) if out.ndim == 0 else out


def schedule_values(schedule, vertices, tau):
    """The vertices' values at tau of a boundary schedule, which maps each
    vertex to a number or to a callable of one time: floats at one tau,
    (K,) arrays at a list or array of K times, whose k-th value is the
    float at times[k] bit for bit.  A vertex without an entry is an
    error."""
    many, values = isinstance(tau, (list, tuple, np.ndarray)), {}
    for v in vertices:
        if v not in schedule:
            raise ValueError(f"missing boundary schedule for vertex {v!r}")
        entry = schedule[v]
        if not callable(entry):
            entry = (lambda t, x=float(entry): x)
        values[v] = (np.array([float(entry(t)) for t in tau]) if many
                     else float(entry(tau)))
    return values


class EdgeGrid:
    """Uniform staggered grid on a single pipe.

    n_cells cells of width dx = length / n_cells; n_cells + 1 faces.  The
    dual volume of a face is dx in the interior and dx/2 at the ends.
    """

    def __init__(self, length, n_cells):
        n_cells = int(n_cells)
        if n_cells < 2:
            raise ValueError("need at least two cells per pipe")
        if length <= 0:
            raise ValueError("pipe length must be positive")
        self.length = float(length)
        self.n_cells = n_cells
        self.dx = self.length / n_cells
        self.cell_centers = (np.arange(n_cells) + 0.5) * self.dx
        self.faces = np.arange(n_cells + 1) * self.dx
        self.face_volumes = np.full(n_cells + 1, self.dx)
        self.face_volumes[0] = self.face_volumes[-1] = 0.5 * self.dx


def build_grids(topology, cells_per_edge):
    """One EdgeGrid per edge, each with cells_per_edge cells."""
    return {e.name: EdgeGrid(e.params.length, cells_per_edge)
            for e in topology.edges}


@dataclass
class NetworkState:
    """Discrete state: densities per cell, velocities per face, time stamp."""

    tau: float
    rho: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.w = np.asarray(self.w, dtype=float)

    def copy(self):
        return NetworkState(self.tau, self.rho.copy(), self.w.copy())

    def validate(self):
        if np.any(self.rho <= 0.0) or not np.all(np.isfinite(self.rho)):
            raise ValueError("state density must be positive and finite")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("state velocity must be finite")


class NetworkSystem:
    """Topology + grids + gas law + epsilon, with all index maps precomputed.

    The flat layout concatenates edge cells and edge faces in the order
    of ``topology.edges``; interior junction enthalpies are appended
    after the face block in the extended co-state vector.
    """

    def __init__(self, topology, grids, law, epsilon=1.0):
        if not 0.0 <= epsilon < np.inf:  # false on nan
            raise ValueError(f"epsilon must be nonnegative and finite: {epsilon}")
        self.topology = topology
        self.law = law
        self.grids = {e.name: grids[e.name] for e in topology.edges}
        self.epsilon = float(epsilon)

        classes = net.classify(topology)
        self.junction_vertices = tuple(sorted(classes.interior))
        self.boundary_vertices = tuple(sorted(classes.boundary))
        jslot = {v: i for i, v in enumerate(self.junction_vertices)}

        n_c = 0
        n_f = 0
        self.cell_offset = {}
        self.face_offset = {}
        for e in topology.edges:
            g = self.grids[e.name]
            self.cell_offset[e.name] = n_c
            self.face_offset[e.name] = n_f
            n_c += g.n_cells
            n_f += g.n_cells + 1
        self.n_cells = n_c
        self.n_faces = n_f
        self.n_junctions = len(self.junction_vertices)
        self.n_state = n_c + n_f
        self.n_z = n_c + n_f + self.n_junctions

        # per-node geometry and coefficients
        self.x_cells = np.empty(n_c)
        self.x_faces = np.empty(n_f)
        self.dx_cells = np.empty(n_c)
        self.omega_faces = np.empty(n_f)
        self.a_cells = np.empty(n_c)
        self.gz_cells = np.empty(n_c)
        self.gamma_faces = np.empty(n_f)
        cell_left_face = np.empty(n_c, dtype=int)
        cell_right_face = np.empty(n_c, dtype=int)
        face_left_cell = np.full(n_f, -1, dtype=int)
        face_right_cell = np.full(n_f, -1, dtype=int)

        term_faces = []
        term_signs = []
        term_vertices = []
        for e in topology.edges:
            g = self.grids[e.name]
            c0 = self.cell_offset[e.name]
            f0 = self.face_offset[e.name]
            n = g.n_cells
            cells = slice(c0, c0 + n)
            faces = slice(f0, f0 + n + 1)
            self.x_cells[cells] = g.cell_centers
            self.x_faces[faces] = g.faces
            self.dx_cells[cells] = g.dx
            self.omega_faces[faces] = g.face_volumes
            self.a_cells[cells] = e.params.area_at(g.cell_centers)
            self.gz_cells[cells] = e.params.gravity * e.params.elevation_at(g.cell_centers)
            self.gamma_faces[faces] = e.params.friction_at(g.faces)
            cell_left_face[cells] = f0 + np.arange(n)
            cell_right_face[cells] = f0 + np.arange(1, n + 1)
            face_left_cell[f0 + 1:f0 + n + 1] = c0 + np.arange(n)
            face_right_cell[f0:f0 + n] = c0 + np.arange(n)
            term_faces += [f0, f0 + n]
            term_signs += [-1.0, 1.0]
            term_vertices += [e.start, e.end]

        self.cell_left_face = cell_left_face
        self.cell_right_face = cell_right_face
        self.face_left_cell = face_left_cell
        self.face_right_cell = face_right_cell

        # terminal faces: at a junction each carries the junction's slot
        # and the one cell it adjoins; a boundary vertex has degree one,
        # and its single face is listed in the order of boundary_vertices
        term_faces = np.asarray(term_faces, dtype=int)
        term_signs = np.asarray(term_signs)
        mask_j = np.array([v in jslot for v in term_vertices])
        self.junction_term_faces = jf = term_faces[mask_j]
        self.junction_term_signs = term_signs[mask_j]
        self.junction_term_slots = np.array(
            [jslot[v] for v, m in zip(term_vertices, mask_j) if m], dtype=int)
        self.junction_term_cells = np.where(face_left_cell[jf] >= 0,
                                            face_left_cell[jf], face_right_cell[jf])
        order = [term_vertices.index(v) for v in self.boundary_vertices]
        self.boundary_term_faces = term_faces[order]
        self.boundary_term_signs = term_signs[order]

        # face reconstruction weights: m_f = (sum_c kappa_{f,c} rho_c) * w_f,
        # one pair per face and adjacent cell, left first
        pairs = np.stack((face_left_cell, face_right_cell), axis=1).ravel()
        has_cell = pairs >= 0
        self.pair_face = np.repeat(np.arange(n_f), 2)[has_cell]
        self.pair_cell = pairs[has_cell]
        self.pair_kappa = (self.a_cells[self.pair_cell] * self.dx_cells[self.pair_cell]
                           / (2.0 * self.omega_faces[self.pair_face]))

        # Gather forms of K, D, [G S] and S^T, the one representation of
        # these operators.  A row adds its terms in column order and every
        # coefficient is +-1 or one kappa per side, so each product equals
        # that of the CSR matrix assembled from the index arrays above bit
        # for bit on finite input (an exact zero may differ in sign).  K: a
        # missing side gets weight 0 on the other cell.
        has_left, has_right = face_left_cell >= 0, face_right_cell >= 0
        self._k_left = np.where(has_left, face_left_cell, face_right_cell)
        self._k_right = np.where(has_right, face_right_cell, face_left_cell)
        left_pair = self.pair_cell == face_left_cell[self.pair_face]
        self._kappa_left = np.zeros(n_f)
        self._kappa_right = np.zeros(n_f)
        self._kappa_left[self.pair_face[left_pair]] = self.pair_kappa[left_pair]
        self._kappa_right[self.pair_face[~left_pair]] = self.pair_kappa[~left_pair]
        # G h + S h_v reads (h, h_v, 0): a terminal face's missing cell is
        # its junction's slot, or the trailing zero at a boundary vertex
        outside = np.full(n_f, n_c + self.n_junctions)
        outside[self.junction_term_faces] = n_c + self.junction_term_slots
        self._gs_left = np.where(has_left, face_left_cell, outside)
        self._gs_right = np.where(has_right, face_right_cell, outside)
        # S^T: row p holds every junction's p-th term in face order; a
        # junction with fewer terms is padded with sign 0 at the end.  A
        # trailing column of zeros keeps the rows two wide at least, so a
        # reduction over them adds row by row (numpy sums a single column
        # pairwise from eight terms on)
        order = np.lexsort((self.junction_term_faces, self.junction_term_slots))
        slots = self.junction_term_slots[order]
        degree = np.bincount(slots, minlength=self.n_junctions)
        rank = np.arange(slots.size) - np.repeat(np.cumsum(degree) - degree, degree)
        shape = (max(degree.max(initial=0), 1), self.n_junctions + 1)
        self._st_faces = np.zeros(shape, dtype=int)
        self._st_signs = np.zeros(shape)
        self._st_faces[rank, slots] = self.junction_term_faces[order]
        self._st_signs[rank, slots] = self.junction_term_signs[order]
        # K's gather at S^T's faces, for the junction flux alone
        st = self._st_faces
        self._st_k = (self._k_left[st], self._k_right[st],
                      self._kappa_left[st], self._kappa_right[st])

        self.omega_gamma = self.omega_faces * self.gamma_faces
        self.c_rho = self.a_cells * self.dx_cells
        self.c_w = self.epsilon**2 * self.omega_faces
        self.c_state = np.concatenate([self.c_rho, self.c_w])
        self._margins = {}

    # -- per-edge views ---------------------------------------------------

    def edge_cells(self, name):
        g = self.grids[name]
        o = self.cell_offset[name]
        return slice(o, o + g.n_cells)

    def edge_faces(self, name):
        g = self.grids[name]
        o = self.face_offset[name]
        return slice(o, o + g.n_cells + 1)

    # -- state-dependent maps ----------------------------------------------

    # the gather forms and norms take one state or a (K, n) stack of them

    def kinetic_cells(self, w):
        """Cell average of w^2 from the two adjacent faces."""
        # a cell's right face is the face after its left face
        sq = w ** 2
        return 0.5 * (sq[..., :-1] + sq[..., 1:]).take(self.cell_left_face,
                                                        axis=-1)

    def costate(self, state):
        """Cell enthalpies and face mass flow rates (h, m)."""
        h = (0.5 * self.epsilon**2 * self.kinetic_cells(state.w)
             + self.law.dpotential(state.rho) + self.gz_cells)
        m = self.arho_faces(state.rho) * state.w
        return h, m

    def arho_faces(self, rho):
        """K rho: the face reconstruction of a*rho."""
        return (self._kappa_left * rho.take(self._k_left, axis=-1)
                + self._kappa_right * rho.take(self._k_right, axis=-1))

    def apply_d(self, m):
        """D m: (D m)_c = m_right(c) - m_left(c)."""
        return (m[..., 1:] - m[..., :-1]).take(self.cell_left_face, axis=-1)

    def apply_gs(self, h, hv):
        """G h + S h_v: the enthalpy differences across every face, with
        the junction enthalpies h_v at junction terminal faces."""
        ext = np.concatenate((h, hv, np.zeros(h.shape[:-1] + (1,))), axis=-1)
        return (ext.take(self._gs_right, axis=-1)
                - ext.take(self._gs_left, axis=-1))

    def apply_st(self, m):
        """S^T m: the signed mass-flow sum at every junction."""
        terms = self._st_signs * m.take(self._st_faces, axis=-1)
        return np.add.reduce(terms, axis=-2)[..., :self.n_junctions]

    def junction_flux(self, rho, w):
        """S^T (K rho * w), with K rho and w gathered at the junction
        terminal faces alone: apply_st(arho_faces(rho) * w) bit for bit."""
        k_left, k_right, kappa_left, kappa_right = self._st_k
        m = ((kappa_left * rho.take(k_left, axis=-1)
              + kappa_right * rho.take(k_right, axis=-1))
             * w.take(self._st_faces, axis=-1))
        return np.add.reduce(self._st_signs * m,
                             axis=-2)[..., :self.n_junctions]

    def apply_j(self, z):
        """J z for an extended co-state z = (h, m, h_v): the blocks
        (D m, G h + S h_v, -S^T m), laid out as z is."""
        n_c, n_f = self.n_cells, self.n_faces
        h, m, hv = z[:n_c], z[n_c:n_c + n_f], z[n_c + n_f:]
        return np.concatenate((self.apply_d(m), self.apply_gs(h, hv),
                               -self.apply_st(m)))

    def r_diag(self, state):
        """Diagonal of R(u) on the extended vector; friction on face slots."""
        diag = np.zeros(self.n_z)
        arho = self.arho_faces(state.rho)
        diag[self.n_cells:self.n_cells + self.n_faces] = (
            self.omega_gamma * np.abs(state.w) / arho)
        return diag

    def boundary_load(self, values):
        """The load B of boundary enthalpies on the momentum rows: an
        n_faces vector holding -n h at the terminal face of each boundary
        vertex (n = +1 where the pipe ends there, -1 where it starts).

        With apply_gs this is the whole terminal-face rule: G h + S h_v - B
        is the enthalpy difference across every face.  values maps
        boundary vertex names to numbers, or to (K,) arrays of K snapshots'
        values for a (K, n_faces) stack of loads; a missing one is an
        error.
        """
        try:
            h = np.array([values[v] for v in self.boundary_vertices], dtype=float)
        except KeyError as exc:
            raise ValueError(f"missing boundary enthalpy for vertex "
                             f"{exc.args[0]!r}") from None
        load = np.zeros(h.shape[1:] + (self.n_faces,))
        load.T[self.boundary_term_faces] = (-self.boundary_term_signs * h.T).T
        return load

    def junction_mass_defect(self, state):
        """Signed mass-flow sums at interior junctions; zero when coupled."""
        return self.junction_flux(state.rho, state.w)

    # -- norms and quadrature ----------------------------------------------

    def l2sq_cells(self, g):
        return weighted_sum(self.dx_cells, np.square(g))

    def l2sq_faces(self, g):
        return weighted_sum(self.omega_faces, np.square(g))

    def l3_faces(self, g):
        abs_g = np.abs(g)
        return weighted_sum(self.omega_faces, abs_g * abs_g * abs_g)

    def c_norm_sq(self, d_rho, d_w):
        """||(d_rho, d_w)||_C^2 = ||sqrt(a) d_rho||^2 + ||eps d_w||^2."""
        return (weighted_sum(self.c_rho, np.square(d_rho))
                + weighted_sum(self.c_w, np.square(d_w)))

    # -- states --------------------------------------------------------------

    def rest_state(self, boundary_enthalpy):
        """Well-balanced rest state: w = 0, P'(rho) + g z = const per cell.

        Every distinct target P'(rho) = const - g z is solved at once by
        bisect, bracketed by the law's density_range, so a flat network
        evaluates the law on one-element arrays only.  Each root is the
        one of the two adjacent floats around the target's crossing with
        the smaller |P'(rho) - target|.  A target that the range does not
        reach is a ValueError.
        """
        targets, cell_target = np.unique(boundary_enthalpy - self.gz_cells,
                                         return_inverse=True)
        r_lo, r_hi = self.law.density_range
        # P' is increasing, so the ends of the range bound its values
        p_lo = self.law.dpotential(np.full(1, r_lo))[0]
        p_hi = self.law.dpotential(np.full(1, r_hi))[0]
        outside = ~((targets >= p_lo) & (targets <= p_hi))  # NaN too
        if outside.any():
            raise ValueError(
                f"rest state: P'(rho) = {targets[outside][0]:.17g} (the rest "
                f"enthalpy minus g z) is outside [{p_lo:.17g}, "
                f"{p_hi:.17g}], the values of P' on the gas law's densities "
                f"[{r_lo:.6g}, {r_hi:.6g}]")
        roots = bisect(lambda r: self.law.dpotential(r) - targets,
                       np.full(targets.shape, r_lo), np.full(targets.shape, r_hi))
        return NetworkState(0.0, roots[cell_target], np.zeros(self.n_faces))

    def check_state(self, state, bounds):
        """The sorted kinds of admissibility the state violates, [] if none:
        density_high, density_low, subsonic_margin, velocity."""
        # the margin depends on the bounds and the law only
        margin = self._margins.get(bounds)
        if margin is None:
            margin = self._margins[bounds] = bounds.subsonic_margin(self.law)
        violated = {"density_high": (state.rho > bounds.rho_max).any(),
                    "density_low": (state.rho < bounds.rho_min).any(),
                    "subsonic_margin": margin < 0.0,
                    "velocity": (np.abs(state.w) > bounds.w_max).any()}
        return [kind for kind, bad in violated.items() if bad]


def build_system(topology, cells_per_edge, law, epsilon=1.0):
    return NetworkSystem(topology, build_grids(topology, cells_per_edge), law,
                         epsilon)
