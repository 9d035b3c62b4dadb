"""Barotropic gas laws, energy densities and admissible bounds.

The momentum balance of the flow model is driven by the derivative of a
pressure potential rather than the pressure itself.  For a barotropic
pressure function p(rho) the potential is

    P(rho) = rho * integral_1^rho p(r)/r**2 dr,

so that P(1) = 0, P''(rho) = p'(rho)/rho, and (1/rho) d/dx p(rho) equals
d/dx P'(rho) for smooth density profiles.  Strict convexity of P on the
admissible density interval is required throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


def bisect(f, lo, hi):
    """Roots of a monotone vectorized f, one per bracket [lo[i], hi[i]].

    f maps an array of points to an array of values, element by element,
    and changes sign (or vanishes) between lo[i] and hi[i].  Every bracket
    that still has a float strictly inside it is halved, keeping the half
    that holds the sign change; when none is left, each element gets
    whichever of its two end floats has the smaller |f|.  A degenerate
    bracket lo[i] == hi[i] returns lo[i] without a halving.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo, f_hi = f(lo), f(hi)
    inside = np.nextafter(lo, hi) < hi
    while inside.any():
        # a settled bracket evaluates at lo again and keeps its ends
        mid = np.where(inside, 0.5 * (lo + hi), lo)
        f_mid = f(mid)
        left = np.sign(f_mid) != np.sign(f_lo)
        hi, f_hi = np.where(left, mid, hi), np.where(left, f_mid, f_hi)
        # an exact zero closes the bracket on mid
        right = ~left | (f_mid == 0.0)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
        inside = np.nextafter(lo, hi) < hi
    return np.where(np.abs(f_hi) < np.abs(f_lo), hi, lo)


def _as_positive(rho):
    rho = np.asarray(rho, dtype=float)
    # comparisons with NaN are false, so NaN fails the test too
    if rho.size and not (rho.min() > 0.0 and rho.max() < np.inf):
        raise ValueError("density must be positive and finite")
    return rho


class GasLaw:
    """Base class for barotropic pressure laws."""

    kind = "abstract"
    # the densities the law is defined on; rest states are sought here
    density_range = (1e-8, 1e8)

    def pressure(self, rho):
        raise NotImplementedError

    def dpressure(self, rho):
        raise NotImplementedError

    def potential(self, rho):
        raise NotImplementedError

    def dpotential(self, rho):
        return self._dpotential(_as_positive(rho))

    def d2potential(self, rho):
        """Second derivative of the potential, p'(rho)/rho."""
        return self._d2potential(_as_positive(rho))

    def admits(self, rho):
        """Whether the kernels take every density of rho: all positive."""
        return np.minimum.reduce(rho, axis=None) > 0.0  # false on NaN

    # The kernels below take a float array the caller has already checked
    # with admits (the Newton stepper tests each density it evaluates).

    def _dpotential(self, rho):
        raise NotImplementedError

    def _d2potential(self, rho):
        return self.dpressure(rho) / rho

    def d2potential_bounds(self, lo, hi):
        """Min and max of P'' over [lo, hi], sampled at 1024 points."""
        if not (0.0 < lo <= hi):
            raise ValueError("need 0 < lo <= hi")
        grid = np.linspace(lo, hi, 1024)
        vals = self.d2potential(grid)
        return float(np.min(vals)), float(np.max(vals))


class IsothermalLaw(GasLaw):
    """Isothermal law p = c^2 * rho with sound speed c."""

    kind = "isothermal"

    def __init__(self, sound_speed=1.0):
        if sound_speed <= 0.0:
            raise ValueError("sound speed must be positive")
        self.sound_speed = float(sound_speed)

    def pressure(self, rho):
        return self.sound_speed**2 * _as_positive(rho)

    def dpressure(self, rho):
        rho = _as_positive(rho)
        return np.full_like(rho, self.sound_speed**2)

    def potential(self, rho):
        rho = _as_positive(rho)
        return self.sound_speed**2 * rho * np.log(rho)

    def _dpotential(self, rho):
        return self.sound_speed**2 * (np.log(rho) + 1.0)

    def _d2potential(self, rho):
        return self.sound_speed**2 / rho

    def __repr__(self):
        return f"IsothermalLaw(sound_speed={self.sound_speed})"


class PowerLaw(GasLaw):
    """Polytropic law p = kappa * rho**exponent with exponent != 1."""

    kind = "power-law"

    def __init__(self, kappa=1.0, exponent=2.0):
        if kappa <= 0.0 or exponent <= 0.0:
            raise ValueError("kappa and exponent must be positive")
        if abs(exponent - 1.0) < 1e-12:
            raise ValueError("exponent 1 is the isothermal law; use IsothermalLaw")
        self.kappa = float(kappa)
        self.exponent = float(exponent)

    def pressure(self, rho):
        return self.kappa * _as_positive(rho) ** self.exponent

    def dpressure(self, rho):
        rho = _as_positive(rho)
        return self.kappa * self.exponent * rho ** (self.exponent - 1.0)

    def potential(self, rho):
        rho = _as_positive(rho)
        s = self.exponent
        return self.kappa * (rho**s - rho) / (s - 1.0)

    def _dpotential(self, rho):
        s = self.exponent
        return self.kappa * (s * rho ** (s - 1.0) - 1.0) / (s - 1.0)

    def _d2potential(self, rho):
        s = self.exponent
        return self.kappa * s * rho ** (s - 2.0)

    def __repr__(self):
        return f"PowerLaw(kappa={self.kappa}, exponent={self.exponent})"


class TabulatedLaw(GasLaw):
    """Pressure law interpolated from a (rho, p) table.

    The pressure is the monotone piecewise cubic of Fritsch and Carlson
    (SIAM J. Numer. Anal. 17, 1980), with the knot slopes of PCHIP.
    Each piece is a cubic in rho, so Q(rho) = integral_1^rho p(r)/r^2 dr
    has a closed form, and P = rho Q satisfies P'' = p'/rho exactly.
    """

    kind = "tabulated"

    def __init__(self, rho_table, p_table):
        rho_table = np.asarray(rho_table, dtype=float)
        p_table = np.asarray(p_table, dtype=float)
        if rho_table.ndim != 1 or rho_table.shape != p_table.shape:
            raise ValueError("tables must be one-dimensional and equally long")
        if not (np.isfinite(rho_table).all() and np.isfinite(p_table).all()):
            raise ValueError("table must contain only finite values")
        if rho_table.size < 4:
            raise ValueError("need at least four table points")
        if np.any(np.diff(rho_table) <= 0) or np.any(np.diff(p_table) <= 0):
            raise ValueError("table must be strictly increasing in both columns")
        if rho_table[0] <= 0.0:
            raise ValueError("table densities must be positive")
        if not (rho_table[0] <= 1.0 <= rho_table[-1]):
            raise ValueError("table must bracket the reference density 1")
        self.rho_table = rho_table
        self.p_table = p_table
        self.density_range = (float(rho_table[0]), float(rho_table[-1]))

        x, h = rho_table[:-1], np.diff(rho_table)
        m = np.diff(p_table) / h
        # knot slopes: the Fritsch-Butland weighted harmonic mean of the
        # secants inside; at the ends a three-point one-sided estimate, zero
        # where it turns negative (with positive secants, its limit of 3 m
        # at a sign change never applies)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        ends = [max(((2 * h[a] + h[b]) * m[a] - h[a] * m[b]) / (h[a] + h[b]),
                    0.0) for a, b in ((0, 1), (-1, -2))]
        d = np.concatenate([ends[:1], (w1 + w2) / (w1 / m[:-1] + w2 / m[1:]),
                            ends[1:]])
        # p = c0 + c1 s + c2 s^2 + c3 s^3 on piece i, with s = rho - x_i
        t = (d[:-1] + d[1:] - 2 * m) / h
        c0, c1, c2, c3 = p_table[:-1], d[:-1], (m - d[:-1]) / h - t, t / h
        self._c = np.array([c0, c1, c2, c3])
        # the same cubic in powers of rho: A0 + A1 rho + A2 rho^2 + A3 rho^3
        self._a = np.array([c0 - x * (c1 - x * (c2 - x * c3)),
                            c1 - x * (2 * c2 - 3 * x * c3),
                            c2 - 3 * x * c3, c3])
        # with zero knot values, _pq at x_(i+1) gives the integral over
        # piece i, so the knot values are the running sums; then Q(1) = 0
        self._q_knots = np.zeros(rho_table.size)
        self._q_knots = np.cumsum(self._pq(rho_table)[2])
        self._q_knots -= self._pq(1.0)[2]

    @classmethod
    def from_file(cls, path):
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (rho, p)")
        return cls(data[:, 0], data[:, 1])

    def admits(self, rho):
        """Whether every density of rho lies in the table (not on NaN)."""
        return (np.minimum.reduce(rho, axis=None) >= self.density_range[0]
                and np.maximum.reduce(rho, axis=None) <= self.density_range[1])

    def _pieces(self, rho):
        """Checked densities, pieces i (x_(i+1) closes i), s = rho - x_i."""
        rho = _as_positive(rho)
        if np.any(rho < self.rho_table[0]) or np.any(rho > self.rho_table[-1]):
            raise ValueError("density outside the tabulated range")
        i = np.maximum(np.searchsorted(self.rho_table, rho) - 1, 0)
        return rho, i, rho - self.rho_table[i]

    def _pq(self, rho):
        """The checked densities, p and Q = integral_1^rho p(r)/r^2 dr."""
        rho, i, s = self._pieces(rho)
        x = self.rho_table[i]
        c0, c1, c2, c3 = self._c[:, i]
        a0, a1, a2, a3 = self._a[:, i]
        q = (self._q_knots[i] + a0 * s / (x * rho) + a1 * np.log1p(s / x)
             + a2 * s + a3 * s * (x + rho) / 2)
        return rho, c0 + s * (c1 + s * (c2 + s * c3)), q

    def pressure(self, rho):
        return self._pq(rho)[1]

    def dpressure(self, rho):
        _, i, s = self._pieces(rho)
        _, c1, c2, c3 = self._c[:, i]
        return c1 + s * (2 * c2 + 3 * s * c3)

    def potential(self, rho):
        rho, _, q = self._pq(rho)
        return rho * q

    def _dpotential(self, rho):
        # positivity does not imply the table range, so the kernel checks it
        rho, p, q = self._pq(rho)
        return q + p / rho


# the scenario keys each law kind takes
LAW_KEYS = {"isothermal": ("sound_speed",), "power-law": ("kappa", "exponent"),
            "tabulated": ("table",)}


def law_kind(kind):
    """The LAW_KEYS name of a gas law kind ('power_law' -> 'power-law')."""
    kind = kind.strip().lower()
    kind = {"power_law": "power-law", "powerlaw": "power-law"}.get(kind, kind)
    if kind not in LAW_KEYS:
        raise ValueError(f"unknown gas law kind {kind!r}")
    return kind


def make_law(kind, **kwargs):
    """Gas-law factory used by scenario files; each kind takes only its
    own keys, and the tabulated law needs its table file."""
    kind = law_kind(kind)
    for key in kwargs:
        if key not in LAW_KEYS[kind]:
            raise ValueError(f"{key!r} is not a parameter of the {kind} law")
    if kind == "isothermal":
        return IsothermalLaw(sound_speed=float(kwargs.get("sound_speed", 1.0)))
    if kind == "power-law":
        return PowerLaw(kappa=float(kwargs.get("kappa", 1.0)),
                        exponent=float(kwargs.get("exponent", 2.0)))
    if "table" not in kwargs:
        raise ValueError("the tabulated law needs 'table = <file>'")
    return TabulatedLaw.from_file(kwargs["table"])


# ---------------------------------------------------------------------------
# parameters and profiles

def profile_values(spec, x):
    """Sample a parameter profile at positions x along a pipe.

    A profile is either a number (constant) or a sequence of (x, value)
    breakpoints interpreted piecewise linearly, clamped at the ends.
    """
    x = np.asarray(x, dtype=float)
    if np.isscalar(spec) or isinstance(spec, (int, float)):
        return np.full_like(x, float(spec))
    pts = np.asarray(spec, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("breakpoint profile must be a list of (x, value) pairs")
    if np.any(np.diff(pts[:, 0]) <= 0):
        raise ValueError("profile breakpoints must be strictly increasing in x")
    return np.interp(x, pts[:, 0], pts[:, 1])


def _freeze_profile(spec):
    if np.isscalar(spec) or isinstance(spec, (int, float)):
        return float(spec)
    return tuple((float(a), float(b)) for a, b in spec)


@dataclass(frozen=True)
class PipeParameters:
    """Per-pipe coefficients of the rescaled flow model.

    area, friction and elevation are profiles over the local coordinate
    [0, length], and gravity scales the elevation.  The time and velocity
    rescaling of the model is one number of the whole system, not of a
    pipe (NetworkSystem.epsilon).
    """

    length: float
    area: object = 1.0
    friction: object = 1.0
    elevation: object = 0.0
    gravity: float = 1.0

    def __post_init__(self):
        if self.length <= 0.0 or not np.isfinite(self.length):
            raise ValueError("pipe length must be positive and finite")
        for key in ("area", "friction", "elevation", "gravity"):
            value = _freeze_profile(getattr(self, key))
            if not np.isfinite(value).all():  # nan passes the probes below
                raise ValueError(f"pipe {key} must be finite")
            object.__setattr__(self, key, value)
        probe = np.linspace(0, self.length, 65)
        if np.any(profile_values(self.area, probe) <= 0.0):
            raise ValueError("area profile must be positive")
        # friction 0 is allowed (lossless pipe); the stability estimates
        # additionally require a positive lower friction bound
        if np.any(profile_values(self.friction, probe) < 0.0):
            raise ValueError("friction profile must be nonnegative")


@dataclass(frozen=True)
class AdmissibleBounds:
    """Box bounds defining the admissible state set.

    The subsonic margin ties the density and velocity boxes together:
    rho * P''(rho) >= 4 * eps_max**2 * w_max**2 must hold on the whole
    density interval for the convexity-based norm equivalence to apply.
    """

    rho_min: float
    rho_max: float
    w_max: float
    eps_max: float
    area_min: float = 1.0
    area_max: float = 1.0
    friction_min: float = 1.0
    friction_max: float = 1.0

    def __post_init__(self):
        # nan fails every comparison below, and infinite bounds admit
        # every state as well
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"bounds must be finite, got {f.name} = "
                                 f"{getattr(self, f.name)}")
        if not (0.0 < self.rho_min <= self.rho_max):
            raise ValueError("need 0 < rho_min <= rho_max")
        if self.w_max < 0.0 or self.eps_max < 0.0:
            raise ValueError("w_max and eps_max must be nonnegative")
        if not (0.0 < self.area_min <= self.area_max):
            raise ValueError("need 0 < area_min <= area_max")
        if not (0.0 < self.friction_min <= self.friction_max):
            raise ValueError("need 0 < friction_min <= friction_max")

    def subsonic_margin(self, law):
        """min over [rho_min, rho_max] of rho*P''(rho) - 4*eps_max^2*w_max^2."""
        # linspace holds both ends exactly
        grid = np.linspace(self.rho_min, self.rho_max, 1024)
        return float(np.min(grid * law.d2potential(grid))
                     - 4.0 * self.eps_max**2 * self.w_max**2)
