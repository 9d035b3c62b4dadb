import numpy as np
import pytest
from scipy.integrate import quad

from pipeflow.gas import (
    AdmissibleBounds,
    IsothermalLaw,
    PipeParameters,
    PowerLaw,
    TabulatedLaw,
    make_law,
)
from pipeflow.discretization import NetworkState, build_system
from pipeflow.network import single_pipe


def quad_potential(law, rho):
    """Independent oracle: adaptive quadrature of p(r)/r^2."""
    val, _ = quad(lambda r: law.pressure(r) / r**2, 1.0, rho,
                  epsabs=1e-13, epsrel=1e-13)
    return rho * val


class TestPotential:
    def test_reference_density_is_zero(self):
        for law in (IsothermalLaw(1.0), IsothermalLaw(2.5), PowerLaw(1.0, 2.0),
                    PowerLaw(0.7, 3.0)):
            assert law.potential(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_isothermal_at_e(self):
        law = IsothermalLaw(1.0)
        expected = quad_potential(law, np.e)
        assert expected == pytest.approx(np.e, rel=1e-12)
        assert law.potential(np.e) == pytest.approx(expected, rel=1e-12)

    def test_power_law_closed_form(self):
        law = PowerLaw(kappa=1.0, exponent=2.0)
        assert law.potential(3.0) == pytest.approx(6.0, rel=1e-13)
        assert law.potential(3.0) == pytest.approx(quad_potential(law, 3.0), rel=1e-12)

    def test_closed_forms_match_quadrature(self):
        for law in (IsothermalLaw(1.7), PowerLaw(0.8, 2.0), PowerLaw(1.3, 3.5)):
            for rho in (0.4, 0.9, 1.6, 2.7):
                assert law.potential(rho) == pytest.approx(
                    quad_potential(law, rho), rel=1e-11, abs=1e-13)

    def test_derivative_identity(self):
        # P'(rho) - P'(1) equals the integral of P'' for the closed forms
        for law in (IsothermalLaw(1.3), PowerLaw(1.1, 2.4)):
            for rho in (0.5, 1.8):
                integral, _ = quad(law.d2potential, 1.0, rho, epsabs=1e-13)
                assert law.dpotential(rho) - law.dpotential(1.0) == pytest.approx(
                    integral, rel=1e-11, abs=1e-12)

    def test_convexity_on_admissible_range(self):
        grid = np.linspace(0.3, 3.0, 257)
        for law in (IsothermalLaw(0.9), PowerLaw(1.0, 2.0), PowerLaw(2.0, 1.4)):
            assert np.all(law.d2potential(grid) > 0.0)

    def test_rejects_nonpositive_density(self):
        law = IsothermalLaw(1.0)
        with pytest.raises(ValueError):
            law.potential(0.0)
        with pytest.raises(ValueError):
            law.dpotential(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf, -np.inf,
                                     [1.0, np.nan], [np.inf, 1.0],
                                     [[1.0, 2.0], [0.5, -0.0]]])
    def test_rejects_nonpositive_or_nonfinite_density(self, rho):
        with pytest.raises(ValueError, match="positive and finite"):
            IsothermalLaw(1.0).pressure(rho)

    def test_accepts_positive_density_of_any_shape(self):
        law = IsothermalLaw(2.0)
        assert law.pressure(0.5) == 2.0
        assert law.pressure(np.array([])).shape == (0,)
        assert law.pressure([[1.0, 1e300]]).shape == (1, 2)


@pytest.fixture(scope="module")
def tabulated_law():
    base = IsothermalLaw(1.2)
    rho = np.linspace(0.4, 2.5, 42)
    return TabulatedLaw(rho, base.pressure(rho))


def test_checked_derivatives_are_check_plus_kernel(tabulated_law):
    rho = np.linspace(0.5, 2.3, 11)
    for law in (IsothermalLaw(1.3), PowerLaw(1.1, 2.4), tabulated_law):
        assert np.array_equal(law.dpotential(rho), law._dpotential(rho))
        assert np.array_equal(law.d2potential(rho), law._d2potential(rho))
        for method in (law.dpotential, law.d2potential):
            with pytest.raises(ValueError):
                method(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="tabulated range"):
        tabulated_law._dpotential(np.array([1.0, 3.0]))


class TestTabulated:
    @pytest.fixture
    def law(self, tabulated_law):
        return tabulated_law

    def test_matches_quadrature(self, law):
        for rho in (0.5, 0.77, 1.0, 1.31, 2.2):
            ref = quad_potential(law, rho)
            assert law.potential(rho) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_derivative_consistency(self, law):
        # P' = Q + p/rho must differentiate P = rho*Q
        rho = np.linspace(0.5, 2.3, 11)
        step = 1e-6
        fd = (law.potential(rho + step) - law.potential(rho - step)) / (2 * step)
        assert np.allclose(law.dpotential(rho), fd, rtol=1e-7, atol=1e-8)

    def test_rejects_unsorted_table(self):
        with pytest.raises(ValueError):
            TabulatedLaw([0.5, 1.0, 0.9, 2.0], [0.5, 1.0, 1.5, 2.0])

    def test_rejects_out_of_range(self, law):
        with pytest.raises(ValueError):
            law.pressure(0.01)

    def test_admits_the_table_only(self, law):
        # the Newton stepper asks admits before it evaluates the kernels
        lo, hi = law.density_range
        assert law.admits(np.array([lo, 1.0, hi]))
        for bad in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), np.nan):
            assert not law.admits(np.array([1.0, bad]))
        assert IsothermalLaw(1.0).admits(np.array([1e-300, 1e300]))
        for bad in (0.0, -1.0, np.nan):
            assert not IsothermalLaw(1.0).admits(np.array([1.0, bad]))

    def test_from_file(self, tmp_path):
        base = PowerLaw(1.0, 2.0)
        rho = np.linspace(0.5, 2.0, 30)
        path = tmp_path / "gas.dat"
        np.savetxt(path, np.column_stack([rho, base.pressure(rho)]))
        law = TabulatedLaw.from_file(path)
        assert law.potential(1.5) == pytest.approx(base.potential(1.5), rel=1e-6)


def _table(rho, law):
    rho = np.asarray(rho, dtype=float)
    return rho, law.pressure(rho)


# the 42-point fixture's table, a four-point table, a wide uneven one, and
# one whose end slope at rho = 2 is clipped to zero (steep, then flat)
REFERENCE_TABLES = {
    "fixture": _table(np.linspace(0.4, 2.5, 42), IsothermalLaw(1.2)),
    "four": _table([0.5, 0.9, 1.4, 2.0], PowerLaw(1.0, 2.0)),
    "wide": _table([0.2, 0.3, 0.5, 0.9, 1.0, 2.5, 6.0, 11.0, 20.0],
                   PowerLaw(2.0, 1.4)),
    "clipped": (np.array([0.5, 0.6, 1.0, 2.0]), np.array([0.1, 1.0, 1.05, 1.1])),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_tabulated_matches_scipy_pchip(name):
    from scipy.interpolate import PchipInterpolator

    rho, p = REFERENCE_TABLES[name]
    law = TabulatedLaw(rho, p)
    ref = PchipInterpolator(rho, p)
    x = np.union1d(np.linspace(rho[0], rho[-1], 1001), rho)
    np.testing.assert_allclose(law.pressure(x), ref(x), rtol=1e-14, atol=0)
    # a clipped end slope is zero, so slopes near it are compared to the
    # table's largest slope
    slope = ref.derivative()(x)
    np.testing.assert_allclose(law.dpressure(x), slope, rtol=1e-14,
                               atol=1e-14 * np.abs(slope).max())


def test_tabulated_potential_on_wide_uneven_table():
    law = TabulatedLaw(*REFERENCE_TABLES["wide"])
    for r in (0.2, 0.25, 0.7, 1.5, 4.0, 9.3, 17.0, 20.0):
        assert law.potential(r) == pytest.approx(quad_potential(law, r),
                                                 rel=1e-12)
    # P'' = p'/rho is exact, so P' follows P to difference accuracy
    x = np.linspace(0.3, 19.0, 23)
    step = 1e-6 * x
    fd = (law.potential(x + step) - law.potential(x - step)) / (2 * step)
    np.testing.assert_allclose(law.dpotential(x), fd, rtol=1e-8)


@pytest.mark.parametrize("rho, p", [
    ([0.5, 1.0, 1.5, 2.0], [0.5, 1.0, np.nan, 2.0]),
    ([0.5, 1.0, 1.5, np.inf], [0.5, 1.0, 1.5, 2.0]),
])
def test_tabulated_rejects_nonfinite_table(rho, p):
    with pytest.raises(ValueError, match="finite"):
        TabulatedLaw(rho, p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["area", "friction", "elevation", "gravity"])
def test_pipe_parameters_reject_nonfinite(key, value):
    # nan passes the sign probes of the area and friction profiles
    specs = [value] if key == "gravity" else [value, ((0.0, 1.0), (1.0, value))]
    for spec in specs:
        with pytest.raises(ValueError, match=f"pipe {key} must be finite"):
            PipeParameters(length=1.0, **{key: spec})


def test_pressure_gradient_identity_second_order():
    # (1/rho) d/dx p(rho) == d/dx P'(rho); the two centered-difference
    # evaluations agree at second order under grid refinement
    law = IsothermalLaw(1.1)
    errs = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, 1.0, n + 1)
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        dx = x[1] - x[0]
        lhs = (law.pressure(rho[2:]) - law.pressure(rho[:-2])) / (2 * dx) / rho[1:-1]
        rhs = (law.dpotential(rho[2:]) - law.dpotential(rho[:-2])) / (2 * dx)
        errs.append(np.max(np.abs(lhs - rhs)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.7) and np.all(orders < 2.3)


class TestAdmissibility:
    """NetworkSystem.check_state on a single pipe of five cells."""

    LAW = IsothermalLaw(1.0)
    BOUNDS = AdmissibleBounds(rho_min=0.8, rho_max=1.2, w_max=1.0, eps_max=0.1)

    def kinds(self, rho, w, bounds=BOUNDS):
        system = build_system(single_pipe(), cells_per_edge=5, law=self.LAW)
        return system.check_state(NetworkState(0.0, rho, w), bounds)

    def test_margin_ok(self):
        bounds = AdmissibleBounds(rho_min=0.8, rho_max=1.2, w_max=2.0, eps_max=0.1)
        assert self.kinds(np.ones(5), np.zeros(6), bounds) == []
        # isothermal: rho P'' = c^2 = 1 >= 4*0.01*4 = 0.16
        assert bounds.subsonic_margin(self.LAW) == pytest.approx(0.84)

    def test_margin_violation(self):
        bounds = AdmissibleBounds(rho_min=1.0, rho_max=1.0, w_max=1.0, eps_max=1.0)
        assert self.kinds(np.ones(5), np.zeros(6), bounds) == ["subsonic_margin"]

    @pytest.mark.parametrize("cell, value, kind", [
        (3, 0.4, "density_low"), (0, 1.3, "density_high")])
    def test_density_violation(self, cell, value, kind):
        rho = np.ones(5)
        rho[cell] = value
        assert self.kinds(rho, np.zeros(6)) == [kind]

    def test_velocity_violation(self):
        w = np.zeros(6)
        w[2] = -1.5
        assert self.kinds(np.ones(5), w) == ["velocity"]

    def test_box_edges_are_admissible(self):
        rho = np.array([0.8, 1.2, 1.0, 1.0, 1.0])
        w = np.array([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert self.kinds(rho, w) == []

    def test_all_kinds_in_sorted_order(self):
        bounds = AdmissibleBounds(rho_min=0.8, rho_max=1.2, w_max=1.0, eps_max=1.0)
        rho = np.array([1.0, 0.4, 1.0, 1.5, 1.0])
        w = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
        assert self.kinds(rho, w, bounds) == [
            "density_high", "density_low", "subsonic_margin", "velocity"]


def test_make_law_factory():
    assert make_law("isothermal", sound_speed=2.0).sound_speed == 2.0
    assert make_law("power-law", kappa=0.5, exponent=3.0).exponent == 3.0
    with pytest.raises(ValueError):
        make_law("van-der-waals")
    with pytest.raises(ValueError, match="'kappa' is not a parameter"):
        make_law("isothermal", kappa=3.0)
    with pytest.raises(ValueError, match="needs 'table"):
        make_law("tabulated")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["rho_min", "rho_max", "w_max", "eps_max",
                                  "area_min", "area_max", "friction_min",
                                  "friction_max"])
def test_bounds_must_be_finite(name, value):
    # nan fails every comparison and an infinite bound admits every
    # state; either used to pass for some field
    fields = dict(rho_min=0.5, rho_max=1.5, w_max=1.0, eps_max=0.5)
    fields[name] = value
    with pytest.raises(ValueError, match=f"finite, got {name} = "):
        AdmissibleBounds(**fields)
