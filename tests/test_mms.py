import numpy as np
import pytest
import sympy as sy

from pipeflow.mms import default_case


def _sympy_case(epsilon, gamma, kappa, length, rho_amplitude, w_amplitude,
                rate):
    """Oracle: the default family differentiated symbolically, with exact
    constants."""
    x, t = sy.symbols("x tau")
    rho = 1 + rho_amplitude * sy.sin(2 * sy.pi * x / length) \
        * (1 + sy.sin(rate * t) / 2)
    w = w_amplitude * 16 * x**2 * (length - x) ** 2 / length**4 \
        * (1 + sy.cos(rate * t) / 2)
    h = epsilon**2 * w**2 / 2 + kappa * (2 * rho - 1)
    f1 = sy.diff(rho, t) + sy.diff(rho * w, x)
    f2 = epsilon**2 * sy.diff(w, t) + sy.diff(h, x) + gamma * w**2
    return [sy.lambdify((x, t), e, "numpy") for e in (rho, w, h, f1, f2)]


@pytest.mark.parametrize("params", [
    # the defaults, and every parameter moved
    dict(epsilon="3/10", gamma="1", kappa="1", length="1",
         rho_amplitude="1/10", w_amplitude="2/5", rate="pi"),
    dict(epsilon="7/10", gamma="2", kappa="3/2", length="5/2",
         rho_amplitude="1/5", w_amplitude="3/10", rate="3"),
])
def test_forcing_matches_symbolic_oracle(params):
    exact = {key: sy.sympify(value) for key, value in params.items()}
    case = default_case(**{key: float(value) for key, value in exact.items()})
    oracle = _sympy_case(**exact)
    x = np.linspace(0.0, case.length, 401)
    for fn, ref in zip((case.rho, case.w, case.enthalpy, *case.forcing),
                       oracle):
        for tau in np.linspace(0.0, 2.0, 41):
            want = np.broadcast_to(ref(x, tau), x.shape)
            got = fn(x, tau)
            assert got.shape == x.shape
            assert (np.linalg.norm(got - want)
                    <= 1e-13 * np.linalg.norm(want))
