import math

import numpy as np
import pytest

_ACCEPTANCE_LINES: list[str] = []


def _record(name: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
    _ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture
def acceptance():
    """Callable check(name, ok, detail): records a pass/fail line, then asserts."""

    def check(name, ok, detail=""):
        _record(name, bool(ok), detail)
        assert ok, f"{name}: {detail}"

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def ncx2_moment_se(dof: float, lam: float, n: int):
    """Standard errors of the sample mean and sample variance of chisq(dof, lam).

    From the exact cumulants kap_r = 2^(r-1) (r-1)! (dof + r lam):
    mean = dof + lam, var = 2 dof + 4 lam, and
    Var(s^2) ~ (mu4 - var^2) / n with mu4 = kap4 + 3 kap2^2.
    """
    kap2 = 2.0 * (dof + 2.0 * lam)
    kap4 = 48.0 * (dof + 4.0 * lam)
    mu4 = kap4 + 3.0 * kap2**2
    se_mean = np.sqrt(kap2 / n)
    se_var = np.sqrt((mu4 - kap2**2) / n)
    return se_mean, se_var


def cir_conditional_moments(kappa, gamma, nu_bar, dt, v0):
    """Closed-form conditional mean and variance of a CIR factor after ``dt``."""
    decay = math.exp(-kappa * dt)
    mean = v0 * decay + nu_bar * (1.0 - decay)
    var = (
        v0 * gamma**2 / kappa * (decay - decay**2)
        + nu_bar * gamma**2 / (2.0 * kappa) * (1.0 - decay) ** 2
    )
    return mean, var
