"""Start-up cost: importing fracroots loads no scipy module, and the special
functions that need scipy import it on their first call with unchanged values.
The public surface: every exported name is defined."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracroots
from fracroots.fracderiv import rl_integral_quadrature
from fracroots.specfun import incomplete_beta_regularized, log_gamma_complex

SRC = str(Path(fracroots.__file__).resolve().parent.parent)

FRESH_PROCESS = """
import json, sys
import fracroots, fracroots.cli
loaded = sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules)
from fracroots.fracderiv import rl_integral_quadrature
from fracroots.specfun import incomplete_beta_regularized, log_gamma_complex
g = log_gamma_complex(2.5 + 1j)
b = incomplete_beta_regularized(0.007, 0.5, 1.5)
q = rl_integral_quadrature(lambda t: t, 0.0, 1.0, 0.5, rel_tol=1e-10)
print(json.dumps({"loaded": loaded, "values": [g.real.hex(), g.imag.hex(), b.hex(), q.hex()]}))
"""


def test_import_loads_no_scipy_and_first_calls_match():
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    result = json.loads(out)
    assert result["loaded"] == []
    g_re, g_im, b, q = (float.fromhex(v) for v in result["values"])
    g = log_gamma_complex(2.5 + 1j)
    assert (g_re, g_im) == (g.real, g.imag)
    assert b == incomplete_beta_regularized(0.007, 0.5, 1.5)
    # the tolerance of TestIntegralQuadrature.test_half_order_of_t
    expected = rl_integral_quadrature(lambda t: t, 0.0, 1.0, 0.5, rel_tol=1e-10)
    assert q == pytest.approx(expected, rel=1e-10)


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(fracroots.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_are_defined(name):
    module = importlib.import_module(f"fracroots.{name}")
    missing = [n for n in getattr(module, "__all__", []) if n not in vars(module)]
    assert missing == []


def test_package_exports_resolve_once():
    assert len(fracroots.__all__) == len(set(fracroots.__all__))
    assert [n for n in fracroots.__all__ if not hasattr(fracroots, n)] == []
