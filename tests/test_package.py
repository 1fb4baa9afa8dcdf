"""Package surface: every exported name resolves, and what the CLI imports."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import sdepf

MODULES = ["sdepf"] + ["sdepf." + m.name
                       for m in pkgutil.iter_modules(sdepf.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_cli_import_leaves_out_scipy_special():
    # Only the conjugate families need scipy.special (gammaln), and
    # they import it when built; the CLI's other commands never load it.
    code = "import sys, sdepf.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]
