import subprocess
import sys

import clocklab


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is removed breaks
    # ``from clocklab import *``
    missing = [name for name in clocklab.__all__ if not hasattr(clocklab, name)]
    assert missing == []
    assert len(set(clocklab.__all__)) == len(clocklab.__all__)


def test_cli_import_and_node_rule_load_no_numpy_polynomial():
    # importing numpy.polynomial costs milliseconds at every start; the
    # Gauss-Hermite nodes come from numpy.linalg alone
    code = ("import sys, clocklab.cli\n"
            "from clocklab.states import GaussianClockSpec, gaussian_state\n"
            "gaussian_state(GaussianClockSpec(10.0, 0.5, sigma_p=2.0), t_max=100.0)\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
