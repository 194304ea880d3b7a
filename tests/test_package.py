import os
import subprocess
import sys

import qbmotion


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qbmotion import *", namespace)
    for name in qbmotion.__all__:
        assert namespace[name] is getattr(qbmotion, name)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # the oracles and the integrator import these on use; loading them with
    # the package would add their memory to every CLI process
    heavy = ("scipy.interpolate", "scipy.linalg", "scipy.signal", "scipy.integrate")
    src = os.path.dirname(os.path.dirname(qbmotion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = f"import sys, qbmotion.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
