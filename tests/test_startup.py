"""What a launch imports, the package's lazy exports, and the names the
benchmark tracer binds."""

import os
import subprocess
import sys

import pytest

import diracobs
from diracobs import conventions, exprcli, frames, ncalg, observables, scalars, suite


def test_launch_imports_only_what_its_command_runs():
    # -S keeps the site hooks of the interpreter from importing modules of
    # their own; the package is found through the path given as argv[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from diracobs.exprcli import main\n"
        "watched = ('dataclasses', 'inspect', 'json', 'diracobs.frames', 'diracobs.suite')\n"
        "def loaded():\n"
        "    print(' '.join(m for m in watched if m in sys.modules), file=sys.stderr)\n"
        "loaded()\n"
        "main(['eval', 'vb[0,0]'])\n"
        "loaded()\n"
        "rc = main(['check', '--order', '1', '--filter', 's5.traM'])\n"
        "loaded()\n"
        "sys.exit(rc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracobs.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    at_import, after_eval, after_check = (set(line.split())
                                          for line in done.stderr.splitlines())
    assert at_import == set()
    assert after_eval == {"diracobs.frames"}
    assert "diracobs.suite" in after_check


def test_exports_are_the_home_modules_objects():
    modules = (conventions, exprcli, frames, ncalg, observables, scalars, suite)
    for name in diracobs.__all__:
        value = getattr(diracobs, name)
        homes = [m for m in modules if name in vars(m)]
        assert homes and all(vars(m)[name] is value for m in homes), name
    assert diracobs.conjugate is frames.conjugate
    assert diracobs.run_suite is suite.run_suite


def test_star_import_binds_every_export():
    namespace = {}
    exec("from diracobs import *", namespace)
    assert set(diracobs.__all__) <= namespace.keys()
    assert namespace["vierbein"] is frames.vierbein
    assert namespace["IdentityEntry"] is suite.IdentityEntry


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="'nope'"):
        diracobs.nope
    assert not hasattr(diracobs, "nope")


def test_benchmark_tracer_runs_on_the_kernel():
    # bench/tracing.py rebinds names of the package from outside it, such as
    # the four-argument Scalar.__init__ and the _a/_b parts it counts; one
    # product, one bracket and one p-derivative run through its wrappers
    code = (
        "from tracing import Tracer\n"
        "from diracobs import ncalg\n"
        "from diracobs.scalars import Scalar\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.start()\n"
        "f = Scalar.p(0) * Scalar.w_pow(-1) + Scalar.p(1)\n"
        "a = ncalg.NCElement.from_scalar(f) * ncalg.NCElement.gamma(0)\n"
        "b = ncalg.NCElement.x(0) + ncalg.NCElement.x(1)\n"
        "product = a * b\n"
        "ncalg.bracket(a, b)\n"
        "print(f.pderiv(0))\n"
        "counts = tracer.summary()['counts']\n"
        "print(counts['scalars.terms_out'], counts['ncalg.mul.pairs'])\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "bench")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, cwd=root)
    assert done.returncode == 0, done.stderr
    deriv, counts = done.stdout.splitlines()
    assert deriv == "-p1^2*w^-3 - p2^2*w^-3 - p3^2*w^-3"
    terms_out, pairs = map(int, counts.split())
    assert terms_out > 0 and pairs > 0
