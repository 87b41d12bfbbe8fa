"""Exact operator algebra for a localized spin-1/2 particle.

The package implements, in exact rational arithmetic, a quantum-algebraic
model built on the conformal symmetry generators: canonical positions and
momenta, an operator-valued mass, Clifford generators, spin and localization
observables, and finite transformations to uniformly accelerated frames.
Every commutation relation and frame-shift law of the model is decidable by
normal-form computation and is enumerated in a shipped identity manifest.

Layers, bottom up:

* :mod:`~diracobs.scalars` — the commutative coefficient ring;
* :mod:`~diracobs.clifford` — Cl(1,3) basis words;
* :mod:`~diracobs.ncalg` — normal forms, brackets, symmetrised products,
  graded series, involutions;
* :mod:`~diracobs.observables` — the operator catalog and the adjoint;
* :mod:`~diracobs.frames` — accelerated-frame conjugation series and the
  closed-form redshift laws;
* :mod:`~diracobs.suite` — identity manifest, runner, golden snapshots;
* :mod:`~diracobs.exprcli` — expression language and the ``diracobs`` CLI.

Importing the package loads the layers every command needs, through
``exprcli``.  ``frames`` and ``suite`` are imported on first use: their
names below are exported through a module ``__getattr__`` (PEP 562), and
``exprcli`` imports ``frames`` only when it evaluates a frame quantity or a
conjugation.  A ``diracobs eval`` that needs neither imports neither.
"""

import importlib

from .conventions import DEFAULT_ORDER
from .exprcli import EvalError, ParseError, eval_text, parse, render_expr
from .ncalg import Involution, NCElement, NotUnitalSeries, bracket, dot, geometric_inverse
from .observables import UnknownObservable, adjoint, build, catalog_names
from .scalars import GRat, Scalar

__version__ = "0.1.0"

#: Exported names whose home module is imported when one of them is first read.
_LAZY = {
    **dict.fromkeys(("conformal_factor", "conformal_factor_inv", "conjugate",
                     "vierbein"), "frames"),
    **dict.fromkeys(("IdentityEntry", "ManifestParseError", "golden_snapshot",
                     "load_default_manifest", "parse_manifest", "run_suite"), "suite"),
}

__all__ = [
    "DEFAULT_ORDER", "EvalError", "GRat", "IdentityEntry",
    "Involution", "ManifestParseError", "NCElement", "NotUnitalSeries",
    "ParseError", "Scalar", "UnknownObservable",
    "adjoint", "bracket", "build", "catalog_names", "conformal_factor",
    "conformal_factor_inv", "conjugate", "dot", "eval_text", "geometric_inverse",
    "golden_snapshot", "load_default_manifest", "parse", "parse_manifest",
    "render_expr", "run_suite", "vierbein",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
