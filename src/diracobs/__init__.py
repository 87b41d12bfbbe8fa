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
"""

from .conventions import DEFAULT_ORDER
from .exprcli import EvalConfig, EvalError, ParseError, eval_text, parse, render_expr
from .frames import (FrameShift, canonical_invariance, check_hermitian_forms,
                     check_momentum_law, check_position_law, check_tetrad_law,
                     conformal_factor, conformal_factor_inv, conjugate,
                     conjugate_inverse, metric_check, reciprocity_check, vierbein)
from .ncalg import (Involution, NCElement, NotUnitalSeries, PolyForm, bracket,
                    dot, geometric_inverse, poly_eval_left, poly_eval_sym)
from .observables import UnknownObservable, adjoint, build, catalog_names
from .scalars import GRat, NonInvertibleCoefficient, Scalar
from .suite import (IdentityEntry, ManifestParseError, golden_snapshot,
                    load_default_manifest, parse_manifest, run_suite)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER", "EvalConfig", "EvalError", "FrameShift", "GRat",
    "IdentityEntry", "Involution", "ManifestParseError", "NCElement",
    "NonInvertibleCoefficient", "NotUnitalSeries", "ParseError", "PolyForm",
    "Scalar", "UnknownObservable", "adjoint", "bracket", "build",
    "canonical_invariance", "catalog_names", "check_hermitian_forms",
    "check_momentum_law", "check_position_law", "check_tetrad_law",
    "conformal_factor", "conformal_factor_inv", "conjugate",
    "conjugate_inverse", "dot", "eval_text", "geometric_inverse",
    "golden_snapshot", "load_default_manifest", "metric_check", "parse",
    "parse_manifest", "poly_eval_left", "poly_eval_sym", "reciprocity_check",
    "render_expr", "run_suite", "vierbein",
]
