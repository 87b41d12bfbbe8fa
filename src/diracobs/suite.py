"""Identity manifest, runner and reporting.

The manifest is a line-oriented UTF-8 text format::

    name := lhs == rhs @ exact
    name := lhs == rhs @ order
    name := lhs == rhs @ order 2
    name := lhs == coeff @ exact; coeff = -3/4*hbar^2
    # comment

Expressions use the grammar of :mod:`~.exprcli`.  Entry names carry the
paper-section tag as a dotted prefix (``s2.`` .. ``s5``; the adjoint section
uses the ``s3.adj.`` prefix), which is what ``--filter`` matches on.

``@ exact`` entries must normal-form to zero identically; ``@ order N``
entries must vanish after truncation at total alpha-degree N (their
evaluation threads N through every product, which is sound because no
operation lowers the alpha-degree of a monomial).  A bare ``@ order`` takes
the order of the run, so one file states each series law at every order.

An entry may bind one named coefficient after its clause.  The name stands
for ``(expr)`` in the right-hand side, so the identity itself checks the
value; when the entry passes, the report prints ``name = value`` with the
value rendered as a scalar.  A binding that is not a pure scalar makes its
entry an error.

The shipped manifest (``manifest.txt``, package data) is the only place the
identities of the model are written: every catalog relation and every
accelerated-frame law."""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources

from . import exprcli
from .conventions import DEFAULT_ORDER
from .ncalg import NCElement


class ManifestParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


@dataclass
class IdentityEntry:
    name: str
    lhs: str
    rhs: str
    order: object  # int or None for exact
    tag: str = ""
    #: ``(name, expr)`` of the bound coefficient; ``rhs`` already has
    #: ``(expr)`` in place of the name.
    binding: tuple | None = None

    def __post_init__(self):
        if not self.tag:
            self.tag = self.name.split(".", 1)[0]


_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _bind(rhs: str, binding: str, lineno: int, column: int):
    """``rhs`` with the bound name replaced by ``(expr)``, and ``(name, expr)``."""
    if "=" not in binding:
        raise ManifestParseError("missing '=' in coefficient binding", lineno, column)
    name, expr = (part.strip() for part in binding.split("=", 1))
    if not _IDENT_RE.match(name):
        raise ManifestParseError(f"bad coefficient name {name!r}", lineno, column)
    if exprcli.is_defined_name(name):
        raise ManifestParseError(f"coefficient name {name!r} is already defined",
                                 lineno, column)
    if not expr:
        raise ManifestParseError("empty expression", lineno, column)
    rhs, uses = re.subn(rf"\b{name}\b", lambda _: f"({expr})", rhs)
    if not uses:
        raise ManifestParseError(f"coefficient {name!r} is not used in the rhs",
                                 lineno, column)
    return rhs, (name, expr)


def parse_manifest(text: str, order: int = DEFAULT_ORDER):
    """Parse manifest text into entries; positions are 1-based.

    A bare ``@ order`` clause resolves to ``order``, the run's order, and a
    coefficient binding is resolved into the right-hand side."""
    if order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order}")
    entries = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise ManifestParseError("missing ':='", lineno, raw.find(raw.strip()) + 1)
        name, rest = line.split(":=", 1)
        name = name.strip()
        if not _NAME_RE.match(name):
            raise ManifestParseError(f"bad entry name {name!r}", lineno)
        if name in seen:
            raise ManifestParseError(f"duplicate entry name {name!r}", lineno)
        seen.add(name)
        if "==" not in rest:
            raise ManifestParseError("missing '=='", lineno, raw.index(":=") + 3)
        lhs, rest = rest.split("==", 1)
        if "@" not in rest:
            raise ManifestParseError("missing '@ (exact|order|order N)'", lineno,
                                     raw.index("==") + 3)
        rhs, clause = rest.rsplit("@", 1)
        clause, semi, binding = clause.partition(";")
        clause = clause.strip()
        if clause == "exact":
            n = None
        elif clause == "order":
            n = order
        else:
            m = re.match(r"^order\s+(\d+)$", clause)
            if not m:
                raise ManifestParseError(f"bad order clause {clause!r}", lineno,
                                         raw.rindex("@") + 1)
            n = int(m.group(1))
            if n > exprcli.MAX_ORDER:
                raise ManifestParseError(
                    f"order {n} is above the limit {exprcli.MAX_ORDER}", lineno,
                    raw.rindex("@") + 1)
        lhs, rhs = lhs.strip(), rhs.strip()
        if not lhs or not rhs:
            raise ManifestParseError("empty expression", lineno)
        bound = None
        if semi:
            at = raw.split("#", 1)[0].rindex("@")
            rhs, bound = _bind(rhs, binding, lineno, raw.index(";", at) + 2)
        entries.append(IdentityEntry(name, lhs, rhs, n, binding=bound))
    return entries


# ---------------------------------------------------------------------------
# Default manifest
# ---------------------------------------------------------------------------

def load_default_manifest() -> str:
    """The text of the shipped manifest; parse it at the run's order."""
    return resources.files(__package__).joinpath("manifest.txt").read_text("utf-8")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _side(src: str, e: IdentityEntry, order: int):
    """One side ``src`` of entry ``e`` in normal form, truncated at its order.

    ``order`` is the runner's order, used by ``@ exact`` entries for series
    written without an explicit order."""
    n = e.order if isinstance(e.order, int) else None
    cfg = exprcli.EvalConfig(order=order if n is None else n, alpha_max=n)
    el = exprcli.evaluate(exprcli.parse(src), cfg)
    return el if n is None else el.alpha_truncate(n)


def _residual(e: IdentityEntry, order: int):
    """``lhs - rhs`` of an entry, as the runner decides it."""
    return _side(e.lhs, e, order) - _side(e.rhs, e, order)


def _coefficients(e: IdentityEntry, order: int) -> dict:
    """``{name: rendered scalar}`` of the entry's binding, ``{}`` without one.

    ValueError if the bound expression is not a pure scalar."""
    if e.binding is None:
        return {}
    name, expr = e.binding
    el = _side(expr, e, order)
    value = el.scalar_part()
    if el != NCElement.from_scalar(value):
        raise ValueError(f"coefficient {name!r} is not a pure scalar")
    return {name: value.render()}


def _evaluate_entry(e: IdentityEntry, order: int):
    """One report entry.  Any exception, a non-scalar binding's included,
    makes the entry an error with ``Type: message`` as its residual."""
    t0 = time.perf_counter()
    result = {"name": e.name, "tag": e.tag,
              "order": "exact" if e.order is None else e.order}
    coefficients = {}
    try:
        residual = _residual(e, order)
        ok = residual.is_zero
        coefficients = _coefficients(e, order) if ok else {}
        result["status"] = "pass" if ok else "fail"
        result["residual"] = "" if ok else residual.render()
    except Exception as exc:  # recorded, not fatal
        result["status"] = "error"
        result["residual"] = f"{type(exc).__name__}: {exc}"
    result["ms"] = round((time.perf_counter() - t0) * 1000, 3)
    if coefficients:
        result["coefficients"] = coefficients
    return result


def run_suite(entries, order: int = DEFAULT_ORDER, name_filter: str | None = None):
    """Evaluate entries in order and assemble the report."""
    if name_filter:
        entries = [e for e in entries if e.name.startswith(name_filter)]
    t0 = time.perf_counter()
    results = [_evaluate_entry(e, order) for e in entries]
    totals = {"pass": sum(r["status"] == "pass" for r in results),
              "fail": sum(r["status"] == "fail" for r in results),
              "error": sum(r["status"] == "error" for r in results),
              "ms": round((time.perf_counter() - t0) * 1000, 3)}
    return {"suite": "default" if name_filter is None else f"filtered:{name_filter}",
            "config": {"order": order}, "entries": results, "totals": totals}


def report_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def report_markdown(report) -> str:
    """Stable summary (no timings, byte-identical across runs)."""
    lines = [f"# Identity suite: {report['suite']}",
             f"order: {report['config']['order']}", "",
             "| entry | tag | order | status |",
             "|---|---|---|---|"]
    for r in report["entries"]:
        lines.append(f"| {r['name']} | {r['tag']} | {r['order']} | {r['status']} |")
        if r["status"] != "pass" and r["residual"]:
            first = r["residual"].splitlines()[0]
            lines.append(f"|  |  |  | `{first}` |")
        if r.get("coefficients"):
            pretty = ", ".join(f"{k} = {v}" for k, v in sorted(r["coefficients"].items()))
            lines.append(f"|  |  |  | {pretty} |")
    t = report["totals"]
    lines += ["", f"totals: {t['pass']} pass, {t['fail']} fail, {t['error']} error"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Golden snapshots
# ---------------------------------------------------------------------------

def golden_snapshot(names, out_dir: str, monomial_order: str = "default"):
    """Write deterministic normal-form renderings, one file per name."""
    os.makedirs(out_dir, exist_ok=True)
    reverse = monomial_order == "reversed"
    paths = []
    for name in names:
        node = exprcli.parse(name)
        if not isinstance(node, exprcli.Ref):
            raise ValueError(f"snapshot name must be a catalog reference: {name!r}")
        el = exprcli.evaluate(node)
        fname = re.sub(r"[\[,]", "_", name).replace("]", "") + ".txt"
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(el.render(reverse=reverse) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Negative controls (used by tests; never part of the shipped manifest)
# ---------------------------------------------------------------------------

def negative_controls(entries):
    """Perturbed copies of entries that must all fail.

    Identities with a nonzero right-hand side get the sign of the right-hand
    side flipped; identities stated against (anything evaluating to) zero are
    shifted by 1, since negating zero would change nothing.  The right-hand
    side is evaluated as the runner evaluates it, so one that vanishes only
    after truncation at the entry's order counts as zero.
    """
    out = []
    for e in entries:
        rhs = "1" if _side(e.rhs, e, DEFAULT_ORDER).is_zero else f"-({e.rhs})"
        out.append(IdentityEntry(e.name + ".neg", e.lhs, rhs, e.order))
    return out
