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
entries must vanish after truncation at total alpha-degree N: each side is
``exprcli.evaluate(node, N, exact=False)``.  A bare ``@ order`` takes the
order of the run, so one file states each series law at every order.

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
import marshal
import os
import re
import signal
import sys
import time
from importlib import resources

from . import exprcli
from .conventions import DEFAULT_ORDER
from .ncalg import NCElement


class ManifestParseError(exprcli.ParseError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message, line, column)


class IdentityEntry:
    """One manifest entry: ``lhs == rhs`` exactly (``order`` None) or after
    truncation at alpha-degree ``order``.  ``tag`` is the entry name's
    section prefix; ``binding`` is the ``(name, expr)`` of the bound
    coefficient, and ``rhs`` already has ``(expr)`` in place of the name."""

    __slots__ = ("name", "lhs", "rhs", "order", "tag", "binding")

    def __init__(self, name: str, lhs: str, rhs: str, order,
                 binding: tuple | None = None):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.order = order
        self.tag = name.split(".", 1)[0]
        self.binding = binding

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"IdentityEntry({fields})"


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
    exact = e.order is None
    return exprcli.evaluate(exprcli.parse(src), order if exact else e.order, exact)


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


#: Most items of a work queue.  The whole queue is written to a pipe before
#: any worker reads it, so it must fit in one pipe buffer: 4 bytes an item.
_QUEUE_ITEMS = 1024


def _queue_items(entries) -> list:
    """Entry indices grouped by family, the ``tag.family`` prefix of the name
    (``s3.adj``), families in manifest order: the entries of one family share
    cached frame quantities, so one worker runs them all.  Past
    ``_QUEUE_ITEMS`` families, consecutive families share an item."""
    families: dict = {}
    for i, e in enumerate(entries):
        families.setdefault(".".join(e.name.split(".", 2)[:2]), []).append(i)
    groups = list(families.values())
    step = max(1, -(-len(groups) // _QUEUE_ITEMS))
    return [[i for group in groups[k:k + step] for i in group]
            for k in range(0, len(groups), step)]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker_count(items: int) -> int:
    """One worker per usable CPU, at most one per queue item; one where
    forking is unavailable or unsafe, because the process runs threads."""
    if not hasattr(os, "fork"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the threads the threading module knows
        threading = sys.modules.get("threading")
        threads = threading.active_count() if threading else 1
    return 1 if threads > 1 else max(1, min(_usable_cpus(), items))


def _work(entries, order: int, items, queue: int, parent, done) -> None:
    """Evaluate whole queue items until ``queue`` is empty, handing each
    item's ``[(index, result), ...]`` to ``done``.  A forked worker, whose
    ``parent`` is the forking process's pid, stops before its next item
    once that process is gone; worker 0 passes None."""
    while parent is None or os.getppid() == parent:
        # the pipe holds whole 4-byte tokens only, so a read takes one token
        token = os.read(queue, 4)
        if not token:
            return
        done([(i, _evaluate_entry(entries[i], order))
              for i in items[int.from_bytes(token, "little")]])


def _child(entries, order: int, items, queue: int, parent: int, out: int):
    """Body of a forked worker: one length-prefixed ``marshal`` message per
    item on ``out``.  It ends in ``os._exit``, never returning into the
    caller's stack nor flushing inherited stdio buffers, and exits non-zero
    unless every message was written."""
    code = 1
    try:
        def send(results):
            data = marshal.dumps(results)
            data = memoryview(len(data).to_bytes(4, "little") + data)
            while data:
                data = data[os.write(out, data):]
        _work(entries, order, items, queue, parent, send)
        code = 0
    finally:
        os._exit(code)


def _receive(fd: int):
    """The ``(index, result)`` pairs of every whole message a worker wrote,
    read to end of file."""
    data = bytearray()
    while chunk := os.read(fd, 1 << 16):
        data += chunk
    pos = 0
    while pos + 4 <= len(data):
        size = int.from_bytes(data[pos:pos + 4], "little")
        pos += 4
        if pos + size > len(data):
            return
        yield from marshal.loads(data[pos:pos + size])
        pos += size


def _evaluate_all(entries, order: int) -> list:
    """``_evaluate_entry`` of every entry, in entry order.

    Whole families go to worker processes, one per usable CPU but no more
    than there are families: each worker takes the next family from one
    queue.  The caller forks the others and works as worker 0; with one
    worker the same loop runs without a fork.  ChildProcessError if a worker
    dies or loses results; the message names the entries without one."""
    items = _queue_items(entries)
    results = [None] * len(entries)

    def keep(pairs):
        for i, result in pairs:
            results[i] = result

    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(k.to_bytes(4, "little") for k in range(len(items))))
    finally:
        os.close(feed)
    parent = os.getpid()
    pipes, running, failed = [], [], []
    try:
        for _ in range(_worker_count(len(items)) - 1):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(entries, order, items, queue, parent, write)
                running.append(pid)
            finally:
                os.close(write)
        _work(entries, order, items, queue, None, keep)
        for read in pipes:  # to end of file before waitpid: no full pipe blocks
            keep(_receive(read))
        for pid in tuple(running):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code:
                failed.append(f"was killed by signal {-code}" if code < 0
                              else f"exited with status {code}")
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (queue, *pipes):
            os.close(fd)
    lost = [entries[i].name for i, result in enumerate(results) if result is None]
    if failed or lost:
        raise ChildProcessError(
            f"a check worker {failed[0] if failed else 'lost results'}; "
            f"entries without a result: {', '.join(lost) or 'none'}")
    return results


def run_suite(entries, order: int = DEFAULT_ORDER, name_filter: str | None = None):
    """Evaluate entries and assemble the report, entries in their order.

    The report is the same for any number of workers (see ``_evaluate_all``)
    apart from the ``ms`` timings: each entry's is measured in the worker
    that ran it, and the total is wall time."""
    if name_filter:
        entries = [e for e in entries if e.name.startswith(name_filter)]
    t0 = time.perf_counter()
    results = _evaluate_all(entries, order)
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

def negative_controls(entries, order: int = DEFAULT_ORDER):
    """Perturbed copies of entries that must all fail.

    Identities with a nonzero right-hand side get the sign of the right-hand
    side flipped; identities stated against (anything evaluating to) zero are
    shifted by 1, since negating zero would change nothing.  The right-hand
    side is evaluated as a run at ``order`` evaluates it, so one that
    vanishes only after truncation counts as zero.
    """
    out = []
    for e in entries:
        rhs = "1" if _side(e.rhs, e, order).is_zero else f"-({e.rhs})"
        out.append(IdentityEntry(e.name + ".neg", e.lhs, rhs, e.order))
    return out
