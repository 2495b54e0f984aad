"""Layer spans for the traced run, installed from outside the library.

Each hook names a module-level function at a layer boundary. Installing it
replaces that function object, under every name it is bound to in the
loaded hadcert modules (``from .cmatrix import numerical_rank`` makes
``spancert.numerical_rank`` a second binding), with a wrapper that records a
span. No library file is edited, and nothing is installed unless the run
asks for a trace. A hook whose module or function no longer exists is
reported as an unmeasured layer and otherwise ignored.

Spans nest by call: a span's self time is its duration minus the time its
child spans cover. Spans are aggregated in memory as they close, by (name,
parent name) and by (job label, name).
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


def _scan_mask_pairs(n):
    """Unordered pairs of disjoint non-empty masks over n points."""
    return (3 ** n - 2 ** (n + 1) + 1) // 2


def _count_scan(tr, args, kwargs, out):
    tr.counts["families.scan.candidates"] += len(out)
    n = kwargs["n"] if "n" in kwargs else args[4]
    tr.counts["families.scan.mask_pairs"] += _scan_mask_pairs(int(n))


def _count_rank(tr, args, kwargs, out):
    m = min(getattr(args[0], "shape", (0, 0)))
    # singular values only of an m x m complex matrix: Golub-Van Loan
    # bidiagonalization, 8/3 m^3 real flops, times 4 for complex arithmetic
    tr.counts["cmatrix.svd.flops"] += int(32 * m ** 3 // 3)
    tr.counts["cmatrix.svd.bytes"] += 16 * m * m


def _count_span(tr, args, kwargs, out):
    tr.counts["spancert.span_matrix.bytes"] += int(out.nbytes)


def _count_certify(tr, args, kwargs, out):
    tr.values["spancert.gap_min"] = min(tr.values.get("spancert.gap_min", float("inf")),
                                        float(out.gap))


def _count_len(key):
    def count(tr, args, kwargs, out):
        tr.counts[key] += len(out)
    return count


def _count_one(key):
    def count(tr, args, kwargs, out):
        tr.counts[key] += 1
    return count


def _count_search(tr, args, kwargs, out):
    tr.counts["search.starts"] += 1
    tr.counts["search.iterations"] += int(out.iterations)
    tr.counts["search.converged"] += int(bool(out.converged))


# (span name, module, function, counter run on the returned value)
HOOKS = [
    ("cli.main", "hadcert.cli", "main", None),
    ("cli.parse_matrix", "hadcert.cli", "parse_matrix", None),
    ("cli.format_matrix", "hadcert.cli", "format_matrix", None),
    ("hadamard.verify_biunitary", "hadcert.hadamard", "verify_biunitary", None),
    ("hadamard.qr_solve", "hadcert.hadamard", "_solve_qr_phase", None),
    ("spancert.certify", "hadcert.spancert", "certify_isolation", _count_certify),
    ("spancert.span_matrix", "hadcert.spancert", "span_matrix", _count_span),
    ("cmatrix.numerical_rank", "hadcert.cmatrix", "numerical_rank", _count_rank),
    ("cmatrix.expi_hermitian", "hadcert.cmatrix", "expi_hermitian", None),
    ("families.edge_tables", "hadcert.families", "_edge_tables", None),
    ("families.scan", "hadcert._backend", "scan_block_pairs", _count_scan),
    ("families.block_pairs", "hadcert.families", "find_block_pairs",
     _count_len("families.filter.accepted")),
    ("families.block_residual", "hadcert.families", "block_residual", None),
    ("families.commuting", "hadcert.families", "find_commuting_pairs",
     _count_len("families.commuting.hits")),
    ("families.constr1", "hadcert.families", "constr1_family",
     _count_one("families.constr.members")),
    ("families.constr2", "hadcert.families", "constr2_family",
     _count_one("families.constr.members")),
    ("search.local_search", "hadcert.search", "local_search", _count_search),
    ("search.smoothed", "hadcert.search", "_smoothed", None),
    ("search.gradient", "hadcert.search", "gradient", None),
    ("search.promote", "hadcert.search", "promote", _count_one("search.promoted")),
]


class Tracer:
    """Span recorder for one traced run; install() and uninstall() bracket it."""

    def __init__(self):
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, total, self
        self.counts = defaultdict(int)
        self.values = {}
        self.by_job = defaultdict(lambda: [0, 0.0])         # (job label, name) -> calls, total
        self.job = None
        self.unmeasured = []
        self._installed = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                st = tracer.stats[(name, parent[0] if parent else None)]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                bj = tracer.by_job[(tracer.job, name)]
                bj[0] += 1
                bj[1] += dt
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every hook target that exists; record the ones that do not."""
        for name, modname, attr, counter in HOOKS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.unmeasured.append(f"{modname}:{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.unmeasured.append(f"{modname}:{attr}")
                continue
            wrapper = self._wrap(name, fn, counter)
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "")
                if mname != "hadcert" and not mname.startswith("hadcert."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._installed):
            setattr(m, key, fn)
        self._installed.clear()

    def calls_by_name(self):
        out = defaultdict(int)
        for (name, _), (calls, _, _) in self.stats.items():
            out[name] += calls
        return dict(out)

    def total(self, name, parent=Ellipsis):
        """(calls, total seconds, self seconds) of a span name, optionally
        only under the given parent name."""
        calls, tot, own = 0, 0.0, 0.0
        for (n, p), (c, t, s) in self.stats.items():
            if n == name and (parent is Ellipsis or p == parent):
                calls += c
                tot += t
                own += s
        return calls, tot, own
