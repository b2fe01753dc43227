"""In-memory tracing of the tractrix package by rebinding its attributes.

Nothing under src/ is edited. A hook names its target by its bare name
(``connect``, ``_geo_rhs``, ``du``); the tracer finds every module-level
function of that name in an imported ``tractrix.*`` module, and every
class defined there whose own namespace holds that name, and rebinds each
place the original is reachable from. A target found nowhere is reported
as missing and the run goes on, so hooks follow code that moves between
modules and name what vanished.

Span hooks record (key, start, end, parent) for every call; count hooks
only count, attributed to the innermost open span, because they sit on
the hottest paths (geodesic right-hand side, chart derivatives).
"""

import contextlib
import sys
import time
import types
from collections import Counter

# (key, target name). Keys are the names the per-layer metrics use.
SPAN_HOOKS = [
    ("simulate", "simulate"),
    ("attach", "orthogonal_attachment"),
    ("fill_d", "_fill_orthogonal_distance"),
    ("fill_curvature", "_fill_curvature"),
    ("cusps", "_detect_cusps"),
    ("connect", "connect"),
    ("exp_map", "exp_map"),
    ("parallel_transport", "parallel_transport"),
    ("rk4", "_rk4_geodesic"),
    ("sweep", "sweep_result"),
    ("certify", "certify_bounds"),
    ("checks", "rauch_length_area_check"),
    ("checks", "toponogov_sandwich_check"),
    ("checks", "le_sandwich_check"),
    ("round", "_run_round"),
    ("config_load", "load_scenario"),
    ("write", "write_trace_csv"),
    ("write", "write_sweep_txt"),
    ("write", "write_cusps_txt"),
    ("write", "write_report_txt"),
    ("write", "write_history_csv"),
    ("write", "write_iterate_csv"),
]
COUNT_HOOKS = [
    ("geo_rhs", "_geo_rhs"),
    ("chart_eval", "du"),
    ("chart_eval", "dv"),
    ("chart_eval", "duu"),
    ("chart_eval", "duv"),
    ("chart_eval", "dvv"),
    ("gauss", "gauss_at"),
]
# Exceptions counted per span key when they leave the hooked call.
FAILURE_TYPES = {"connect": "NoConvergenceError"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tractrix"
                                  or name.startswith("tractrix."))]


def _is_own(obj):
    return getattr(obj, "__module__", "").partition(".")[0] == "tractrix"


def _sites(target):
    """(owner, attribute, original) for every place `target` is bound."""
    modules = _package_modules()
    functions = {}
    sites = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and _is_own(obj) \
                    and obj.__module__ == mod.__name__:
                raw = obj.__dict__.get(target)
                if isinstance(raw, types.FunctionType):
                    sites.append((obj, target, raw))
            elif attr == target and isinstance(obj, types.FunctionType) \
                    and _is_own(obj):
                functions[id(obj)] = obj
    # rebind every alias of a found function, e.g. names imported by
    # `from .manifold import connect` into other modules
    for mod in modules:
        for attr, obj in vars(mod).items():
            if id(obj) in functions and obj is functions[id(obj)]:
                sites.append((mod, attr, obj))
    return sites


class Tracer:
    """Installs hooks, keeps spans and counts in memory, restores on exit."""

    def __init__(self, span_hooks=SPAN_HOOKS, count_hooks=COUNT_HOOKS):
        self.span_hooks = span_hooks
        self.count_hooks = count_hooks
        self.spans = []  # [key, start, end, parent index or -1]
        self.counts = Counter()  # (key, innermost span key or None)
        self.failures = Counter()
        self.results = []  # return values of `simulate`
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.missing = []
        failure_types = self._failure_types()
        for key, target in self.span_hooks:
            self._install(target, lambda fn, key=key: self._span_wrapper(
                key, fn, failure_types.get(key)))
        for key, target in self.count_hooks:
            self._install(target, lambda fn, key=key: self._count_wrapper(
                key, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Run a block with every hook removed, then put them back."""
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()

    @staticmethod
    def _failure_types():
        errors = sys.modules.get("tractrix.errors")
        out = {}
        for key, name in FAILURE_TYPES.items():
            cls = getattr(errors, name, None)
            if cls is not None:
                out[key] = cls
        return out

    def _install(self, target, make):
        sites = _sites(target)
        if not sites:
            self.missing.append(target)
            return
        wrapped = {}
        for owner, attr, original in sites:
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def _span_wrapper(self, key, fn, failure_type):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        keep_result = key == "simulate"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts[key, spans[parent][0] if stack else None] += 1
            idx = len(spans)
            record = [key, clock(), 0.0, parent]
            spans.append(record)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if failure_type is not None and isinstance(exc, failure_type):
                    self.failures[key] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if keep_result:
                self.results.append(out)
            return out

        return wrapper

    def _count_wrapper(self, key, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[key, spans[stack[-1]][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ---------------------------------------------------------

    def count(self, key, inside=None):
        """Calls of `key`; with `inside`, only those under a span of that key.

        For count hooks `inside` matches the innermost open span; for span
        hooks it matches any ancestor.
        """
        if inside is None:
            return sum(n for (k, _), n in self.counts.items() if k == key)
        if any(k == key for k, _ in self.span_hooks):
            return sum(1 for s in self.spans
                       if s[0] == key and self._has_ancestor(s, inside))
        return self.counts[key, inside]

    def _has_ancestor(self, span, key):
        parent = span[3]
        while parent >= 0:
            above = self.spans[parent]
            if above[0] == key:
                return True
            parent = above[3]
        return False

    def inclusive_s(self, key):
        """Wall time inside outermost spans of `key` (no double counting)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == key and not self._has_ancestor(s, key))

    def self_s(self, key):
        """Span time of `key` minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i]
                   for i, s in enumerate(self.spans) if s[0] == key)
