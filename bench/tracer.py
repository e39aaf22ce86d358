"""Outside-in tracing of the ``seqop`` layers.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
every public function of every ``seqop`` layer module, and the public
methods and construction hooks of its classes (see :func:`targets`), with
timing wrappers, in every place the name is looked up: the defining module,
every module that bound it with ``from .x import name``, dict values such
as ``acceptance.CRITERIA``, and the class attribute for a method.
:meth:`Tracer.leftovers` lists any lookup site still holding an original.

Every wrapper keeps a frame on one stack, so each call's self time (its
duration minus the time of wrapped calls inside it) is added to its layer,
the ``seqop`` module that defines it.  Layer self times plus the
unattributed time of the root frame add up to the traced wall time.

Two kinds of wrapper:

- ``count``, the default: only a call count and the summed time (outermost
  activations only, so recursion is not counted twice), cheap enough for
  kernels called millions of times per run;
- ``span``: for the coarse calls in ``SPANS``, additionally one span record
  ``(id, parent, name, start, end)`` per call.

Everything is kept in memory; :meth:`Tracer.dump` writes the spans, the call
counts and one record per reduced matrix once the run has ended.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("combinatorics", "operad", "homology", "simplicial", "hochschild", "berger", "cli", "acceptance")

# Besides the public methods, the construction and algebra hooks of every
# class a layer defines are wrapped, so that building and adding cochains,
# operad elements and matrices counts for the layer that defines them.
CLASS_HOOKS = ("__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__rmul__")

# metric names that differ from the qualified function name
ALIASES = {
    "homology.complex_from_word_basis": "homology.assemble",
    "homology.GradedComplex.validate": "homology.validate",
    "homology.invariant_factors": "homology.reduce",
    **{f"acceptance.criterion_a{i}": f"acceptance.A{i}" for i in range(1, 10)},
}

# coarse calls, recorded as spans; every other wrapper only counts
SPANS = {
    "homology.build_word_complex",
    "homology.assemble",
    "homology.validate",
    "homology.homology",
    "homology.reduce",
    "simplicial.steenrod_square",
    "simplicial.coaction",
    "berger.subcomplex_basis",
    "berger.enumerate_poset",
    "cli.main",
    "acceptance.run_all",
    *(f"acceptance.A{i}" for i in range(1, 10)),
}


def targets():
    """Every wrapped callable as (layer, owning class or None, attribute, metric name).

    A layer's callables are its public module-level functions (those whose
    ``__module__`` is the layer's module) and, for every class it defines,
    the public methods, classmethods, staticmethods and property getters
    plus ``CLASS_HOOKS``.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"seqop.{layer}")
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                for member_name, member in list(vars(value).items()):
                    if member_name.startswith("_") and member_name not in CLASS_HOOKS:
                        continue
                    if isinstance(member, (classmethod, staticmethod, property)) or inspect.isfunction(member):
                        yield layer, value, member_name, f"{layer}.{attr}.{member_name}"
            elif callable(value) and not attr.startswith("_"):
                yield layer, None, attr, f"{layer}.{attr}"


# differentials d_1 .. d_7 are reported one by one; A2 reaches d_7
REDUCE_DEGREES = range(1, 8)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Wraps the seqop layers in place; :meth:`metrics` reads the result."""

    def __init__(self):
        self.stack = [[0.0]]  # one [child seconds] cell per active call
        self.span_ids = [-1]  # active span ids; -1 is the root
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = {}  # name -> [calls, seconds]
        self.self_s = {layer: [0.0] for layer in LAYERS}
        self.words = [0]
        self.matrices: list[tuple] = []  # (degree or None, rows, cols, nnz, seconds)
        self.factor_stats = [0, 0]  # non-unit factors, largest bit length
        self.rss = {"assemble": 0.0, "reduce": 0.0}
        self._degree_of: dict[int, int] = {}
        self.originals: dict[int, str] = {}  # id of each wrapped original -> metric name
        self.t0 = 0.0

    # installation --------------------------------------------------------

    def install(self):
        replace: dict[int, object] = {}
        for layer, owner, attr, name in targets():
            name = ALIASES.get(name, name)
            kind = "span" if name in SPANS else "count"
            if owner is None:
                fn = getattr(sys.modules[f"seqop.{layer}"], attr)
                replace[id(fn)] = self._wrap(fn, name, layer, kind)
                self.originals[id(fn)] = name
                continue
            member = vars(owner)[attr]
            if isinstance(member, property):
                wrapped = property(self._wrap(member.fget, name, layer, kind), member.fset, member.fdel, member.__doc__)
                inner = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, name, layer, kind))
                inner = member.__func__
            else:
                wrapped = self._wrap(member, name, layer, kind)
                inner = member
            setattr(owner, attr, wrapped)  # a method is looked up on its class only
            self.originals[id(inner)] = name
        for mod in self._seqop_modules():
            for key, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, key, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]
        self.skeleton_cache = sys.modules["seqop.simplicial"]._coaction_skeleton
        return self

    @staticmethod
    def _seqop_modules():
        return [mod for name, mod in list(sys.modules.items()) if name == "seqop" or name.startswith("seqop.")]

    def leftovers(self) -> list[str]:
        """Lookup sites that still hold an unwrapped target after :meth:`install`."""
        out = []
        for mod in self._seqop_modules():
            for key, value in vars(mod).items():
                if isinstance(value, dict):
                    held = list(value.values())
                elif isinstance(value, (list, tuple)):
                    held = list(value)
                else:
                    held = [value]
                if isinstance(value, type):
                    held += [getattr(m, "fget", getattr(m, "__func__", m)) for m in vars(value).values()]
                for v in held:
                    if id(v) in self.originals:
                        out.append(f"{mod.__name__}.{key} holds {self.originals[id(v)]}")
        return sorted(set(out))

    def _wrap(self, fn, name, layer, kind):
        stack = self.stack
        stat = self.calls.setdefault(name, [0, 0.0])
        cell = self.self_s[layer]
        depth = [0]
        perf = time.perf_counter
        before, after = self._hooks(name)

        if kind == "count" and before is None and after is None:

            def counted(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                depth[0] += 1
                t = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t
                    stack.pop()
                    stack[-1][0] += dt
                    depth[0] -= 1
                    stat[0] += 1
                    if not depth[0]:
                        stat[1] += dt
                    cell[0] += dt - frame[0]

            counted.__wrapped__ = fn
            return counted

        spans = self.spans
        span_ids = self.span_ids
        record = kind == "span"

        def spanned(*args, **kwargs):
            token = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            if record:
                sid = len(spans)
                spans.append(None)
                parent = span_ids[-1]
                span_ids.append(sid)
            depth[0] += 1
            t = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                dt = t1 - t
                stack.pop()
                stack[-1][0] += dt
                depth[0] -= 1
                stat[0] += 1
                if not depth[0]:
                    stat[1] += dt
                cell[0] += dt - frame[0]
                if record:
                    span_ids.pop()
                    spans[sid] = (sid, parent, name, t - self.t0, t1 - self.t0)
                if after:
                    after(args, result, dt, token)

        spanned.__wrapped__ = fn
        return spanned

    # per-function extras ---------------------------------------------------

    def _hooks(self, name):
        if name == "combinatorics.enumerate_basis":

            def after(args, result, dt, token):
                if result is not None:
                    self.words[0] += len(result)

            return None, after
        if name == "homology.homology":

            def before(args):
                saved = self._degree_of
                self._degree_of = {id(M): d for d, M in args[0].diffs.items()}
                return saved

            def after(args, result, dt, saved):
                self._degree_of = saved
                self.rss["reduce"] = max(self.rss["reduce"], _rss_mb())

            return before, after
        if name == "homology.reduce":

            def after(args, result, dt, token):
                M = args[0]
                self.matrices.append((self._degree_of.get(id(M)), M.rows, M.cols, M.nnz, dt))
                for f in result or ():
                    if abs(f) != 1:
                        self.factor_stats[0] += 1
                    self.factor_stats[1] = max(self.factor_stats[1], abs(f).bit_length())

            return None, after
        if name == "homology.assemble":

            def after(args, result, dt, token):
                self.rss["assemble"] = max(self.rss["assemble"], _rss_mb())

            return None, after
        return None, None

    # running and reading ---------------------------------------------------

    def run(self, job):
        """Call ``job()`` as the root frame and return its result."""
        self.t0 = time.perf_counter()
        result = job()
        self.wall = time.perf_counter() - self.t0
        return result

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        calls = self.calls

        def c(name):
            return calls[name][0]

        def s(name):
            return calls[name][1]

        m["combinatorics.boundary_terms.calls"] = c("combinatorics.boundary_terms")
        m["combinatorics.boundary_terms.s"] = s("combinatorics.boundary_terms")
        m["combinatorics.tau.calls"] = c("combinatorics.tau")
        m["combinatorics.enumerate_basis.words"] = self.words[0]
        m["combinatorics.enumerate_basis.s"] = s("combinatorics.enumerate_basis")
        m["combinatorics.complexity.calls"] = c("combinatorics.complexity")
        m["combinatorics.complexity.s"] = s("combinatorics.complexity")
        for op in ("differential", "act", "compose", "iota", "retract"):
            m[f"operad.{op}.s"] = s(f"operad.{op}")
        m["operad.compose.calls"] = c("operad.compose")

        by_id = {sp[0]: sp for sp in self.spans}
        nested_validate = sum(
            sp[4] - sp[3]
            for sp in self.spans
            if sp[2] == "homology.validate" and sp[1] in by_id and by_id[sp[1]][2] == "homology.assemble"
        )
        m["homology.assemble.s"] = s("homology.assemble") - nested_validate
        m["homology.validate.calls"] = c("homology.validate")
        m["homology.validate.s"] = s("homology.validate")
        m["homology.reduce.s"] = s("homology.reduce")
        per_degree = defaultdict(lambda: [0.0, 0, 0, 0])
        for degree, rows, cols, nnz, dt in self.matrices:
            acc = per_degree[degree]
            acc[0] += dt
            acc[1] += rows
            acc[2] += cols
            acc[3] += nnz
        for q in REDUCE_DEGREES:
            acc = per_degree.get(q, [0.0, 0, 0, 0])
            m[f"homology.reduce.d{q}.s"] = acc[0]
            m[f"homology.reduce.d{q}.rows"] = acc[1]
            m[f"homology.reduce.d{q}.cols"] = acc[2]
            m[f"homology.reduce.d{q}.nnz"] = acc[3]
        m["homology.nonunit_factors"] = self.factor_stats[0]
        m["homology.max_factor_bits"] = self.factor_stats[1]
        m["homology.rss_after_assemble_mb"] = self.rss["assemble"]
        m["homology.rss_after_reduce_mb"] = self.rss["reduce"]

        m["simplicial.evaluate.calls"] = c("simplicial.evaluate")
        m["simplicial.evaluate.s"] = s("simplicial.evaluate")
        m["simplicial.steenrod_square.s"] = s("simplicial.steenrod_square")
        m["simplicial.coaction.s"] = s("simplicial.coaction")
        info = self.skeleton_cache.cache_info()
        m["simplicial.skeleton_cache.hits"] = info.hits
        m["simplicial.skeleton_cache.misses"] = info.misses

        m["hochschild.theta.calls"] = c("hochschild.theta")
        m["hochschild.theta.s"] = s("hochschild.theta")
        m["berger.subcomplex_basis.s"] = s("berger.subcomplex_basis")
        m["berger.enumerate_poset.s"] = s("berger.enumerate_poset")
        m["cli.requests"] = c("cli.main")
        for i in range(1, 10):
            m[f"acceptance.A{i}.s"] = s(f"acceptance.A{i}")

        for layer in LAYERS:
            m[f"{layer}.self.s"] = self.self_s[layer][0]
        m["trace.wall_s"] = self.wall
        m["trace.unattributed_s"] = self.wall - self.stack[0][0]
        return m

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "calls": self.calls,
                    "matrix_fields": ["degree", "rows", "cols", "nnz", "seconds"],
                    "matrices": self.matrices,
                },
                handle,
            )
