"""Spans around calls into vveis, recorded from outside the package.

``install`` wraps the public functions named in ``TARGETS`` (and two
methods) and rebinds every module-level name in ``vveis.*`` that refers to
the original object, so copies made by ``from .x import f`` are traced as
well.  ``uninstall`` puts every original back.  Spans are kept in memory as
``[name, start, end, parent, tag]`` lists; ``layer_metrics`` turns them into
the per-layer numbers.  lru caches are only read (``cache_info``), never
cleared.
"""

import sys
from contextlib import contextmanager
from functools import wraps
from statistics import median
from time import perf_counter


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _tag_gauss(*args, **kwargs):
    p, w = int(_arg(args, kwargs, 3, "p")), int(_arg(args, kwargs, 4, "w"))
    return {"w": w, "residues": p ** w}


def _tag_naive(*args, **kwargs):
    lattice, a = args[0], int(_arg(args, kwargs, 3, "a"))
    return {"residues": a ** lattice.rank}


def _tag_trunc(*args, **kwargs):
    return {"trunc": float(_arg(args, kwargs, 1, "trunc"))}


def _tag_disc(*args, **kwargs):
    return {"d": _arg(args, kwargs, 0, "disc").size}


def _tag_weil(*args, **kwargs):
    return {"d": _arg(args, kwargs, 0, "w").disc.size}


# (module, attribute, span name, tag function)
TARGETS = (
    ("vveis.repnums", "count_gauss", "repnums.count_gauss", _tag_gauss),
    ("vveis.repnums", "count_naive", "repnums.count_naive", _tag_naive),
    ("vveis.repnums", "count", "repnums.count", None),
    ("vveis.lattice", "discriminant_form", "lattice.discriminant_form", None),
    ("vveis.lattice", "t_mu", "lattice.t_mu", None),
    ("vveis.lattice", "coset_represents", "lattice.coset_represents", None),
    ("vveis.lattice", "theta_counts", "lattice.theta_counts", None),
    ("vveis.lattice", "witt_rank_bounded", "lattice.witt_rank_bounded", None),
    ("vveis.linalg", "smith_normal_form", "linalg.smith_normal_form", None),
    ("vveis.arith", "l_value_exact", "arith.l_value_exact", None),
    ("vveis.arith", "factorize", "arith.factorize", None),
    ("vveis.eisenstein", "eis_coefficient", "eisenstein.eis_coefficient", None),
    ("vveis.eisenstein", "eis_expansion", "eisenstein.eis_expansion", _tag_trunc),
    ("vveis.weilrep", "weil_matrices", "weilrep.weil_matrices", _tag_disc),
    ("vveis.weilrep", "verify_relations", "weilrep.verify_relations", _tag_weil),
    ("vveis.weilrep", "is_unitary", "weilrep.is_unitary", None),
    ("vveis.weilrep", "invariants", "weilrep.invariants", None),
    ("vveis.qseries", "delta_power", "qseries.delta_power", None),
    ("vveis.borcherds", "build_h", "borcherds.build_h", None),
    ("vveis.borcherds", "decompose", "borcherds.decompose", None),
    ("vveis.borcherds", "prescribe", "borcherds.prescribe", None),
    ("vveis.borcherds", "vanish_on", "borcherds.vanish_on", None),
    ("vveis.borcherds", "check_admissible", "borcherds.check_admissible", None),
    ("vveis.formats", "canonical_json", "formats.canonical_json", None),
)

# (module, class, method, span name)
METHODS = (
    ("vveis.lattice", "EvenLattice", "__init__", "lattice.EvenLattice"),
    ("vveis.qseries", "VVQSeries", "mul_delta_pow", "qseries.mul_delta_pow"),
)

CACHES = (
    ("vveis.repnums", "_jordan_exact", "repnums.jordan_cache"),
    ("vveis.lattice", "discriminant_form", "lattice.discriminant_form"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._caches = {}  # metric prefix -> the lru-cached function
        self._cache_start = {}
        self._cache_dropped = {}
        self.cache_deltas = {}

    @contextmanager
    def span(self, name, tag=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, tag=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, tag(*args, **kwargs) if tag else None):
                return fn(*args, **kwargs)
        return traced

    def _wrap_cached_text(self, fn):
        @wraps(fn)
        def traced(cfg, key_doc, produce, warn=None):
            with self.span("cli.cached_text", {"miss": 0}) as rec:
                def counted():
                    rec[4]["miss"] = 1
                    return produce()
                return fn(cfg, key_doc, counted, warn)
        return traced

    def install(self):
        """Wrap every target at every vveis import site."""
        self._caches = {name: getattr(sys.modules[mod], attr) for mod, attr, name in CACHES}
        self._cache_start = {name: _cache_counts(fn) for name, fn in self._caches.items()}
        self._cache_dropped = {name: (0, 0) for name in self._caches}
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "vveis" or n.startswith("vveis."))]
        plan = [(sys.modules[mod], attr, self.wrap(name, getattr(sys.modules[mod], attr), tag))
                for mod, attr, name, tag in TARGETS]
        if "vveis.cli" in sys.modules:
            cli = sys.modules["vveis.cli"]
            plan.append((cli, "cached_text", self._wrap_cached_text(cli.cached_text)))
        for owner, attr, new in plan:
            orig = getattr(owner, attr)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._patches.append((m, key, orig))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig))
            self._patches.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        for name, fn in self._caches.items():
            (h, m), (h0, m0), (hd, md) = (_cache_counts(fn), self._cache_start[name],
                                          self._cache_dropped[name])
            self.cache_deltas[name] = (h - h0 - hd, m - m0 - md)

    def mark(self):
        return (len(self.spans), len(self._stack),
                {name: _cache_counts(fn) for name, fn in self._caches.items()})

    def drop_since(self, mark):
        """Forget the spans and cache lookups of a job that failed part-way.

        Where a budget stops a job depends on the machine's speed; dropping
        its partial work keeps the counts exact from run to run.
        """
        n, depth, before = mark
        del self.spans[n:]
        del self._stack[depth:]  # a span the budget cut short may not have closed
        for name, fn in self._caches.items():
            (h, m), (h0, m0), (hd, md) = (_cache_counts(fn), before[name],
                                          self._cache_dropped[name])
            self._cache_dropped[name] = (hd + h - h0, md + m - m0)


def _cache_counts(fn):
    info = fn.cache_info()
    return info.hits, info.misses


def dump(tracer):
    """JSON-ready form of a tracer's spans and cache deltas."""
    return {"spans": tracer.spans, "caches": tracer.cache_deltas}


# per-layer metric name -> (unit, better); the order is the report order
PER_LAYER = (
    ("repnums.count_gauss.calls", "count", "lower"),
    ("repnums.count_gauss.s", "s", "lower"),
    ("repnums.count_gauss.residues", "count", "lower"),
    *((f"repnums.count_gauss.s.w{w}", "s", "lower") for w in range(9, 16)),
    ("repnums.count_naive.calls", "count", "lower"),
    ("repnums.count_naive.s", "s", "lower"),
    ("repnums.count_naive.residues", "count", "lower"),
    ("repnums.count.calls", "count", "lower"),
    ("repnums.jordan_cache.hit_ratio", "ratio", "higher"),
    ("lattice.discriminant_form.s", "s", "lower"),
    ("lattice.discriminant_form.hit_ratio", "ratio", "higher"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.s", "s", "lower"),
    ("lattice.EvenLattice.calls", "count", "lower"),
    ("lattice.EvenLattice.s", "s", "lower"),
    ("lattice.t_mu.calls", "count", "lower"),
    ("lattice.t_mu.s", "s", "lower"),
    ("lattice.coset_represents.calls", "count", "lower"),
    ("lattice.coset_represents.s", "s", "lower"),
    ("lattice.theta_counts.s", "s", "lower"),
    ("lattice.witt_rank_bounded.s", "s", "lower"),
    ("arith.l_value_exact.calls", "count", "lower"),
    ("arith.l_value_exact.s", "s", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.s", "s", "lower"),
    ("eisenstein.eis_coefficient.calls", "count", "lower"),
    ("eisenstein.eis_coefficient.self_s", "s", "lower"),
    ("eisenstein.eis_expansion.s.t4", "s", "lower"),
    ("eisenstein.eis_expansion.s.t8", "s", "lower"),
    ("eisenstein.eis_expansion.s.t16", "s", "lower"),
    *((f"weilrep.{fn}.s.d{d}", "s", "lower")
      for fn in ("weil_matrices", "verify_relations") for d in (8, 16, 32)),
    ("weilrep.is_unitary.s", "s", "lower"),
    ("weilrep.invariants.s", "s", "lower"),
    ("qseries.delta_power.calls", "count", "lower"),
    ("qseries.delta_power.s", "s", "lower"),
    ("qseries.mul_delta_pow.s", "s", "lower"),
    *((f"borcherds.{fn}.s", "s", "lower") for fn in
      ("build_h", "decompose", "prescribe", "vanish_on", "check_admissible")),
    ("formats.canonical_json.s", "s", "lower"),
    ("cli.cached_text.hits", "count", "higher"),
    ("cli.cached_text.misses", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _trunc_bucket(trunc):
    """eis_expansion truncation bucket: t4 = (0, 4], t8 = (4, 8], t16 = (8, 16]."""
    for top in (4, 8, 16):
        if trunc <= top:
            return f"t{top}"
    return None


def layer_metrics(dumps, import_times=(), overhead_frac=0.0):
    """Aggregate span dumps (one per traced process) into PER_LAYER values.

    Busy time (``.s``) counts each span whose ancestors carry another name,
    so a recursive call is not counted twice; ``self_s`` subtracts the
    direct children of each span.
    """
    acc = {}
    cache_hits = {}

    def add(key, val):
        acc[key] = acc.get(key, 0) + val

    for doc in dumps:
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, tag) in enumerate(spans):
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child_time[i])
            p, nested = parent, False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                add(f"{name}.s", dur)
            tag = tag or {}
            if "residues" in tag:
                add(f"{name}.residues", tag["residues"])
            if "w" in tag:
                add(f"{name}.s.w{tag['w']}", dur)
            if "trunc" in tag and _trunc_bucket(tag["trunc"]):
                add(f"{name}.s.{_trunc_bucket(tag['trunc'])}", dur)
            if "d" in tag:
                add(f"{name}.s.d{tag['d']}", dur)
            if "miss" in tag:
                add("cli.cached_text.misses" if tag["miss"] else "cli.cached_text.hits", 1)
        for name, (hits, misses) in doc["caches"].items():
            h, m = cache_hits.get(name, (0, 0))
            cache_hits[name] = (h + hits, m + misses)
    for name, (hits, misses) in cache_hits.items():
        acc[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    acc["cli.import_s"] = median(import_times) if import_times else 0.0
    acc["trace.overhead_frac"] = overhead_frac
    return {name: (acc.get(name, 0), unit) for name, unit, _ in PER_LAYER}
