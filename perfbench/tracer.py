"""Per-layer tracing of birkhoff2d, installed from outside the package.

`install` wraps the public functions and the constructors of the layer
modules and rebinds every reference to them that the package holds: module
globals bound by `from .fincat import ...`, and tuples inside module-level
dicts such as `factor.FACTOR_SYSTEMS`.  Each wrapped call records a span
(id, name, parent, start, end) in a flat in-memory array; `aggregate` turns
the spans into the per-layer metrics after the timed region, and
`write_spans` writes them out when the process ends.
"""
import itertools
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("fincat", "factor", "kernel", "theory", "birkhoff", "jsonio", "cli")

# Constructors whose calls are counted as objects built.
CONSTRUCTORS = {
    "fincat": ("FinCategory", "Functor", "NatTransformation", "Congruence"),
    "kernel": ("KernelData", "ReflexiveData"),
    "theory": ("Presentation", "Extension", "Algebra", "AlgebraHom"),
}
METHODS = {"jsonio": (("Workspace", "load"),)}

# Leaf evaluators and term helpers, called once per tuple or per subterm.
# Wrapping eval_term_obj/eval_term_mor alone added 272k spans to one pass of
# the variety workload and doubled its time, so they stay unwrapped and their
# time counts as their caller's self time.
LEAVES = frozenset({
    "theory.eval_term_obj", "theory.eval_term_mor", "theory.eval_expr",
    "theory.term_min_arity", "theory.subst_term", "theory.term_to_json",
    "theory.term_from_json", "theory.expr_to_json", "theory.expr_from_json",
})

# Searches counted by distinct arguments; the first two tell them apart.
DISTINCT = ("fincat.enumerate_functors", "fincat.enumerate_nat_transformations",
            "theory.enumerate_algebra_homs")
# Results tallied per wrapped name.
RESULTS = {
    "fincat.enumerate_functors": len,
    "theory.enumerate_algebra_homs": len,
    "birkhoff.enumerate_quotient_algebras": len,
    "birkhoff.algebras_isomorphic": lambda found: found is not None,
}


class Tracer:
    """Span store plus the counts that need arguments or results."""

    def __init__(self):
        self.names = []
        self.spans = array("d")  # flat records: id, name, parent, start, end
        self.stack = [-1]
        self.new_id = itertools.count().__next__
        self.keys = {}
        self.results = {}
        self.originals = {}
        self.bench_ids = {}

    def name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name):
        nid = self.name_id(name)
        stack, new_id, record = self.stack, self.new_id, self.spans.extend
        clock = time.perf_counter
        probe = self._probe(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = new_id()
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, nid, parent, t0, t1))
            if probe is not None:
                probe(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _probe(self, name):
        seen = self.keys.setdefault(name, set()) if name in DISTINCT else None
        size = RESULTS.get(name)
        if size is not None:
            self.results[name] = 0
        elif seen is None:
            return None

        def probe(args, out):
            if seen is not None:
                seen.add(args[:2])
            if size is not None:
                self.results[name] += size(out)
        return probe

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one check."""
        nid = self.bench_ids.get(name)
        if nid is None:
            nid = self.bench_ids[name] = self.name_id(name)
        parent = self.stack[-1]
        sid = self.new_id()
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.extend((sid, nid, parent, t0, t1))


def _targets(modules):
    """(qualified name, owner, attribute) for every callable to wrap."""
    for layer in LAYERS:
        mod = modules["birkhoff2d." + layer]
        for attr, value in sorted(vars(mod).items()):
            qual = "%s.%s" % (layer, attr)
            if (attr.startswith("_") or qual in LEAVES or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != mod.__name__):
                continue
            yield qual, mod, attr
        for cls in CONSTRUCTORS.get(layer, ()):
            yield "%s.%s" % (layer, cls), getattr(mod, cls), "__init__"
        for cls, meth in METHODS.get(layer, ()):
            yield "%s.%s.%s" % (layer, cls, meth), getattr(mod, cls), meth


def install(tracer=None):
    """Wrap every target, rebind every reference the package holds to the
    originals, and return the tracer.  Imports the layer modules first."""
    import importlib
    for layer in LAYERS:
        importlib.import_module("birkhoff2d." + layer)
    tracer = tracer or Tracer()
    modules = sys.modules
    swap = {}
    for qual, owner, attr in list(_targets(modules)):
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, qual)
        tracer.originals[qual] = original
        setattr(owner, attr, wrapped)
        swap[id(original)] = wrapped
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if id(value) in swap:
                setattr(mod, attr, swap[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, tuple) and any(id(x) in swap for x in item):
                        value[key] = tuple(swap.get(id(x), x) for x in item)
                    elif id(item) in swap:
                        value[key] = swap[id(item)]
    return tracer


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "birkhoff2d" or n.startswith("birkhoff2d."))]


def unwrapped_references(tracer):
    """References to an original callable still held by the package; empty
    when `install` rebound everything."""
    originals = {id(fn): qual for qual, fn in tracer.originals.items()}
    left = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            items = [value]
            if isinstance(value, dict):
                for item in value.values():
                    items.extend(item if isinstance(item, tuple) else (item,))
            left.extend("%s.%s -> %s" % (mod.__name__, attr, originals[id(x)])
                        for x in items if id(x) in originals)
    return left


# -- aggregation ---------------------------------------------------------

# Per-layer metrics built from span groups: metric prefix -> wrapped names.
GROUPS = {
    "fincat.compose": ("fincat.compose_functors",),
    "fincat.whisker": ("fincat.whisker",),
    "fincat.enum_functors": ("fincat.enumerate_functors",),
    "fincat.enum_nats": ("fincat.enumerate_nat_transformations",),
    "fincat.saturate": ("fincat.congruence_closure", "fincat.quotient_by_congruence"),
    "factor.ortho": ("factor.check_orthogonal_morphisms", "factor.check_orthogonal_object"),
    "factor.fillins": ("factor.diagonal_fillins",),
    "factor.factorise": ("factor.factor_bof", "factor.factor_bo_ff", "factor.factor_so_ioff"),
    "kernel.universal": ("kernel.verify_kernel_universal",),
    "kernel.coequify": ("kernel.coequify",),
    "theory.satisfies": ("theory.satisfies",),
    "theory.enum_homs": ("theory.enumerate_algebra_homs",),
    "birkhoff.iso": ("birkhoff.algebras_isomorphic",),
    "birkhoff.quotients": ("birkhoff.enumerate_quotient_algebras",),
}
BUILT = {
    "fincat.functors_built": "fincat.Functor",
    "fincat.nats_built": "fincat.NatTransformation",
    "fincat.categories_built": "fincat.FinCategory",
    "fincat.law_checks": "fincat.functor_law_witness",
    "kernel.kernels_built": "kernel.KernelData",
    "theory.algebras_built": "theory.Algebra",
    "theory.homs_built": "theory.AlgebraHom",
    "jsonio.loads": "jsonio.Workspace.load",
}


def aggregate(tracer):
    """Calls, inclusive time and self time per wrapped name, from the spans.

    A span's self time is its time minus the time of its wrapped children.
    A name's inclusive time skips spans whose parent has the same name, so
    direct recursion is not counted twice.
    """
    rec = tracer.spans
    n = len(rec) // 5
    dur = [0.0] * n
    name = [0] * n
    parent = [-1] * n
    for sid, nid, par, t0, t1 in zip(rec[0::5], rec[1::5], rec[2::5], rec[3::5], rec[4::5]):
        sid = int(sid)
        dur[sid] = t1 - t0
        name[sid] = int(nid)
        parent[sid] = int(par)
    child = [0.0] * n
    for sid in range(n):
        if parent[sid] >= 0:
            child[parent[sid]] += dur[sid]
    by_name = {nm: [0, 0.0, 0.0] for nm in tracer.names}
    names = tracer.names
    for sid in range(n):
        row = by_name[names[name[sid]]]
        row[0] += 1
        row[2] += dur[sid] - child[sid]
        par = parent[sid]
        if par < 0 or name[par] != name[sid]:
            row[1] += dur[sid]
    return by_name


def layer_metrics(tracer):
    """The per-layer metrics of one traced process, all counts and seconds."""
    by_name = aggregate(tracer)
    out = {}
    for layer in LAYERS:
        rows = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
        out[layer + ".calls"] = sum(r[0] for r in rows)
        out[layer + ".self_s"] = sum(r[2] for r in rows)
    for prefix, members in GROUPS.items():
        out[prefix + ".calls"] = sum(by_name.get(m, (0, 0.0))[0] for m in members)
        out[prefix + ".s"] = sum(by_name.get(m, (0, 0.0))[1] for m in members)
    for metric, member in BUILT.items():
        out[metric] = by_name.get(member, (0,))[0]
    out["theory.algebra_build_s"] = by_name.get("theory.Algebra", (0, 0.0))[1]
    for prefix, member in (("fincat.enum_functors", "fincat.enumerate_functors"),
                           ("fincat.enum_nats", "fincat.enumerate_nat_transformations"),
                           ("theory.enum_homs", "theory.enumerate_algebra_homs")):
        out[prefix + ".distinct"] = len(tracer.keys.get(member, ()))
    for metric, member in (("fincat.enum_functors.results", "fincat.enumerate_functors"),
                           ("theory.enum_homs.results", "theory.enumerate_algebra_homs"),
                           ("birkhoff.quotients.results", "birkhoff.enumerate_quotient_algebras"),
                           ("birkhoff.iso.found", "birkhoff.algebras_isomorphic")):
        out[metric] = tracer.results.get(member, 0)
    return out


def write_spans(tracer, path, sample):
    """Write the spans as tab-separated rows: id, parent, name, start, end,
    sample (times in seconds of time.perf_counter)."""
    rec = tracer.spans
    names = tracer.names
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart\tend\tsample\n")
        for sid, nid, par, t0, t1 in zip(rec[0::5], rec[1::5], rec[2::5],
                                         rec[3::5], rec[4::5]):
            fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%s\n"
                     % (sid, par, names[int(nid)], t0, t1, sample))
