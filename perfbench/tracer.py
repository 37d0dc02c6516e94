"""Outside tracer: wraps public functions of liepoisson's layers and records
spans (name, start, end, parent, op id) in memory.

Nothing under ``src/`` is edited.  ``install`` replaces every binding site of
each traced function -- the defining module's attribute, the class attribute
for methods, and every ``from .x import f`` copy in another ``liepoisson``
module or the package itself -- and ``uninstall`` puts the originals back.

Three kinds of binding:

  span   timed; self time = duration minus the time of child spans; kept as
         one record per call.
  hot    timed like a span, but called up to hundreds of thousands of times
         per op, so folded per (op, recorded ancestor, name) into
         [calls, total_s, self_s] to keep memory small.
  count  call counter only, no clock; its time stays in the caller's self
         time.  Used where only a count is reported.

Counts are exact and repeat run to run; times include wrapper overhead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPAN, HOT, COUNT = "span", "hot", "count"

BVWG_FUNCTIONS = (
    "build",
    "embed_in_weyl",
    "growth_exponent",
    "invariants",
    "is_simple",
    "make_spec",
    "realize_from_lie",
    "validate",
)

# (module, attribute path, name, kind)
BINDINGS = [
    ("polys", "Poly.__init__", "polys.new", COUNT),
    ("polys", "Poly.__mul__", "polys.mul", HOT),
    ("polys", "Poly.partial", "polys.partial", COUNT),
    ("polys", "Poly.substitute", "polys.substitute", HOT),
    ("polys", "Poly.extend", "polys.extend", COUNT),
    ("polys", "Poly.divide_exact", "polys.divide_exact", COUNT),
    ("linalg", "Echelon.add", "linalg.echelon_add", HOT),
    ("linalg", "nullspace", "linalg.nullspace", SPAN),
    ("linalg", "solve", "linalg.solve", SPAN),
    ("lie", "jordan_holder", "lie.jordan_holder", SPAN),
    ("lie", "verify_lie", "lie.verify_lie", SPAN),
    ("poisson", "PoissonAlgebra.bracket", "poisson.bracket", HOT),
    ("poisson", "PoissonAlgebra.normalize", "poisson.normalize", HOT),
    ("poisson", "SubstitutionIdeal.normal_form", "poisson.normal_form", HOT),
    ("poisson", "PoissonAlgebra.mul", "poisson.mul", COUNT),
    ("poisson", "PoissonAlgebra.add", "poisson.add", COUNT),
    ("poisson", "PoissonAlgebra.partial", "poisson.partial", COUNT),
    ("poisson", "PoissonAlgebra.invert", "poisson.invert", COUNT),
    ("poisson", "poisson_algebra", "poisson.algebra_builds", COUNT),
    ("poisson", "quotient", "poisson.algebra_builds", COUNT),
    ("poisson", "localize", "poisson.algebra_builds", COUNT),
    ("spaces", "kernel_of_operators", "spaces.kernel_of_operators", SPAN),
    ("spaces", "solve_in_span", "spaces.solve_in_span", SPAN),
    ("spaces", "common_denominator_rows", "spaces.common_denominator_rows", HOT),
    ("invariants", "center_up_to_degree", "invariants.center_up_to_degree", SPAN),
    ("invariants", "semi_invariants", "invariants.semi_invariants", SPAN),
    ("invariants", "candidate_weights", "invariants.candidate_weights", COUNT),
    ("decompose", "decompose", "decompose.decompose", SPAN),
    ("decompose", "verify_decomposition", "decompose.verify_decomposition", SPAN),
    ("cli", "run", "cli.run", SPAN),
    ("cli", "_load", "cli.load", SPAN),
] + [("bvwg", fn, f"bvwg.{fn}", SPAN) for fn in BVWG_FUNCTIONS]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("polys.mul.calls", "count"),
    ("polys.mul.self_s", "s"),
    ("polys.new.calls", "count"),
    ("polys.partial.calls", "count"),
    ("polys.partial.zero_ratio", "ratio"),
    ("polys.substitute.calls", "count"),
    ("polys.substitute.self_s", "s"),
    ("polys.substitute.noop_ratio", "ratio"),
    ("polys.extend.calls", "count"),
    ("polys.divide_exact.calls", "count"),
    ("polys.divide_exact.fail_ratio", "ratio"),
    ("linalg.echelon_add.calls", "count"),
    ("linalg.echelon_add.self_s", "s"),
    ("linalg.echelon_add.accept_ratio", "ratio"),
    ("linalg.echelon_add.nnz_in", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.rows_in", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.fail_ratio", "ratio"),
    ("lie.jordan_holder.calls", "count"),
    ("lie.jordan_holder.self_s", "s"),
    ("lie.verify_lie.self_s", "s"),
    ("poisson.bracket.calls", "count"),
    ("poisson.bracket.self_s", "s"),
    ("poisson.normalize.calls", "count"),
    ("poisson.normalize.self_s", "s"),
    ("poisson.normal_form.calls", "count"),
    ("poisson.normal_form.self_s", "s"),
    ("poisson.mul.calls", "count"),
    ("poisson.add.calls", "count"),
    ("poisson.partial.calls", "count"),
    ("poisson.invert.calls", "count"),
    ("poisson.algebra_builds", "count"),
    ("spaces.kernel_of_operators.calls", "count"),
    ("spaces.kernel_of_operators.self_s", "s"),
    ("spaces.kernel_of_operators.basis_in", "count"),
    ("spaces.kernel_of_operators.ops_in", "count"),
    ("spaces.solve_in_span.calls", "count"),
    ("spaces.solve_in_span.self_s", "s"),
    ("spaces.solve_in_span.fail_ratio", "ratio"),
    ("spaces.common_denominator_rows.self_s", "s"),
    ("invariants.center_up_to_degree.calls", "count"),
    ("invariants.center_up_to_degree.self_s", "s"),
    ("invariants.center_up_to_degree.repeat_ratio", "ratio"),
    ("invariants.semi_invariants.self_s", "s"),
    ("invariants.semi_invariants.weights_tried", "count"),
    ("invariants.semi_invariants.hit_ratio", "ratio"),
    ("decompose.decompose.self_s", "s"),
    ("decompose.levels", "count"),
    ("decompose.denominators", "count"),
    ("decompose.verify_decomposition.self_s", "s"),
    ("bvwg.calls", "count"),
    ("bvwg.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.load.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def _algebra_key(alg, d):
    """Content of an algebra and a degree bound, independent of identity."""

    def terms(p):
        return tuple(sorted(p.terms.items()))

    return (
        d,
        alg.vars,
        tuple(sorted((k, terms(v.num), v.den) for k, v in alg.table.items())),
        tuple((v, terms(img)) for v, img in alg.ideal.rules) if alg.ideal else (),
        tuple(terms(s) for s in alg.inverted),
    )


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack = []  # frames: [child_s, span id, recorded ancestor id]
        self.next_id = 0
        self.spans = []  # (id, parent id, name, op, start, end)
        self.folded = defaultdict(lambda: [0, 0.0, 0.0])  # (op, anc, name)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)  # outcome counters, "name:what"
        self._seen_centers = set()
        self._originals = {}  # id(original) -> (original, wrapper)
        self._restore = []  # (owner, attribute, original value)

    # -- op boundaries -------------------------------------------------------

    def start_op(self, op: int):
        self.op = op
        self._seen_centers = set()

    # -- hooks: outcome counters, read outside the span's clock ---------------

    def _before(self, name, args):
        x = self.extra
        if name == "linalg.echelon_add":
            x[name + ":nnz_in"] += len(args[1])
        elif name == "linalg.nullspace":
            x[name + ":rows_in"] += len(args[0])
        elif name == "spaces.kernel_of_operators":
            x[name + ":basis_in"] += len(args[1])
            x[name + ":ops_in"] += len(args[2])
        elif name == "invariants.center_up_to_degree":
            key = _algebra_key(args[0], args[1])
            if key in self._seen_centers:
                x[name + ":repeat"] += 1
            self._seen_centers.add(key)

    def _after(self, name, args, out):
        x = self.extra
        if name == "polys.partial":
            x[name + ":zero"] += not out.terms
        elif name == "polys.substitute":
            x[name + ":noop"] += out is args[0] or out.terms == args[0].terms
        elif name == "polys.divide_exact":
            x[name + ":fail"] += out is None
        elif name == "linalg.echelon_add":
            x[name + ":accept"] += bool(out)
        elif name in ("linalg.solve", "spaces.solve_in_span"):
            x[name + ":fail"] += out is None
        elif name == "invariants.candidate_weights":
            x["invariants.semi_invariants:weights_tried"] += len(out)
        elif name == "invariants.semi_invariants":
            x[name + ":hits"] += len(out.entries)
        elif name == "decompose.decompose":
            x[name + ":levels"] += len(out.trace["levels"])
            x[name + ":denominators"] += len(out.algebra.inverted)

    HOOKED_BEFORE = {
        "linalg.echelon_add",
        "linalg.nullspace",
        "spaces.kernel_of_operators",
        "invariants.center_up_to_degree",
    }
    HOOKED_AFTER = {
        "polys.partial",
        "polys.substitute",
        "polys.divide_exact",
        "linalg.echelon_add",
        "linalg.solve",
        "spaces.solve_in_span",
        "invariants.candidate_weights",
        "invariants.semi_invariants",
        "decompose.decompose",
    }

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, kind):
        calls = self.calls
        before = self._before if name in self.HOOKED_BEFORE else None
        after = self._after if name in self.HOOKED_AFTER else None
        materialize = name == "linalg.nullspace"

        if kind == COUNT:

            def counted(*args, **kw):
                calls[name] += 1
                out = fn(*args, **kw)
                if after:
                    after(name, args, out)
                return out

            return counted

        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        spans = self.spans
        folded = self.folded
        tracer = self
        record = kind == SPAN

        def spanned(*args, **kw):
            if materialize:  # rows may be a one-shot iterable
                args = (list(args[0]),) + args[1:]
            if before:
                before(name, args)
            anc = stack[-1][2] if stack else None
            if record:
                sid = tracer.next_id
                tracer.next_id += 1
                frame = [0.0, sid, sid]
            else:
                frame = [0.0, None, anc]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                calls[name] += 1
                self_s[name] += own
                if record:
                    spans.append((frame[1], anc, name, tracer.op, t0, t1))
                else:
                    f = folded[(tracer.op, anc, name)]
                    f[0] += 1
                    f[1] += dur
                    f[2] += own
            if after:
                after(name, args, out)
            return out

        return spanned

    # -- installing ----------------------------------------------------------

    @staticmethod
    def _package_modules():
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "liepoisson" or n.startswith("liepoisson."))
        ]

    def install(self):
        """Wrap every binding site of every traced function."""
        originals = {}
        for module, path, name, kind in BINDINGS:
            owner = sys.modules[f"liepoisson.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            originals[id(fn)] = (fn, self._wrap(fn, name, kind))
            self._set(owner, attr, originals[id(fn)][1])
        for m in self._package_modules():
            for attr, val in list(vars(m).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(m, attr, hit[1])
        self._originals = originals

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def unwrapped_sites(self) -> list[str]:
        """Binding sites still holding an original: module globals and the
        attributes of classes defined in the package."""
        left = []
        for m in self._package_modules():
            for attr, val in vars(m).items():
                scopes = [(f"{m.__name__}.{attr}", val)]
                if isinstance(val, type) and val.__module__.startswith("liepoisson"):
                    scopes += [
                        (f"{m.__name__}.{attr}.{k}", v) for k, v in vars(val).items()
                    ]
                for where, v in scopes:
                    hit = self._originals.get(id(v))
                    if hit is not None and hit[0] is v:
                        left.append(where)
        return left

    # -- results -------------------------------------------------------------

    def metrics(self, overhead: float) -> dict:
        c, s, x = self.calls, self.self_s, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "polys.mul.calls": c["polys.mul"],
            "polys.mul.self_s": s["polys.mul"],
            "polys.new.calls": c["polys.new"],
            "polys.partial.calls": c["polys.partial"],
            "polys.partial.zero_ratio": ratio(x["polys.partial:zero"], c["polys.partial"]),
            "polys.substitute.calls": c["polys.substitute"],
            "polys.substitute.self_s": s["polys.substitute"],
            "polys.substitute.noop_ratio": ratio(
                x["polys.substitute:noop"], c["polys.substitute"]
            ),
            "polys.extend.calls": c["polys.extend"],
            "polys.divide_exact.calls": c["polys.divide_exact"],
            "polys.divide_exact.fail_ratio": ratio(
                x["polys.divide_exact:fail"], c["polys.divide_exact"]
            ),
            "linalg.echelon_add.calls": c["linalg.echelon_add"],
            "linalg.echelon_add.self_s": s["linalg.echelon_add"],
            "linalg.echelon_add.accept_ratio": ratio(
                x["linalg.echelon_add:accept"], c["linalg.echelon_add"]
            ),
            "linalg.echelon_add.nnz_in": x["linalg.echelon_add:nnz_in"],
            "linalg.nullspace.calls": c["linalg.nullspace"],
            "linalg.nullspace.rows_in": x["linalg.nullspace:rows_in"],
            "linalg.solve.calls": c["linalg.solve"],
            "linalg.solve.fail_ratio": ratio(x["linalg.solve:fail"], c["linalg.solve"]),
            "lie.jordan_holder.calls": c["lie.jordan_holder"],
            "lie.jordan_holder.self_s": s["lie.jordan_holder"],
            "lie.verify_lie.self_s": s["lie.verify_lie"],
            "poisson.bracket.calls": c["poisson.bracket"],
            "poisson.bracket.self_s": s["poisson.bracket"],
            "poisson.normalize.calls": c["poisson.normalize"],
            "poisson.normalize.self_s": s["poisson.normalize"],
            "poisson.normal_form.calls": c["poisson.normal_form"],
            "poisson.normal_form.self_s": s["poisson.normal_form"],
            "poisson.mul.calls": c["poisson.mul"],
            "poisson.add.calls": c["poisson.add"],
            "poisson.partial.calls": c["poisson.partial"],
            "poisson.invert.calls": c["poisson.invert"],
            "poisson.algebra_builds": c["poisson.algebra_builds"],
            "spaces.kernel_of_operators.calls": c["spaces.kernel_of_operators"],
            "spaces.kernel_of_operators.self_s": s["spaces.kernel_of_operators"],
            "spaces.kernel_of_operators.basis_in": x["spaces.kernel_of_operators:basis_in"],
            "spaces.kernel_of_operators.ops_in": x["spaces.kernel_of_operators:ops_in"],
            "spaces.solve_in_span.calls": c["spaces.solve_in_span"],
            "spaces.solve_in_span.self_s": s["spaces.solve_in_span"],
            "spaces.solve_in_span.fail_ratio": ratio(
                x["spaces.solve_in_span:fail"], c["spaces.solve_in_span"]
            ),
            "spaces.common_denominator_rows.self_s": s["spaces.common_denominator_rows"],
            "invariants.center_up_to_degree.calls": c["invariants.center_up_to_degree"],
            "invariants.center_up_to_degree.self_s": s["invariants.center_up_to_degree"],
            "invariants.center_up_to_degree.repeat_ratio": ratio(
                x["invariants.center_up_to_degree:repeat"],
                c["invariants.center_up_to_degree"],
            ),
            "invariants.semi_invariants.self_s": s["invariants.semi_invariants"],
            "invariants.semi_invariants.weights_tried": x[
                "invariants.semi_invariants:weights_tried"
            ],
            "invariants.semi_invariants.hit_ratio": ratio(
                x["invariants.semi_invariants:hits"],
                x["invariants.semi_invariants:weights_tried"],
            ),
            "decompose.decompose.self_s": s["decompose.decompose"],
            "decompose.levels": x["decompose.decompose:levels"],
            "decompose.denominators": x["decompose.decompose:denominators"],
            "decompose.verify_decomposition.self_s": s["decompose.verify_decomposition"],
            "bvwg.calls": sum(c[f"bvwg.{fn}"] for fn in BVWG_FUNCTIONS),
            "bvwg.self_s": sum(s[f"bvwg.{fn}"] for fn in BVWG_FUNCTIONS),
            "cli.run.calls": c["cli.run"],
            "cli.run.self_s": s["cli.run"],
            "cli.load.self_s": s["cli.load"],
            "trace.overhead": overhead,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def counts(self) -> dict:
        """Every exact counter, for comparing two traced runs."""
        out = dict(self.calls)
        out.update(self.extra)
        return dict(sorted(out.items()))

    def dump(self, path: str):
        data = {
            "spans": [
                dict(zip(("id", "parent", "name", "op", "start", "end"), s))
                for s in self.spans
            ],
            "folded": [
                {"op": op, "ancestor": anc, "name": name, "calls": f[0],
                 "total_s": f[1], "self_s": f[2]}
                for (op, anc, name), f in self.folded.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
