"""Outside-in tracer: wraps the package's layer functions without editing it.

Each listed function is replaced, by identity, in every ``hyperlie.*``
module namespace that holds it: ``cli``, ``analysis`` and the package
``__init__`` bind their own references through ``from .relations import
...``, so patching only the defining module would miss their calls.
``SetOps.apply`` is counted, not spanned, because it runs millions of times
in one engine job. Everything is restored by ``uninstall``.

A listed function that no longer exists is recorded as absent and reported
as zero, so refactors that delete one leave the benchmark running.
"""

from __future__ import annotations

import functools
import itertools
import sys

LAYER_FUNCTIONS = {
    "relations": (
        "closed_relation", "relation_with_escalation", "relation_Sn", "relation_A",
        "relation_L", "relation_L_values", "relation_alpha", "sn_pair_levels",
        "coefficient_pair_family", "summand_pair_family", "combine_levels",
        "transitive_closure", "is_strongly_regular",
    ),
    "structures": ("check_lie_hyperalgebra", "check_hyperfield"),
    "interchange": ("parse_structure", "serialize_structure"),
    "generators": ("gen_trivial_from_lie", "gen_orbit_quotient"),
    "quotients": ("quotient_lie_algebra", "solvable_length", "linear_oracle_partition",
                  "detect_trivial"),
    "analysis": ("is_Sn_part", "is_transitive_Sn", "relation_S",
                 "lemma_equivalence_check", "smallest_solvable_oracle"),
    "cli": ("main",),
}

SPANNED = [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]
APPLY = "sets.SetOps.apply.calls"

# Counts taken from a function's return value (or, for the closure, its
# argument): metric name -> (function, extractor).
_RESULT_COUNTS = {
    "relations.coefficient_pair_family.pairs":
        ("relations.coefficient_pair_family", lambda args, res: len(res)),
    "relations.summand_pair_family.pairs":
        ("relations.summand_pair_family", lambda args, res: len(res)),
    "relations.combine_levels.pairs":
        ("relations.combine_levels", lambda args, res: sum(len(lvl) for lvl in res)),
    "relations.relation_pairs":
        ("relations.transitive_closure", lambda args, res: args[0].pair_count),
    "relations.transitive_closure.classes":
        ("relations.transitive_closure", lambda args, res: res.num_classes),
}
_RELATION_BUILDERS = {"relations.relation_Sn", "relations.relation_A",
                      "relations.relation_L", "relations.relation_alpha"}

COUNT_METRICS = [APPLY, *_RESULT_COUNTS, "relations.closed_relation.hit_ratio",
                 "relations.relation_with_escalation.rungs"]


class Tracer:
    """In-memory spans (name, start, end, parent index, job id) and counts,
    timed by ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counts = dict.fromkeys(_RESULT_COUNTS, 0)
        self.absent = []
        self.job = None
        self._stack = []
        self._patches = []
        self._apply_counter = None

    # ---------------------------------------------------------- install

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hyperlie" or name.startswith("hyperlie."))]
        for qualname in SPANNED:
            mod, fn = qualname.split(".")
            home = sys.modules.get(f"hyperlie.{mod}")
            orig = getattr(home, fn, None)
            if not callable(orig):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        self._count_apply()

    def _count_apply(self):
        setops = getattr(sys.modules.get("hyperlie.sets"), "SetOps", None)
        orig = getattr(setops, "__dict__", {}).get("apply")
        if orig is None:
            self.absent.append(APPLY)
            return
        self._apply_counter = itertools.count()
        tick = self._apply_counter.__next__

        @functools.wraps(orig)
        def apply(self_, a_mask, b_mask):
            tick()
            return orig(self_, a_mask, b_mask)

        self._patches.append((setops, "apply", orig))
        setops.apply = apply

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def _wrap(self, qualname, orig):
        spans = self.spans
        stack = self._stack
        hooks = [(metric, extract) for metric, (fn, extract) in _RESULT_COUNTS.items()
                 if fn == qualname]
        counts = self.counts
        clock = self.clock

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qualname, start, end, parent, self.job)
            for metric, extract in hooks:
                try:
                    counts[metric] += extract(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # changed signature or return shape: counted as 0
            return result

        return wrapper

    # ---------------------------------------------------------- report

    def metrics(self):
        """Per-function calls, total and self seconds, plus the counts."""
        out = {}
        for name in SPANNED:
            out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        child_time = [0.0] * len(self.spans)
        children = [[] for _ in self.spans]
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        hits = lookups = rungs = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if name == "relations.closed_relation":
                lookups += 1
                if not any(self.spans[c][0] in _RELATION_BUILDERS for c in children[i]):
                    hits += 1
                if parent >= 0 and self.spans[parent][0] == "relations.relation_with_escalation":
                    rungs += 1
        flat = {}
        for name, entry in out.items():
            for key, value in entry.items():
                flat[f"{name}.{key}"] = value
        flat[APPLY] = next(self._apply_counter) if self._apply_counter else 0
        flat.update(self.counts)
        flat["relations.closed_relation.hit_ratio"] = hits / lookups if lookups else 0.0
        flat["relations.relation_with_escalation.rungs"] = rungs
        return flat

    def dump(self):
        return {
            "absent": self.absent,
            "spans": [list(s) for s in self.spans],
        }
