"""Span recorder around solvsph's public functions, installed from outside.

``Tracer.install`` replaces every target function with a wrapper that
records a span (name, start, end, parent span, job id, and one optional
number taken from the call), in every ``solvsph.*`` namespace that binds the
original.  ``uninstall`` puts every original back.  Spans stay in memory;
``summary`` reduces them to per-layer self times and counts, and
``write_spans`` dumps them when the run ends.

Self time is a span's duration minus the durations of its children.  The
program is single-threaded, so children never overlap and the self times
of a job's spans add up to its root span.  Methods of ``RootSystem`` are not
wrapped (they run millions of times inside ``build_algebra``); their time
counts as self time of the caller, mostly ``chevalley``.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> "module:function" or "module:Class.method" targets
LAYERS = {
    "rootsys": [
        "rootsys:build_root_system",
        "rootsys:positive_root_count",
        "rootsys:fmt_root",
        "rootsys:fmt_weight",
    ],
    "chevalley": [
        "chevalley:build_algebra",
        "chevalley:bracket",
        "chevalley:ChevalleyAlgebra.bracket",
    ],
    "subgroup": ["subgroup:validate", "subgroup:restrict", "subgroup:weight_table"],
    "sphericity": [
        "sphericity:check_spherical",
        "sphericity:active_roots",
        "sphericity:anchor_root",
        "sphericity:subordinate",
        "sphericity:verify_active_axioms",
    ],
    "semigroup": [
        "semigroup:anchor_weights",
        "semigroup:generators",
        "semigroup:decompose",
        "semigroup:bounded_members",
        "semigroup:SemigroupGenerators.decompose",
    ],
    "oracle.realization": ["oracle:build_realization"],
    "oracle.rep_check": ["oracle:representation_property_check"],
    "oracle.irrep": ["oracle:build_irrep", "oracle:weyl_dim"],
    "oracle.kernel": ["oracle:semi_invariant_dim"],
    "oracle.witness": [
        "oracle:semi_invariant_witness",
        "oracle:annihilated_by_nil",
        "oracle:vector_s_weight",
    ],
    "oracle.orbit": ["oracle:open_orbit_check", "oracle:exp_nilpotent"],
    "oracle.enumerate": ["oracle:enumerate_semigroup", "oracle:dominant_weights_up_to"],
    "linalg": [
        "linalg:rref",
        "linalg:rank",
        "linalg:nullspace",
        "linalg:solve",
        "linalg:in_row_span",
        "linalg:smith_diagonal",
        "linalg:is_surjective_over_z",
    ],
    "config": [
        "config:parse_config_text",
        "config:build_subgroup",
        "config:JobConfig.to_text",
        "config:JobConfig.to_json_dict",
        "presets:get_preset",
        "presets:preset_names",
        "presets:preset_description",
    ],
    "cli": [
        "cli:main",
        "cli:load_config",
        "cli:cmd_check",
        "cli:cmd_semigroup",
        "cli:cmd_verify",
        "cli:cmd_presets",
    ],
}
ROOT = "bench:job"  # span the benchmark records around each job


def _rref_entries(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return len(rows) * len(rows[0]) if rows else 0


# target -> function(args, kwargs, result) giving the span's number
INFO = {
    "oracle:build_irrep": lambda a, k, r: r.dim,
    "oracle:semi_invariant_dim": lambda a, k, r: r.dim,
    "oracle:open_orbit_check": lambda a, k, r: int(bool(r)),
    "linalg:rref": _rref_entries,
}


def _resolve(target):
    """(owner object, attribute name, original) or None when missing."""
    module_name, _, attr = target.partition(":")
    module = sys.modules.get(f"solvsph.{module_name}")
    if module is None:
        return None
    owner = module
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = vars(module).get(cls_name)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original) or isinstance(original, type):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layer_of = {t: layer for layer, targets in layers.items() for t in targets}
        self.layer_of[ROOT] = "bench"
        self.spans = []  # [target, start, end, parent index, job, number]
        self.stack = []
        self.job = None
        self.missing = []
        self._patched = []  # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n == "solvsph" or n.startswith("solvsph.")]
        for target in self.layer_of:
            if target == ROOT:
                continue
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, target, fn):
        info = INFO.get(target)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [target, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return wrapper

    def root(self, job, fn):
        """Run fn() as job ``job`` under a root span."""
        self.job = job
        try:
            return self._wrap(ROOT, fn)()
        finally:
            self.job = None

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self, passes):
        """Per-layer metrics, averaged over the traced passes."""
        spans = self.spans
        selfs = self.self_times()
        layer_self = {layer: 0.0 for layer in set(self.layer_of.values())}
        calls = {t: 0 for t in self.layer_of}
        numbers = {t: [] for t in INFO}
        in_orbit = []
        orbit_rank_calls = 0
        for i, (target, _, _, parent, _, number) in enumerate(spans):
            layer_self[self.layer_of[target]] += selfs[i]
            calls[target] += 1
            if target in numbers:
                numbers[target].append(number)
            inside = target == "oracle:open_orbit_check" or (parent >= 0 and in_orbit[parent])
            in_orbit.append(inside)
            if target == "linalg:rank" and inside:
                orbit_rank_calls += 1

        def ratio(values, ok):
            return sum(1 for v in values if ok(v)) / len(values) if values else 0.0

        roots = [s[2] - s[1] for s in spans if s[0] == ROOT]
        per_pass = 1.0 / passes
        m = {f"{layer}.self_s": t * per_pass for layer, t in layer_self.items() if layer != "bench"}
        m.update(
            {
                "oracle.irrep.calls": calls["oracle:build_irrep"] * per_pass,
                "oracle.irrep.dim_sum": sum(numbers["oracle:build_irrep"]) * per_pass,
                "oracle.kernel.calls": calls["oracle:semi_invariant_dim"] * per_pass,
                "oracle.kernel.useful_ratio": ratio(numbers["oracle:semi_invariant_dim"], lambda d: d >= 1),
                "oracle.realization.calls": calls["oracle:build_realization"] * per_pass,
                "oracle.rep_check.calls": calls["oracle:representation_property_check"] * per_pass,
                "oracle.orbit.calls": calls["oracle:open_orbit_check"] * per_pass,
                "oracle.orbit.witnessed_ratio": ratio(numbers["oracle:open_orbit_check"], bool),
                "oracle.orbit.rank_calls": orbit_rank_calls * per_pass,
                "chevalley.algebras": calls["chevalley:build_algebra"] * per_pass,
                "chevalley.brackets": calls["chevalley:ChevalleyAlgebra.bracket"] * per_pass,
                "subgroup.validations": calls["subgroup:validate"] * per_pass,
                "semigroup.decompositions": calls["semigroup:SemigroupGenerators.decompose"] * per_pass,
                "linalg.rref_calls": calls["linalg:rref"] * per_pass,
                "linalg.rref_entries": sum(numbers["linalg:rref"]) * per_pass,
                "trace.unattributed_ratio": layer_self["bench"] / sum(roots) if roots else 0.0,
            }
        )
        return m, sum(roots) * per_pass

    def write_spans(self, path):
        """Tab-separated spans: target, start, end, parent index, job, number."""
        with open(path, "w") as fh:
            fh.write("target\tstart\tend\tparent\tjob\tnumber\n")
            for target, start, end, parent, job, number in self.spans:
                fh.write(f"{target}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t{'' if number is None else number}\n")
