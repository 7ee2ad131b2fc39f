"""Per-layer spans and counters, installed from outside the package.

The tracer wraps public module functions and class methods of skewmorph
without editing the package.  A wrapped function is replaced everywhere
the package holds a reference to it, so a call through a re-export such
as ``skewmorph.build_and_verify_example`` is seen as well as one through
``structure_verify.build_and_verify_example``.  A name the package no
longer defines is recorded as absent and its metrics read 0.

Spans record inclusive seconds, self seconds (inclusive minus the time of
directly nested spans) and calls.  Counters record work done at the same
boundaries: rows, bytes, seeds, members.
"""

import functools
import inspect
import os
import sys
import time

# (span name, owner, attribute).  The owner is a module of the package,
# optionally followed by a class name.  "{0}" in a span name is filled
# with the first positional argument of the call.
SPANS = [
    ("fpalg.gl_matrices_array", "fpalg", "gl_matrices_array"),
    ("fpalg.omega_set", "fpalg", "omega_set"),
    ("enumeration.full_enum", "enumeration", "full_enum"),
    ("enumeration.enum_automorphisms", "enumeration", "enum_automorphisms"),
    ("enumeration.enum_nonnormal", "enumeration", "enum_nonnormal_n2"),
    ("enumeration.enum_nonnormal", "enumeration", "enum_nonnormal_n3"),
    ("enumeration.aut_closure", "enumeration", "aut_closure"),
    ("enumeration.brute_force_enum", "enumeration", "brute_force_enum"),
    ("enumeration.compare_sets", "enumeration", "compare_sets"),
    ("kernels.conj_batch", "_kernels", "conj_batch"),
    ("kernels.brute_images", "_kernels", "brute_images"),
    ("kernels.validate_many", "_kernels", "validate_many"),
    ("kernels.validate_images", "_kernels", "validate_images"),
    ("skew_core.extract_skew", "skew_core", "extract_skew"),
    ("skew_core.write_jsonl", "skew_core", "write_jsonl"),
    ("skew_core.read_jsonl", "skew_core", "read_jsonl"),
    ("skew_core.SkewProductGroup", "skew_core.SkewProductGroup", "__init__"),
    ("skew_core.SkewProductGroup.derived_is_abelian",
     "skew_core.SkewProductGroup", "derived_is_abelian"),
    ("structure_verify.sweep_classify", "structure_verify", "sweep_classify"),
    ("structure_verify.classify", "structure_verify", "classify"),
    ("structure_verify.find_affine_embedding", "structure_verify", "find_affine_embedding"),
    ("structure_verify.write_classified_jsonl", "structure_verify", "write_classified_jsonl"),
    ("structure_verify.example.{0}", "structure_verify", "build_and_verify_example"),
    ("group_engine.build_extension", "group_engine", "build_extension"),
    ("group_engine.normal_elem_abelian_subgroups", "group_engine",
     "normal_elem_abelian_subgroups"),
    ("group_engine.has_complement", "group_engine", "has_complement"),
    ("group_engine.FiniteGroup.from_generators", "group_engine.FiniteGroup",
     "from_generators"),
]

PACKAGE = "skewmorph"
EXAMPLES = ("e1", "e2", "e3")


def _span_names():
    names = []
    for name, _, _ in SPANS:
        expanded = [name.format(e) for e in EXAMPLES] if "{0}" in name else [name]
        names += [n for n in expanded if n not in names]
    return names


SPAN_NAMES = _span_names()

# counters fed by the hooks below; validation.per_member is derived
COUNTERS = {
    "enumeration.seeds": "count",
    "kernels.conj_batch.rows": "count",
    "kernels.validate_many.rows": "count",
    "skew_core.write_jsonl.bytes": "bytes",
}


def _count_seeds(c, args, kwargs, result):
    c["enumeration.seeds"] += len(result)


def _count_conj_rows(c, args, kwargs, result):
    c["kernels.conj_batch.rows"] += int(args[0].shape[0])


def _count_validate_rows(c, args, kwargs, result):
    c["kernels.validate_many.rows"] += int(args[2].shape[0])


def _count_jsonl_bytes(c, args, kwargs, result):
    c["skew_core.write_jsonl.bytes"] += os.path.getsize(args[1])


def _count_enum_members(c, args, kwargs, result):
    c["members"] += result.count_total


def _count_read_members(c, args, kwargs, result):
    c["members"] += len(result)


def _count_affine_tried(c, args, kwargs, result):
    c["affine.tried"] += result.tried


# (owner, attribute, hook).  A hook runs after the call returns; hooks on
# a span-wrapped name share its wrapper.  Members count only outermost
# full_enum calls, so method="both" is not counted twice.
HOOKS = [
    ("enumeration", "_canonical_config_seeds", _count_seeds),
    ("_kernels", "conj_batch", _count_conj_rows),
    ("_kernels", "validate_many", _count_validate_rows),
    ("skew_core", "write_jsonl", _count_jsonl_bytes),
    ("enumeration", "full_enum", _count_enum_members),
    ("skew_core", "read_jsonl", _count_read_members),
    ("structure_verify", "find_affine_embedding", _count_affine_tried),
]


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
        units[name + ".calls"] = "count"
    units.update(COUNTERS)
    units["validation.per_member"] = "ratio"
    units["structure_verify.affine.tried"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class _Op:
    """Stats of one traced operation."""

    def __init__(self):
        self.stack = []  # [name, start, child seconds, outermost call]
        self.spans = {n: [0.0, 0.0, 0] for n in SPAN_NAMES}
        self.counts = dict.fromkeys(list(COUNTERS) + ["members", "affine.tried"], 0)


class Tracer:
    def __init__(self):
        self.absent = []
        self._patches = []  # (holder, attribute, original)
        self._op = None
        self._depth = {}  # outermost-call tracking per wrapped function

    # -- installation -------------------------------------------------

    def _resolve(self, owner):
        mod_name, _, cls_name = owner.partition(".")
        mod = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
        if mod is None or not cls_name:
            return mod
        return getattr(mod, cls_name, None)

    def _install(self):
        plan = {}  # (owner, attribute) -> [span name or None, hooks]
        for name, owner, attr in SPANS:
            plan.setdefault((owner, attr), [None, []])[0] = name
        for owner, attr, hook in HOOKS:
            plan.setdefault((owner, attr), [None, []])[1].append(hook)
        self.absent = []
        for (owner, attr), (span, hooks) in plan.items():
            holder = self._resolve(owner)
            if holder is None or attr not in vars(holder):
                self.absent.append("%s.%s" % (owner, attr))
                continue
            raw = inspect.getattr_static(holder, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, hooks))
                self._patch(holder, attr, raw, wrapped)
            elif inspect.isclass(holder):
                self._patch(holder, attr, raw, self._wrap(raw, span, hooks))
            else:
                self._patch_everywhere(raw, self._wrap(raw, span, hooks))

    def _patch(self, holder, attr, original, replacement):
        setattr(holder, attr, replacement)
        self._patches.append((holder, attr, original))

    def _patch_everywhere(self, original, replacement):
        # every module of the package that holds the function, which
        # covers `from .x import f` re-exports and the package namespace
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, replacement)

    def _uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, span, hooks):
        tracer = self
        key = id(fn)
        templated = span is not None and "{0}" in span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            depth = tracer._depth.get(key, 0)
            tracer._depth[key] = depth + 1
            name = span.format(args[0]) if templated else span
            frame = None
            if name is not None:
                frame = [name, time.perf_counter(), 0.0, depth == 0]
                op.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._depth[key] = depth
                if frame is not None:
                    tracer._close(op, frame)
            for hook in hooks:
                if hook is _count_enum_members and depth:
                    continue
                hook(op.counts, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _close(op, frame):
        name, start, child, outermost = frame
        dur = time.perf_counter() - start
        op.stack.pop()
        if op.stack:
            op.stack[-1][2] += dur
        stats = op.spans.setdefault(name, [0.0, 0.0, 0])
        if outermost:
            stats[0] += dur  # a recursive call is already inside this time
        stats[1] += dur - child
        stats[2] += 1

    # -- measuring ----------------------------------------------------

    def start(self):
        """Wrap the package and record one operation."""
        self._install()
        self._op = _Op()

    def stop(self):
        """Restore the package; return the operation's per-layer values."""
        self._uninstall()
        op, self._op = self._op, None
        out = {}
        for name in SPAN_NAMES:
            s, self_s, calls = op.spans[name]
            out[name + ".s"] = s
            out[name + ".self_s"] = self_s
            out[name + ".calls"] = calls
        c = op.counts
        for name in COUNTERS:
            out[name] = c[name]
        validated = c["kernels.validate_many.rows"] + op.spans["kernels.validate_images"][2]
        out["validation.per_member"] = validated / c["members"] if c["members"] else 0.0
        searches = op.spans["structure_verify.find_affine_embedding"][2]
        out["structure_verify.affine.tried"] = c["affine.tried"] / searches if searches else 0.0
        return out
