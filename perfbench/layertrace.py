"""Per-layer tracing of paraclasses from outside the library.

`install()` wraps the public functions of each module in place and returns
the `Tracer` that collects their spans.  A function imported by name into
another module is a second binding of the same object, so every binding of
it in every loaded paraclasses module is replaced, not only the defining
one (conjugacy binds enumerate_orbits, reduce_levi_pair and lift;
matrix_problem binds orbit_partition and orbit_closure; cli binds names
from both).  Generator functions get one span per resumption, so the time
a consumer spends between two items is not charged to the generator.

Spans nest.  A span's self time is its duration minus the part of it that
its child spans cover; the self times of all spans then add up to the
duration of the root spans, which are the timed calls.  Spans are folded
into per-function totals as they close, so memory stays flat however many
calls a query makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


class Frame:
    """An open span.  Children close in start order (one thread), so the
    union of their intervals grows at its right end only."""

    __slots__ = ("name", "start", "covered", "last_end", "kids")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.covered = 0.0
        self.last_end = start
        self.kids = defaultdict(int)  # child span name -> spans closed

    def add_child(self, start: float, end: float) -> None:
        lo = max(start, self.last_end)
        if end > lo:
            self.covered += end - lo
        self.last_end = max(self.last_end, end)

    def self_time(self, end: float) -> float:
        return (end - self.start) - self.covered


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.root_s = 0.0
        self.stats = defaultdict(lambda: defaultdict(float))

    def enter(self, name: str) -> Frame:
        fr = Frame(name, self.clock())
        self.stack.append(fr)
        return fr

    def exit(self, fr: Frame) -> None:
        end = self.clock()
        popped = self.stack.pop()
        assert popped is fr, "spans closed out of order"
        st = self.stats[fr.name]
        st["spans"] += 1
        st["self_s"] += fr.self_time(end)
        if self.stack:
            parent = self.stack[-1]
            parent.add_child(fr.start, end)
            parent.kids[fr.name] += 1
        else:
            self.root_s += end - fr.start

    def parent_name(self):
        return self.stack[-1].name if self.stack else None

    def summary(self) -> dict:
        return {"root_s": self.root_s,
                "stats": {k: dict(v) for k, v in self.stats.items()}}


def wrap(tracer: Tracer, name: str, fn, on_exit=None):
    """fn with a span around each call (each resumption for a generator
    function).  on_exit(tracer, frame, args, result) records counters."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.stats[name]["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                fr = tracer.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.exit(fr)
                tracer.stats[name]["items"] += 1
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fr = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(fr)
        tracer.stats[name]["calls"] += 1
        if on_exit is not None:
            on_exit(tracer, fr, args, result)
        return result
    return wrapper


# -- counters recorded at the layer boundaries --------------------------------

def _is_irreducible(tr, fr, args, result):
    if tr.parent_name() != "gf.irreducibles":
        tr.stats[fr.name]["calls_outside_irreducibles"] += 1


def _orbit_count_cached(tr, fr, args, result):
    if "matrix_problem.enumerate_orbits" not in fr.kids:
        tr.stats[fr.name]["memo_hits"] += 1


def _count_poly(tr, fr, args, result):
    tr.stats[fr.name]["samples"] += fr.kids["conjugacy.parabolic_class_count"]


def _reduce_levi_pair(tr, fr, args, result):
    tr.stats[fr.name]["problems"] += len(result)


def _packed_actions(tr, fr, args, result):
    if "centralizer.reduced_action_generators" not in fr.kids:
        tr.stats[fr.name]["hits"] += 1


def _enumerate_orbits(tr, fr, args, result):
    st = tr.stats[fr.name]
    st["states"] += result.shape.field.order ** result.shape.dim
    st["orbits"] += result.count


def _orbit_partition(tr, fr, args, result):
    from paraclasses.kernels import kernel_choice
    pa = args[0]
    space = pa.space()
    st = tr.stats[fr.name]
    st["states"] += space
    st["seeds"] += len(result[0])
    # bitset of visited states, plus the 32-bit stack the numba kernel uses
    st["bytes_computed"] += 8 * ((space + 63) >> 6)
    if kernel_choice() == "numba":
        st["bytes_computed"] += 4 * space


def _orbit_closure(tr, fr, args, result):
    tr.stats[fr.name]["states"] += result[1]


# (module, function) -> counter hook; every public entry point of a layer
TARGETS = {
    ("gf", "irreducibles"): None,
    ("gf", "is_irreducible"): _is_irreducible,
    ("jordan", "enumerate_gjnf"): None,
    ("jordan", "assemble"): None,
    ("conjugacy", "levi_reps"): None,
    ("conjugacy", "parabolic_class_count"): None,
    ("conjugacy", "orbit_count_cached"): _orbit_count_cached,
    ("conjugacy", "count_poly"): _count_poly,
    ("conjugacy", "parabolic_class_reps"): None,
    ("conjugacy", "class_rep_to_json"): None,
    ("cocentralizer", "reduce_levi_pair"): _reduce_levi_pair,
    ("cocentralizer", "lift"): None,
    ("centralizer", "reduced_action_generators"): None,
    ("matrix_problem", "packed_actions"): _packed_actions,
    ("matrix_problem", "enumerate_orbits"): _enumerate_orbits,
    ("matrix_problem", "canonical_form"): None,
    ("kernels", "orbit_partition"): _orbit_partition,
    ("kernels", "orbit_closure"): _orbit_closure,
    ("cli", "run"): None,
}

# Bindings by name that a traced run must reach; install() fails if one of
# them still points at the unwrapped function.
REQUIRED_BINDINGS = [
    ("conjugacy", "enumerate_orbits"), ("conjugacy", "reduce_levi_pair"),
    ("conjugacy", "lift"), ("conjugacy", "enumerate_gjnf"),
    ("matrix_problem", "orbit_partition"), ("matrix_problem", "orbit_closure"),
    ("matrix_problem", "reduced_action_generators"),
    ("cli", "parabolic_class_count"), ("cli", "parabolic_class_reps"),
    ("cli", "count_poly"), ("cli", "class_rep_to_json"),
    ("cli", "enumerate_orbits"),
]


def install(tracer: Tracer | None = None) -> Tracer:
    """Wrap every target at every binding in the loaded paraclasses modules."""
    tracer = tracer or Tracer()
    for mod, _ in TARGETS:
        importlib.import_module(f"paraclasses.{mod}")
    modules = [m for k, m in sys.modules.items()
               if k == "paraclasses" or k.startswith("paraclasses.")]
    wrappers = set()
    for (mod, fn_name), hook in TARGETS.items():
        orig = getattr(sys.modules[f"paraclasses.{mod}"], fn_name)
        wrapped = wrap(tracer, f"{mod}.{fn_name}", orig, hook)
        wrappers.add(wrapped)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)
    for mod, attr in REQUIRED_BINDINGS:
        if getattr(sys.modules[f"paraclasses.{mod}"], attr) not in wrappers:
            raise RuntimeError(f"paraclasses.{mod}.{attr} was not wrapped")
    return tracer


# -- per-layer metrics ---------------------------------------------------------

_C, _S = ("count", "lower"), ("s", "lower")
# name -> (unit, better); names are <module>.<function>.<quantity>
METRICS = {
    "gf.irreducibles.calls": _C, "gf.irreducibles.self_s": _S,
    "gf.is_irreducible.calls": _C, "gf.is_irreducible.self_s": _S,
    "gf.is_irreducible.calls_outside_irreducibles": _C,
    "jordan.enumerate_gjnf.forms": _C, "jordan.enumerate_gjnf.self_s": _S,
    "jordan.assemble.calls": _C, "jordan.assemble.self_s": _S,
    "conjugacy.levi_reps.pairs": _C, "conjugacy.levi_reps.self_s": _S,
    "conjugacy.parabolic_class_count.calls": _C,
    "conjugacy.parabolic_class_count.self_s": _S,
    "conjugacy.orbit_count_cached.calls": _C,
    "conjugacy.orbit_count_cached.memo_hit_frac": ("ratio", "higher"),
    "conjugacy.orbit_count_cached.self_s": _S,
    "conjugacy.count_poly.samples": _C, "conjugacy.count_poly.self_s": _S,
    "conjugacy.parabolic_class_reps.reps": _C,
    "conjugacy.parabolic_class_reps.self_s": _S,
    "conjugacy.class_rep_to_json.self_s": _S,
    "cocentralizer.reduce_levi_pair.calls": _C,
    "cocentralizer.reduce_levi_pair.problems": _C,
    "cocentralizer.reduce_levi_pair.self_s": _S,
    "cocentralizer.lift.calls": _C, "cocentralizer.lift.self_s": _S,
    "centralizer.reduced_action_generators.calls": _C,
    "centralizer.reduced_action_generators.self_s": _S,
    "matrix_problem.packed_actions.calls": _C,
    "matrix_problem.packed_actions.hit_frac": ("ratio", "higher"),
    "matrix_problem.packed_actions.self_s": _S,
    "matrix_problem.enumerate_orbits.calls": _C,
    "matrix_problem.enumerate_orbits.states": _C,
    "matrix_problem.enumerate_orbits.orbits": _C,
    "matrix_problem.enumerate_orbits.self_s": _S,
    "matrix_problem.canonical_form.calls": _C,
    "matrix_problem.canonical_form.self_s": _S,
    "kernels.orbit_partition.calls": _C, "kernels.orbit_partition.states": _C,
    "kernels.orbit_partition.seeds": _C, "kernels.orbit_partition.self_s": _S,
    "kernels.orbit_partition.states_per_s": ("1/s", "higher"),
    # computed from the bitset and stack sizes, not measured
    "kernels.orbit_partition.bytes_computed": ("B", "lower"),
    "kernels.orbit_closure.calls": _C, "kernels.orbit_closure.states": _C,
    "kernels.orbit_closure.self_s": _S,
    "cli.run.self_s": _S,
    "trace.batch_s": _S,
    "trace.overhead": ("ratio", "lower"),
}
_ITEMS = {"forms", "pairs", "reps"}  # items a generator yielded
_RATIOS = {"memo_hit_frac": ("memo_hits", "calls"), "hit_frac": ("hits", "calls"),
           "states_per_s": ("states", "self_s")}


def layer_metrics(totals: dict, rounds: int, root_s: float, traced_s: float,
                  untraced_s: float) -> dict:
    """METRICS per traced round from span totals summed over the rounds.

    Raises when the self times do not add up to the root spans' time."""
    self_sum = sum(st.get("self_s", 0.0) for st in totals.values())
    if abs(self_sum - root_s) > 1e-6 * max(1.0, root_s):
        raise AssertionError(f"self times {self_sum} != root spans {root_s}")
    out = {}
    for name in METRICS:
        fn, _, key = name.rpartition(".")
        st = totals.get(fn, {})
        if fn == "trace":
            out[name] = traced_s / rounds if key == "batch_s" else traced_s / untraced_s
        elif key in _RATIOS:
            num, den = _RATIOS[key]
            out[name] = st.get(num, 0.0) / st[den] if st.get(den) else 0.0
        else:
            out[name] = st.get("items" if key in _ITEMS else key, 0.0) / rounds
    return out
