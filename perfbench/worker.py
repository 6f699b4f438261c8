"""One benchmark query in a fresh interpreter.

Usage: python3 perfbench/worker.py '<query json>'

The query is a JSON object, one of
  {"kind": "env"}                      report the environment, run nothing
  {"kind": "cli", "argv": [...]}       paraclasses.cli.run(argv)
  {"kind": "canonical", "mu": [...], "nu": [...], "q": Q, "rep": STATE,
   "walk": SEED, "steps": N}           canonical_form of a seeded random
                                       element of the orbit of STATE
plus an optional "trace": true, which wraps the library's public functions
(see perfbench/layertrace.py) before the timed call.

The import of paraclasses is timed as setup; only the query's own call is
timed as the call.  The reference loops of perfbench/speedref.py run
around the call, to measure the machine's speed at the time; peak RSS is
read before the sweep-shaped one allocates.  CLI output is captured in
memory and summarised by its SHA-256 and line count.  One JSON line goes
to stdout.  The interpreter is fresh, so every cache in the library starts
cold, as for a CLI user.
"""

import time

_T0 = time.perf_counter()
import paraclasses  # noqa: E402
import paraclasses.cli  # noqa: E402
_SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speedref  # noqa: E402  (beside this script, on sys.path[0])


def _environment() -> dict:
    import platform

    import numpy

    from paraclasses import kernels
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": have_numba,
            "kernel": kernels.kernel_choice()}


def _walk(q: dict):
    """A seeded random element of the orbit of q["rep"]: the rep moved by
    q["steps"] random generators of the two unit groups.  Every element of
    one orbit costs the same to canonicalise, so the seed changes the input
    but not the work."""
    from paraclasses.centralizer import reduced_action_generators
    from paraclasses.cocentralizer import CocentShape, act_left, act_right
    from paraclasses.gf import ff_order
    from paraclasses.matrix_problem import decode

    field = ff_order(q["q"])
    shape = CocentShape(tuple(q["mu"]), tuple(q["nu"]), field)
    rep = decode(q["rep"], shape)
    left = reduced_action_generators(shape.mu, field)
    right = reduced_action_generators(shape.nu, field)
    rng = random.Random(q["walk"])
    v = rep
    for _ in range(q["steps"]):
        if rng.random() < 0.5:
            v = act_left(rng.choice(left), v)
        else:
            v = act_right(v, rng.choice(right))
    return rep, v


def _check_canonical(rep, v, cf) -> str:
    """Empty when the canonical form of v is the orbit's known minimum and
    passes both invariants; otherwise what failed."""
    from paraclasses import matrix_problem
    if cf != rep:
        return "canonical form is not the orbit minimum"
    if matrix_problem.canonical_form(matrix_problem.reduce_structured(v)) != cf:
        return "canonical_form(reduce_structured(v)) != canonical_form(v)"
    if matrix_problem.canonical_form(cf) != cf:
        return "canonical_form is not idempotent"
    return ""


def run(q: dict) -> dict:
    out = {"setup_s": _SETUP_S}
    if q["kind"] == "env":
        out["env"] = _environment()
        return out
    from paraclasses import matrix_problem
    try:
        if q["kind"] == "canonical":
            rep, v = _walk(q)  # before tracing starts: not part of the query
        tracer = None
        if q.get("trace"):
            import layertrace
            tracer = layertrace.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ref = {"compute": [speedref.compute_reference() for _ in range(2)]}
            t0 = time.perf_counter()
            if q["kind"] == "cli":
                rc = paraclasses.cli.run(q["argv"])
            else:
                cf = matrix_problem.canonical_form(v)
                rc = 0
            out["call_s"] = time.perf_counter() - t0
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref["compute"] += [speedref.compute_reference() for _ in range(2)]
        ref["sweep"] = [speedref.sweep_reference() for _ in range(2)]
        out["ref"] = ref
        if tracer is not None:
            out["trace"] = tracer.summary()  # before the checks below
        text = buf.getvalue()
        out.update(rc=rc, lines=text.count("\n"),
                   sha256=hashlib.sha256(text.encode()).hexdigest())
        if q["kind"] == "canonical":
            out["check"] = _check_canonical(rep, v, cf)
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
