"""Command-line front end: one function per command path, such as
``classes parabolic``, that declares its options, parses them and runs.

Exit codes: 0 success, 1 stdout closed early, 2 validation error, 3 budget exceeded.
All output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import gf
from .gf import ff_order, extend, poly_parse, poly_str
from .jordan import gjnf, gjnf_to_json
from .matrices import mat_parse, mat_str
from .matrix_problem import DEFAULT_BUDGET, enumerate_orbits, type_classify
from .centralizer import alg_to_json, centralizer_dim, generators
from .cocentralizer import cocent_to_json
from .conjugacy import (_JSON, agl_class_count, agl_class_reps, class_rep_line,
                        count_poly, eigen_one_poly, parabolic_class_count,
                        parabolic_class_reps)
# unused here, but bound by name: perfbench/layertrace.py requires a traced
# run to wrap cli.class_rep_to_json
from .conjugacy import class_rep_to_json  # noqa: F401
from .errors import BudgetExceeded
from .oracle import DEFAULT_ORACLE_BUDGET, oracle_agl, oracle_classes
from .partitions import check_partition


def _partition(s: str) -> tuple:
    try:
        return check_partition(int(x) for x in s.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _budget(s: str) -> int:
    """A state budget: an integer >= 0."""
    try:
        if (n := int(s)) >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {s!r}")


def _required(ap, **types) -> None:
    """Declare each name as a required option --name of its type."""
    for name, t in types.items():
        ap.add_argument(f"--{name}", type=t, required=True)


def _emit(obj):
    print(_JSON.encode(obj))


def _gjnf(ap, argv) -> None:
    """generalized Jordan data of a matrix"""
    ap.add_argument("--q", type=int, required=True, help="field size (prime power)")
    ap.add_argument("--ext", type=int, default=1,
                    help="read the matrix over the degree-EXT extension of F_q")
    ap.add_argument("--matrix", required=True,
                    help="rows separated by ';', entries by spaces")
    args = ap.parse_args(argv)
    if args.ext < 1:
        raise ValueError(f"--ext must be >= 1, got {args.ext}")
    base = ff_order(args.q)
    base.check_arrays(args.ext)  # before a degree-EXT modulus is searched for
    field = gf.extension(base, args.ext)
    m = mat_parse(args.matrix, field)
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    _emit(gjnf_to_json(gjnf(m), field))


def _centralizer(ap, argv) -> None:
    """centralizer algebra of a Jordan matrix"""
    _required(ap, q=int)
    ap.add_argument("--lambda", dest="lam", type=_partition, required=True,
                    metavar="PARTS", help="partition, e.g. 4,2")
    ap.add_argument("--poly", default=None,
                    help="monic irreducible eigenvalue polynomial, coefficients "
                         "low-to-high (default: degree 1)")
    ap.add_argument("--list-generators", action="store_true")
    args = ap.parse_args(argv)
    field = ff_order(args.q)
    p = eigen_one_poly(field) if args.poly is None else poly_parse(args.poly, field)
    if not gf.is_irreducible(p, field) or p[-1] != field.one:
        raise ValueError("--poly must be monic and irreducible")
    d = gf.pdeg(p)
    out = {"lambda": list(args.lam), "q": args.q, "poly": poly_str(p, field),
           "degree": d, "matrix_size": sum(args.lam) * d,
           "dim": centralizer_dim(args.lam, d)}
    if args.list_generators:
        gens = generators(args.lam, K := extend(field, p))
        out["generators"] = [
            {"kind": g.kind, "i": g.i, "j": g.j, "l": g.l, "m": g.m,
             "param": poly_str(g.param, K),
             "realized": alg_to_json(g.realized)} for g in gens]
        out["generator_count"] = len(gens)
    _emit(out)


def _matprob_orbits(ap, argv) -> None:
    """enumerate orbits"""
    _required(ap, q=int, mu=_partition, nu=_partition)
    ap.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    args = ap.parse_args(argv)
    orbits = enumerate_orbits(args.mu, args.nu, ff_order(args.q), budget=args.budget)
    _emit({"mu": list(args.mu), "nu": list(args.nu), "q": args.q, "count": orbits.count,
           "orbits": [{"rep": cocent_to_json(r)["entries"], "size": s,
                       "zero_one": all(c in (0, 1) for row in r.entries
                                       for e in row for c in e)}
                      for r, s in zip(orbits.reps, orbits.sizes)]})


def _matprob_classify(ap, argv) -> None:
    """finite/infinite/unknown type"""
    _required(ap, mu=_partition, nu=_partition)
    args = ap.parse_args(argv)
    v = type_classify(args.mu, args.nu)
    _emit({"mu": list(args.mu), "nu": list(args.nu), "type": v.kind, "rule": v.rule})


def _classes_parabolic(ap, argv) -> None:
    """classes of the (m, n) block group"""
    _required(ap, m=int, n=int, q=int)
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--reps", action="store_true",
                     help="emit one representative per class (JSON lines)")
    out.add_argument("--csv", action="store_true", help="print the count as CSV")
    ap.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    args = ap.parse_args(argv)
    field = ff_order(args.q)
    if args.reps:
        # streamed: the budget is checked before the first line
        for rep in parabolic_class_reps(args.m, args.n, field, budget=args.budget):
            print(class_rep_line(rep, field))
        return
    count = parabolic_class_count(args.m, args.n, field, budget=args.budget)
    if args.csv:
        print(f"m,n,q,count\n{args.m},{args.n},{args.q},{count}")
    else:
        _emit({"m": args.m, "n": args.n, "q": args.q, "count": count})


def _classes_count_poly(ap, argv) -> None:
    """class count as a polynomial in q"""
    _required(ap, m=int, n=int)
    ap.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    args = ap.parse_args(argv)
    cp = count_poly(args.m, args.n, budget=args.budget)
    _emit({"m": args.m, "n": args.n, "coeffs": list(cp)})


def _classes_agl(ap, argv) -> None:
    """classes of the affine group"""
    _required(ap, n=int, q=int)
    ap.add_argument("--reps", action="store_true")
    args = ap.parse_args(argv)
    field = ff_order(args.q)
    if args.reps:
        for rep in agl_class_reps(args.n, field):
            _emit({"matrix": mat_str(rep)})
    else:
        _emit({"n": args.n, "q": args.q, "count": agl_class_count(args.n, field)})


def _oracle_parabolic(ap, argv) -> None:
    """brute-force classes of the (m, n) block group"""
    _required(ap, m=int, n=int, q=int)
    ap.add_argument("--budget", type=_budget, default=DEFAULT_ORACLE_BUDGET)
    args = ap.parse_args(argv)
    res = oracle_classes(args.m, args.n, ff_order(args.q), budget=args.budget)
    _emit({"m": args.m, "n": args.n, "q": args.q, "count": res.count})


def _oracle_agl(ap, argv) -> None:
    """brute-force classes of the affine group"""
    _required(ap, n=int, q=int)
    ap.add_argument("--budget", type=_budget, default=DEFAULT_ORACLE_BUDGET)
    args = ap.parse_args(argv)
    res = oracle_agl(args.n, ff_order(args.q), budget=args.budget)
    _emit({"n": args.n, "q": args.q, "count": res.count})


# the command paths by their words; each function's docstring is its help line
_PATHS = {
    ("gjnf",): _gjnf,
    ("centralizer",): _centralizer,
    ("matprob", "orbits"): _matprob_orbits,
    ("matprob", "classify"): _matprob_classify,
    ("classes", "parabolic"): _classes_parabolic,
    ("classes", "count-poly"): _classes_count_poly,
    ("classes", "agl"): _classes_agl,
    ("oracle", "parabolic"): _oracle_parabolic,
    ("oracle", "agl"): _oracle_agl,
}


def _usage(argv) -> int:
    """List the paths: on stdout, exit 0, when -h or --help follows no word or
    a path's first word; else on stderr, with the error, exit 2."""
    asked = argv[-1:] in (["-h"], ["--help"]) and tuple(argv[:-1]) in {k[:-1] for k in _PATHS}
    print("usage: paraclasses <path> [options]\n\nConjugacy classes in maximal parabolic "
          "subgroups of general linear groups\nover finite fields. `paraclasses <path> "
          "--help` shows the options of a path.\n\npaths:\n"
          + "".join(f"  {' '.join(k):20}{f.__doc__}\n" for k, f in _PATHS.items())
          + ("" if asked else f"paraclasses: error: no command path in {argv!r}\n"),
          end="", file=sys.stdout if asked else sys.stderr)
    return 0 if asked else 2


def run(argv) -> int:
    key = next((k for k in (tuple(argv[:2]), tuple(argv[:1])) if k in _PATHS), None)
    if key is None:
        return _usage(list(argv))
    ap = argparse.ArgumentParser(prog=" ".join(("paraclasses",) + key))
    try:
        _PATHS[key](ap, argv[len(key):])
        return 0
    except SystemExit as e:  # argparse: --help, or an invalid option
        return 2 if e.code not in (0, None) else 0
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # reader closed early: silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
