"""Command-line front end.

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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paraclasses",
        description="Conjugacy classes in maximal parabolic subgroups of "
                    "general linear groups over finite fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gjnf", help="generalized Jordan data of a matrix")
    p.add_argument("--q", type=int, required=True, help="field size (prime power)")
    p.add_argument("--ext", type=int, default=1,
                   help="read the matrix over the degree-EXT extension of F_q")
    p.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by spaces")

    p = sub.add_parser("centralizer", help="centralizer algebra of a Jordan matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_partition, required=True,
                   metavar="PARTS", help="partition, e.g. 4,2")
    p.add_argument("--poly", default=None,
                   help="monic irreducible eigenvalue polynomial, coefficients "
                        "low-to-high (default: degree 1)")
    p.add_argument("--list-generators", action="store_true")

    mp = sub.add_parser("matprob", help="the truncated-polynomial matrix problem")
    mps = mp.add_subparsers(dest="matprob_command", required=True)
    p = mps.add_parser("orbits", help="enumerate orbits")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p = mps.add_parser("classify", help="finite/infinite/unknown type")
    p.add_argument("--mu", type=_partition, required=True)
    p.add_argument("--nu", type=_partition, required=True)

    cl = sub.add_parser("classes", help="conjugacy classes")
    cls = cl.add_subparsers(dest="classes_command", required=True)
    p = cls.add_parser("parabolic", help="classes of the (m, n) block group")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--reps", action="store_true",
                     help="emit one representative per class (JSON lines)")
    out.add_argument("--csv", action="store_true", help="print the count as CSV")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p = cls.add_parser("count-poly", help="class count as a polynomial in q")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p = cls.add_parser("agl", help="classes of the affine group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--reps", action="store_true")

    orc = sub.add_parser("oracle", help="brute-force verification oracle")
    orcs = orc.add_subparsers(dest="oracle_command", required=True)
    p = orcs.add_parser("parabolic")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_ORACLE_BUDGET)
    p = orcs.add_parser("agl")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_ORACLE_BUDGET)
    return ap


def _emit(obj):
    print(_JSON.encode(obj))


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "gjnf":
        if args.ext < 1:
            raise ValueError(f"--ext must be >= 1, got {args.ext}")
        field = gf.extension(ff_order(args.q), args.ext)
        m = mat_parse(args.matrix, field)
        if m.rows != m.cols:
            raise ValueError("matrix must be square")
        _emit(gjnf_to_json(gjnf(m), field))
        return 0

    if args.command == "centralizer":
        field = ff_order(args.q)
        if args.poly is not None:
            p = poly_parse(args.poly, field)
            if not gf.is_irreducible(p, field) or p[-1] != field.one:
                raise ValueError("--poly must be monic and irreducible")
        else:
            p = eigen_one_poly(field)
        d = gf.pdeg(p)
        K = extend(field, p)
        out = {
            "lambda": list(args.lam),
            "q": args.q,
            "poly": poly_str(p, field),
            "degree": d,
            "matrix_size": sum(args.lam) * d,
            "dim": centralizer_dim(args.lam, d),
        }
        if args.list_generators:
            gens = generators(args.lam, K)
            out["generators"] = [
                {"kind": g.kind, "i": g.i, "j": g.j, "l": g.l, "m": g.m,
                 "param": poly_str(g.param, K),
                 "realized": alg_to_json(g.realized)} for g in gens]
            out["generator_count"] = len(gens)
        _emit(out)
        return 0

    if args.command == "matprob":
        if args.matprob_command == "classify":
            v = type_classify(args.mu, args.nu)
            _emit({"mu": list(args.mu), "nu": list(args.nu),
                   "type": v.kind, "rule": v.rule})
            return 0
        field = ff_order(args.q)
        orbits = enumerate_orbits(args.mu, args.nu, field, budget=args.budget)
        _emit({
            "mu": list(args.mu), "nu": list(args.nu), "q": args.q,
            "count": orbits.count,
            "orbits": [{"rep": cocent_to_json(r)["entries"], "size": s,
                        "zero_one": all(c in (0, 1) for row in r.entries
                                        for e in row for c in e)}
                       for r, s in zip(orbits.reps, orbits.sizes)],
        })
        return 0

    if args.command == "classes":
        if args.classes_command == "parabolic":
            field = ff_order(args.q)
            if args.reps:
                # streamed: the budget is checked before the first line
                for rep in parabolic_class_reps(args.m, args.n, field,
                                                budget=args.budget):
                    print(class_rep_line(rep, field))
                return 0
            count = parabolic_class_count(args.m, args.n, field,
                                          budget=args.budget)
            if args.csv:
                print("m,n,q,count")
                print(f"{args.m},{args.n},{args.q},{count}")
            else:
                _emit({"m": args.m, "n": args.n, "q": args.q, "count": count})
            return 0
        if args.classes_command == "count-poly":
            cp = count_poly(args.m, args.n, budget=args.budget)
            _emit({"m": args.m, "n": args.n, "coeffs": list(cp)})
            return 0
        field = ff_order(args.q)
        if args.reps:
            for rep in agl_class_reps(args.n, field):
                _emit({"matrix": mat_str(rep)})
            return 0
        _emit({"n": args.n, "q": args.q,
               "count": agl_class_count(args.n, field)})
        return 0

    if args.command == "oracle":
        field = ff_order(args.q)
        if args.oracle_command == "parabolic":
            res = oracle_classes(args.m, args.n, field, budget=args.budget)
            _emit({"m": args.m, "n": args.n, "q": args.q, "count": res.count})
        else:
            res = oracle_agl(args.n, field, budget=args.budget)
            _emit({"n": args.n, "q": args.q, "count": res.count})
        return 0

    raise ValueError(f"unknown command {args.command}")


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
