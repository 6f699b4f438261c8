#!/usr/bin/env python3
"""Record the expected output of every benchmark query, after checking it.

Usage: python3 perfbench/record.py

Runs every CLI query of every pool in perfbench/run.py in a fresh worker,
as the benchmark does, and cross-checks the answers before writing their
exit codes, line counts and stdout SHA-256 to perfbench/expected.json:
  - class counts against the brute-force oracle where its budget reaches;
  - the README examples ((2,2,3) -> 90, count-poly (1,2) -> [1,-2,0,1]);
  - every count polynomial against the pool's counts at the same (m, n);
  - one --reps line per class, against the count query;
  - orbit sizes summing to the space, and the rank classes of (1^k)x(1^k);
  - the canonical-form orbits listed in run.CANONICAL.
Exits 1 and writes nothing if a check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from paraclasses import cli  # noqa: E402
from paraclasses.cocentralizer import CocentShape  # noqa: E402
from paraclasses.gf import ff_order  # noqa: E402
from paraclasses.matrix_problem import encode, enumerate_orbits  # noqa: E402
from paraclasses.oracle import (DEFAULT_ORACLE_BUDGET, oracle_agl,  # noqa: E402
                                oracle_classes)

README = {"classes parabolic --m 2 --n 2 --q 3": {"m": 2, "n": 2, "q": 3, "count": 90},
          "classes count-poly --m 1 --n 2": {"m": 1, "n": 2, "coeffs": [1, -2, 0, 1]}}


def cli_output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(list(argv))
    if rc != 0:
        raise AssertionError(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def opt(argv, name) -> int:
    return int(argv[argv.index(name) + 1])


def gl_order(k: int, q: int) -> int:
    order = 1
    for i in range(k):
        order *= q ** k - q ** i
    return order


def oracle_reaches(m, n, q) -> bool:
    """Whether the oracle's group (the affine group when m is None) fits its
    budget; it lists all k x k matrices first, so that must be small too."""
    group = (gl_order(m, q) if m else 1) * q ** ((m or 1) * n) * gl_order(n, q)
    return (group <= DEFAULT_ORACLE_BUDGET
            and q ** (max(m or 0, n) ** 2) <= 1 << 24)


def check(argv, text, polys, errors) -> None:
    """Append to errors what is wrong with one query's output."""
    qid = " ".join(argv)
    lines = text.splitlines()
    if qid in README and json.loads(lines[0]) != README[qid]:
        errors.append(f"{qid}: {lines[0]} differs from the README")
    if argv[:2] == ("classes", "count-poly"):
        polys[(opt(argv, "--m"), opt(argv, "--n"))] = json.loads(lines[0])["coeffs"]
        return
    if argv[0] == "classes":
        n, q = opt(argv, "--n"), opt(argv, "--q")
        m = opt(argv, "--m") if argv[1] == "parabolic" else None
        count_argv = tuple(a for a in argv if a != "--reps")
        count = json.loads(cli_output(count_argv).splitlines()[0])["count"]
        if "--reps" in argv and len(lines) != count:
            errors.append(f"{qid}: {len(lines)} reps for {count} classes")
        if not oracle_reaches(m, n, q):
            return
        oracle = (oracle_classes(m, n, ff_order(q)) if m is not None
                  else oracle_agl(n, ff_order(q)))
        if oracle.count != count:
            errors.append(f"{qid}: count {count}, oracle {oracle.count}")
        else:
            print(f", oracle agrees ({count})", end="")
        return
    out = json.loads(lines[0])
    field = ff_order(out["q"])
    shape = CocentShape(tuple(out["mu"]), tuple(out["nu"]), field)
    if sum(o["size"] for o in out["orbits"]) != field.order ** shape.dim:
        errors.append(f"{qid}: orbit sizes do not sum to the space")
    if set(out["mu"]) == set(out["nu"]) == {1} and out["count"] != min(
            len(out["mu"]), len(out["nu"])) + 1:
        errors.append(f"{qid}: {out['count']} orbits, rank classes say otherwise")


def main() -> int:
    errors, polys, counts, expected = [], {}, {}, {}
    queries = [q for w in run.POOLS for q in run.draw(w, 0) if q["kind"] == "cli"]
    for q in queries:
        argv = tuple(q["argv"])
        rep = run.spawn(q)
        if rep.get("error") or rep.get("rc") != 0:
            errors.append(f"{' '.join(argv)}: {rep}")
            continue
        text = cli_output(argv)
        print(f"{' '.join(argv)}: {rep['lines']} lines", end="")
        check(argv, text, polys, errors)
        print()
        if argv[:2] == ("classes", "parabolic") and "--reps" not in argv:
            counts[(opt(argv, "--m"), opt(argv, "--n"), opt(argv, "--q"))] = \
                json.loads(text)["count"]
        expected[" ".join(argv)] = {k: rep[k] for k in ("rc", "sha256", "lines")}
    for (m, n, q), count in counts.items():
        if (m, n) in polys:
            value = sum(c * q ** i for i, c in enumerate(polys[(m, n)]))
            if value != count:
                errors.append(f"count-poly ({m},{n}) at q={q} gives {value}, "
                              f"classes parabolic gives {count}")
    for mu, nu, q, rep, size in run.CANONICAL:
        orbits = enumerate_orbits(mu, nu, ff_order(q))
        sizes = {encode(r): s for r, s in zip(orbits.reps, orbits.sizes)}
        if sizes.get(rep) != size:
            errors.append(f"canonical {mu}x{nu} over F_{q}: {rep} is no orbit "
                          f"minimum of size {size}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} digests to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
