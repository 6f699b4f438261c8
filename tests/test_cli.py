import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paraclasses
from paraclasses.cli import run


def _child_env():
    """The environment for a CLI child process that imports this package."""
    src = str(Path(paraclasses.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _capture(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_parabolic_count_json(capsys):
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "1",
                                  "--n", "1", "--q", "2"])
    assert code == 0
    assert json.loads(out) == {"m": 1, "n": 1, "q": 2, "count": 2}


def test_parabolic_count_csv(capsys):
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "1",
                                  "--n", "2", "--q", "2", "--csv"])
    assert code == 0
    assert out.splitlines() == ["m,n,q,count", "1,2,2,5"]


@pytest.mark.parametrize("order", [["--reps", "--csv"], ["--csv", "--reps"]])
def test_parabolic_reps_and_csv_are_exclusive(capsys, order):
    # representatives are JSON lines, so CSV output of them is refused
    # before any work, naming both flags
    assert run(["classes", "parabolic", "--m", "1", "--n", "2", "--q", "2"] + order) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err
    assert "--reps" in err and "--csv" in err


def test_matprob_orbits(capsys):
    code, out = _capture(capsys, ["matprob", "orbits", "--q", "2",
                                  "--mu", "2", "--nu", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert all(o["zero_one"] for o in data["orbits"])
    assert sum(o["size"] for o in data["orbits"]) == 4
    from helpers import cocent_from_json
    from paraclasses.gf import ff
    for o in data["orbits"]:
        v = cocent_from_json({"mu": data["mu"], "nu": data["nu"],
                              "entries": o["rep"]}, ff(2))
        assert v.shape.mu == (2,)


@pytest.mark.parametrize("q,mu,nu", [(3, "1,1,1,1", "2,1,1"), (4, "2,2,1", "1,1")])
def test_matprob_orbits_of_a_one_power_side_sweep_nothing(capsys, monkeypatch, q, mu, nu):
    # a shape with a side (1^a) is answered from its cells, sizes included,
    # with the text of a line built from the sweep
    import paraclasses.kernels as kernels
    import paraclasses.matrix_problem as mp
    from paraclasses.cocentralizer import cocent_to_json
    from paraclasses.conjugacy import _JSON
    from paraclasses.gf import ff_order
    from helpers import swept_orbits
    swept, sweep = [], kernels.orbit_partition

    def sweeping(pa):
        swept.append(pa.space())
        return sweep(pa)

    monkeypatch.setattr(mp, "_orbit_cache", {})
    monkeypatch.setattr(kernels, "orbit_partition", sweeping)
    monkeypatch.setattr(mp, "orbit_partition", sweeping)
    code, out = _capture(capsys, ["matprob", "orbits", "--q", str(q), "--mu", mu,
                                  "--nu", nu])
    assert code == 0 and swept == []
    mu_, nu_ = (tuple(map(int, lam.split(","))) for lam in (mu, nu))
    orbits = swept_orbits(mu_, nu_, ff_order(q))
    assert swept == [q ** orbits.shape.dim]
    assert out == _JSON.encode({
        "mu": list(mu_), "nu": list(nu_), "q": q, "count": orbits.count,
        "orbits": [{"rep": cocent_to_json(r)["entries"], "size": s,
                    "zero_one": all(c in (0, 1) for row in r.entries for e in row for c in e)}
                   for r, s in zip(orbits.reps, orbits.sizes)]}) + "\n"


def test_matprob_classify(capsys):
    code, out = _capture(capsys, ["matprob", "classify", "--mu", "4,2",
                                  "--nu", "4,2"])
    assert code == 0
    assert json.loads(out)["type"] == "infinite"


def test_gjnf_command(capsys):
    code, out = _capture(capsys, ["gjnf", "--q", "2", "--matrix",
                                  "1 0 0;0 1 0;0 0 1"])
    assert code == 0
    assert json.loads(out) == [{"poly": "1,1", "partition": [1, 1, 1]}]


def test_gjnf_over_extension(capsys):
    code, out = _capture(capsys, ["gjnf", "--q", "2", "--ext", "2",
                                  "--matrix", "1*w 0;0 1*w"])
    assert code == 0
    assert json.loads(out) == [{"poly": "1*w,1", "partition": [1, 1]}]


def test_centralizer_command(capsys):
    code, out = _capture(capsys, ["centralizer", "--q", "2",
                                  "--lambda", "5,3,3,2"])
    assert code == 0
    assert json.loads(out)["dim"] == 43
    code, out = _capture(capsys, ["centralizer", "--q", "2", "--lambda", "1",
                                  "--list-generators"])
    assert code == 0
    data = json.loads(out)
    assert data["generator_count"] == len(data["generators"]) == 1


def test_centralizer_above_table_limit(capsys):
    code, out = _capture(capsys, ["centralizer", "--q", "2048", "--lambda", "2,1",
                                  "--poly", "1,1,1"])
    assert code == 0
    assert json.loads(out) == {"lambda": [2, 1], "q": 2048, "poly": "1,1,1",
                               "degree": 2, "matrix_size": 6, "dim": 10}


def test_table_limit_exit_names_field(capsys):
    assert run(["matprob", "orbits", "--q", "2048", "--mu", "1", "--nu", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "dense op tables of F_2048 needs field order 2048, budget 1024" in err
    assert "states" not in err
    assert "(1)x(1) over F_2048" in err


@pytest.mark.parametrize("argv,term", [
    (["gjnf", "--q", "4", "--matrix", "w^2 0;0 1"], "w^2"),
    (["centralizer", "--q", "4", "--lambda", "2", "--poly", "w^3,1"], "w^3"),
    (["gjnf", "--q", "4", "--matrix", "3*u 0;0 1"], "3*u"),
    (["gjnf", "--q", "4", "--matrix", "w^-1 0;0 1"], "w^-1"),
    (["gjnf", "--q", "5", "--matrix", "1_0"], "1_0"),
    (["gjnf", "--q", "4", "--matrix", "1_1*w"], "1_1*w"),
    (["gjnf", "--q", "4", "--matrix", "w^\u0661"], "w^\u0661")])
def test_malformed_element_text_is_malformed_input(capsys, argv, term):
    # an exponent other than ASCII digits below 2, a symbol other than w, or
    # a prime-field coefficient other than ASCII digits below p names its
    # term and field
    from paraclasses.gf import ff_order
    assert run(argv) == 2
    out, err = capsys.readouterr()
    field = ff_order(int(argv[argv.index("--q") + 1]))
    assert out == "" and err == f"error: bad term {term!r} of {field!r}\n"


def test_agl_and_oracle_commands(capsys):
    code, out = _capture(capsys, ["classes", "agl", "--n", "2", "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5
    code, out = _capture(capsys, ["oracle", "agl", "--n", "2", "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5
    code, out = _capture(capsys, ["oracle", "parabolic", "--m", "1", "--n", "2",
                                  "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5


def test_reps_roundtrip_through_schema(capsys):
    from helpers import class_rep_from_json
    from paraclasses.gf import ff
    from paraclasses.matrices import mat_parse
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "1", "--n", "2",
                                  "--q", "2", "--reps"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        rep = class_rep_from_json(line, ff(2))
        printed = mat_parse(rep.matrix_text, ff(2))
        assert printed == rep.matrix and printed.is_invertible()


def test_reps_print_the_reference_lines(capsys):
    from helpers import reference_class_rep_json
    from paraclasses.conjugacy import parabolic_class_reps
    from paraclasses.gf import ff_order
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "2", "--n", "2",
                                  "--q", "4", "--reps"])
    field = ff_order(4)
    want = "".join(json.dumps(reference_class_rep_json(rep, field),
                              separators=(",", ":")) + "\n"
                   for rep in parabolic_class_reps(2, 2, field))
    assert code == 0 and out == want


def test_reps_build_no_matrix_per_class(capsys, monkeypatch):
    # each line is joined from text made once per form and per lifted orbit
    # representative: no class reads its matrix, and no 4 x 4 Mat is built
    # (forms and lifts of (2, 2) are at most 2 x 2)
    from paraclasses.conjugacy import ClassRep
    from paraclasses.matrices import Mat
    sizes, init = [], Mat.__init__

    def counted(self, *args):
        init(self, *args)
        sizes.append(self.a.shape)

    def unread(rep):
        raise AssertionError("ClassRep.matrix read on the CLI path")

    monkeypatch.setattr(ClassRep, "matrix", property(unread))
    monkeypatch.setattr(Mat, "__init__", counted)
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "2", "--n", "2",
                                  "--q", "5", "--reps"])
    assert code == 0 and len(out.splitlines()) == 700
    assert sizes and max(sizes) == (2, 2)


def test_deterministic_output(capsys):
    args = ["classes", "parabolic", "--m", "2", "--n", "2", "--q", "2",
            "--reps"]
    _, out1 = _capture(capsys, args)
    _, out2 = _capture(capsys, args)
    assert out1 == out2


def test_validation_exit_code(capsys):
    assert run(["classes", "parabolic", "--m", "1", "--n", "1", "--q", "6"]) == 2
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_budget_exit_code(capsys):
    assert run(["matprob", "orbits", "--q", "3", "--mu", "1,1,1,1",
                "--nu", "1,1,1,1", "--budget", "100"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["classes", "parabolic", "--m", "2", "--n", "2", "--q", "2"],
    ["classes", "count-poly", "--m", "2", "--n", "2"],
    ["matprob", "orbits", "--q", "2", "--mu", "1", "--nu", "1"],
    ["oracle", "parabolic", "--m", "1", "--n", "1", "--q", "2"],
    ["oracle", "agl", "--n", "1", "--q", "2"]])
def test_negative_budget_is_malformed_input(capsys, argv):
    # a negative budget is refused before any work, naming the flag; 0 is a
    # budget like any other, so each of these commands, which all need
    # states, exits 3 on it
    assert run(argv + ["--budget", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --budget: must be an integer >= 0, got '-1'" in err
    assert run(argv + ["--budget", "0"]) == 3
    assert "budget 0" in capsys.readouterr().err


def test_space_past_two_to_the_63_exit_names_shape_and_field(capsys):
    # the budget admits 2^64 states, but no state type holds them
    assert run(["matprob", "orbits", "--q", "2", "--mu", "1,1,1,1,1,1,1,1",
                "--nu", "1,1,1,1,1,1,1,1", "--budget", "100000000000000000000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("budget exceeded: (1,1,1,1,1,1,1,1)x(1,1,1,1,1,1,1,1) over F_2 "
                   "needs 18446744073709551616 states, budget 9223372036854775808\n")


def test_budget_message_names_shape_and_field(capsys):
    assert run(["matprob", "orbits", "--q", "3", "--mu", "1,1,1,1",
                "--nu", "1,1,1,1", "--budget", "4194304"]) == 3
    err = capsys.readouterr().err
    assert "(1,1,1,1)x(1,1,1,1) over F_3 needs 43046721 states, budget 4194304" in err


def test_reps_line_count_equals_class_count(capsys):
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "2", "--n", "2",
                                  "--q", "3"])
    assert code == 0
    count = json.loads(out)["count"]
    assert count == 90
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "2", "--n", "2",
                                  "--q", "3", "--reps"])
    assert code == 0
    assert len(out.splitlines()) == count


def test_reps_budget_exit_prints_nothing(capsys):
    assert run(["classes", "parabolic", "--m", "2", "--n", "2", "--q", "3",
                "--reps", "--budget", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "over F_3 needs" in err


def test_reps_budget_is_a_space_bound_with_nothing_swept(capsys):
    # (1,1)x(1,1,1) over F_13 is built in closed form, yet its space still
    # bounds every sweep of the query
    assert run(["classes", "parabolic", "--m", "2", "--n", "3", "--q", "13",
                "--reps"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("budget exceeded: (1,1)x(1,1,1) over F_13 needs "
                                 "4826809 states, budget 4194304\n")


def _run_capped(*argv):
    """The CLI run in a child whose address space is capped at 1 GB, so
    that an allocation in proportion to a large q ends in exit 1."""
    import resource
    return subprocess.run(
        [sys.executable, "-c", "from paraclasses.cli import main; main()", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))


@pytest.mark.parametrize("q", [37, 1000000007])
def test_reps_past_the_table_limit_exits_at_once(q):
    # F_{q^2} is past the dense-table limit; the refusal must come before a
    # degree-2 modulus is searched for among the q^2 monic quadratics
    proc = _run_capped("classes", "parabolic", "--m", "2", "--n", "2", "--q", str(q),
                       "--reps")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"budget exceeded: dense op tables of F_{q * q} needs "
                           f"field order {q * q}, budget 1024\n")


@pytest.mark.parametrize("q", [1031, 1369, 2048])
def test_agl_reps_past_the_table_limit_print_every_class(capsys, q):
    # AGL(1, q) representatives need no op tables, so their text must not
    # either: each is formatted on its own past the limit
    code, out = _capture(capsys, ["classes", "agl", "--n", "1", "--q", str(q),
                                  "--reps"])
    assert code == 0
    assert len(out.splitlines()) == q


def test_gjnf_over_a_quadratic_extension_of_a_large_prime_field():
    # the modulus of F_{q^2} is found without building the q elements of
    # F_q, and the op tables of F_{q^2} are refused
    q = 1000000007
    proc = _run_capped("gjnf", "--q", str(q), "--ext", "2", "--matrix", "1")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"budget exceeded: dense op tables of F_{q * q} needs "
                           f"field order {q * q}, budget 1024\n")


def test_matrix_and_orbit_work_over_a_prime_past_the_table_limit(capsys):
    code, out = _capture(capsys, ["gjnf", "--q", "1031", "--matrix", "1 0;1 1"])
    assert code == 0 and json.loads(out) == [{"poly": "1030,1", "partition": [2]}]
    code, out = _capture(capsys, ["matprob", "orbits", "--q", "1031", "--mu", "1",
                                  "--nu", "1"])
    assert code == 0 and json.loads(out)["count"] == 2


@pytest.mark.parametrize("argv,message", [
    (["--n", "1", "--budget", "1000"], "(1)x(1) over F_1031 needs 1031 states, budget 1000"),
    (["--n", "3"], "(1)x(1,1,1) over F_1031 needs 1095912791 states, budget 4194304")])
def test_reps_past_the_table_limit_exit_on_the_state_budget(capsys, argv, message):
    assert run(["classes", "parabolic", "--m", "1", "--q", "1031", "--reps", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"budget exceeded: {message}\n"


def test_matrix_work_past_int32_indices_exits_3(capsys):
    assert run(["gjnf", "--q", "2147483659", "--matrix", "1 0;1 1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("budget exceeded: int32 arrays of F_2147483659 needs "
                                 "field order 2147483659, budget 2147483647\n")


@pytest.mark.parametrize("ext", ["0", "-2"])
def test_gjnf_rejects_an_extension_degree_below_one(capsys, ext):
    assert run(["gjnf", "--q", "3", "--ext", ext, "--matrix", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --ext must be >= 1, got {ext}\n"


def test_gjnf_rejects_a_non_square_matrix(capsys):
    assert run(["gjnf", "--q", "2", "--matrix", "1 0;0 1;1 1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: matrix must be square\n"


@pytest.mark.parametrize("poly", ["1,2", "1,1,2"])
def test_centralizer_rejects_a_non_monic_poly_at_every_degree(capsys, poly):
    assert run(["centralizer", "--q", "3", "--lambda", "1", "--poly", poly]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --poly must be monic and irreducible\n"


def test_reps_stream_line_by_line(capsys, monkeypatch):
    import paraclasses.cli
    real, calls = paraclasses.cli.class_rep_line, []

    def failing_third(rep, field):
        calls.append(rep)
        if len(calls) == 3:
            raise RuntimeError("third representative")
        return real(rep, field)

    monkeypatch.setattr(paraclasses.cli, "class_rep_line", failing_third)
    with pytest.raises(RuntimeError):
        run(["classes", "parabolic", "--m", "1", "--n", "2", "--q", "2", "--reps"])
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_reps_piped_into_a_reader_that_closes_early():
    # like `paraclasses classes parabolic ... --reps | head -1`: the 480 kB
    # of output outgrow the pipe, so writes after the close must fail quietly
    proc = subprocess.Popen(
        [sys.executable, "-c", "from paraclasses.cli import main; main()",
         "classes", "parabolic", "--m", "2", "--n", "2", "--q", "7", "--reps"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert "levi_a" in json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert err == ""


def test_count_poly_budget_exit_names_shape(capsys):
    # (2)x(2) is the one shape of (2, 2) that is swept, 4 states over F_2;
    # the others have a (1^a) side and are counted in closed form
    assert run(["classes", "count-poly", "--m", "2", "--n", "2",
                "--budget", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "(2)x(2) over F_2" in err and "budget 3" in err


@pytest.mark.parametrize("argv,message", [
    (["oracle", "agl", "--n", "0"], "n must be >= 1"),
    (["oracle", "parabolic", "--m", "0", "--n", "1"], "block dimensions must be >= 1"),
    (["oracle", "parabolic", "--m", "-1", "--n", "1"], "block dimensions must be >= 1"),
    (["oracle", "parabolic", "--m", "1", "--n", "0"], "block dimensions must be >= 1")])
def test_oracle_rejects_empty_blocks(capsys, argv, message):
    assert run(argv + ["--q", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_counts_at_a_large_prime(capsys):
    from paraclasses.conjugacy import count_poly
    q = 1000000007
    code, out = _capture(capsys, ["classes", "agl", "--n", "1", "--q", str(q)])
    assert code == 0 and json.loads(out)["count"] == q
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "2", "--n", "2",
                                  "--q", str(q)])
    assert code == 0 and json.loads(out)["count"] == count_poly(2, 2)(q)


def test_every_benchmark_query_prints_its_recorded_digest(capsys):
    # every CLI query of the benchmark pools, in one process, so the memos
    # and name lists stay warm from one query to the next
    expected = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "expected.json").read_text())
    got = {}
    for qid in expected:
        rc = run(qid.split())
        text = capsys.readouterr().out
        got[qid] = {"lines": text.count("\n"), "rc": rc,
                    "sha256": hashlib.sha256(text.encode()).hexdigest()}
    assert got == expected
