import json

from paraclasses.cli import run


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


def test_matprob_orbits(capsys):
    code, out = _capture(capsys, ["matprob", "orbits", "--q", "2",
                                  "--mu", "2", "--nu", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert all(o["zero_one"] for o in data["orbits"])
    assert sum(o["size"] for o in data["orbits"]) == 4
    from paraclasses.cocentralizer import cocent_from_json
    from paraclasses.gf import ff
    for o in data["orbits"]:
        v = cocent_from_json({"mu": data["mu"], "nu": data["nu"],
                              "entries": o["rep"]}, ff(2))
        assert v.shape.mu == (2,)


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


def test_agl_and_oracle_commands(capsys):
    code, out = _capture(capsys, ["classes", "agl", "--n", "2", "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5
    code, out = _capture(capsys, ["oracle", "agl", "--n", "2", "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5
    code, out = _capture(capsys, ["oracle", "parabolic", "--m", "1", "--n", "2",
                                  "--q", "2"])
    assert code == 0 and json.loads(out)["count"] == 5


def test_reps_roundtrip_through_schema(capsys):
    from paraclasses.conjugacy import class_rep_from_json
    from paraclasses.gf import ff
    code, out = _capture(capsys, ["classes", "parabolic", "--m", "1", "--n", "2",
                                  "--q", "2", "--reps"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        rep = class_rep_from_json(line, ff(2))
        assert rep.matrix.is_invertible()


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


def test_count_poly_budget_exit_names_shape(capsys):
    assert run(["classes", "count-poly", "--m", "2", "--n", "2",
                "--budget", "8"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert ")x(" in err and "over F_2" in err and "budget 8" in err
