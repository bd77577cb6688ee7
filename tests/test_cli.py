"""Tests for problem parsing, command dispatch, and the example registry."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import bvkit
from bvkit import brst, cli

from bvkit.polynomial_engine import poly_to_str
from bvkit.tate import TateResolution, build_resolution
from bvkit.bv_solver import MasterSolution
from bvkit.cli import (
    EXAMPLES,
    ProblemError,
    display_names,
    display_str,
    parse_problem,
    run_command,
)

CIRCLE_TEXT = "vars x y;\nS0 = (x^2+y^2-1)^2/4;\n"


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.bv"
    path.write_text(CIRCLE_TEXT)
    return str(path)


class TestParseProblem:
    def test_single_coordinate(self):
        spec = parse_problem("vars x; S0 = x^2;")
        assert spec.coordinates == ("x",)
        assert poly_to_str(spec.s0) == "x^2"
        assert spec.partials is None

    def test_circle_action(self):
        spec = parse_problem(CIRCLE_TEXT)
        assert spec.coordinates == ("x", "y")
        assert spec.s0.total_degree() == 4
        parts = spec.action_partials()
        assert [poly_to_str(p) for p in parts] == \
            ["x^3 + x*y^2 - x", "x^2*y + y^3 - y"]

    def test_unbound_variable_with_position(self):
        with pytest.raises(ProblemError, match="unbound variable 'z'") as e:
            parse_problem("vars x; S0 = x + z;")
        assert e.value.line == 1

    def test_partials_mode(self):
        spec = parse_problem("vars x y; dS0 = x^3 + x*y^2 - x, x^2*y + y^3 - y;")
        assert spec.s0 is None
        assert len(spec.partials) == 2

    def test_non_closed_form_rejected(self):
        with pytest.raises(ProblemError, match="not closed"):
            parse_problem("vars x y; dS0 = y, -x;")

    def test_partial_count_checked(self):
        with pytest.raises(ProblemError, match="2 components"):
            parse_problem("vars x y; dS0 = x;")

    def test_options(self):
        spec = parse_problem(
            "vars x; S0 = x^2; option depth=3; option pmax=2;"
            " option bound=6; option order=lex;")
        assert spec.options == {"depth": 3, "pmax": 2, "bound": 6,
                                "order": "lex"}

    def test_unknown_option_rejected(self):
        with pytest.raises(ProblemError, match="unknown option"):
            parse_problem("vars x; S0 = x; option colour=red;")

    def test_missing_semicolon(self):
        with pytest.raises(ProblemError, match="missing its ';'"):
            parse_problem("vars x; S0 = x^2")

    def test_action_before_vars(self):
        with pytest.raises(ProblemError, match="declared before"):
            parse_problem("S0 = x^2; vars x;")

    def test_duplicate_action(self):
        with pytest.raises(ProblemError, match="already declared"):
            parse_problem("vars x; S0 = x; S0 = x^2;")

    def test_error_reports_second_line(self):
        with pytest.raises(ProblemError) as e:
            parse_problem("vars x;\nS0 = x + q;")
        assert e.value.line == 2

    @pytest.mark.parametrize("text, line, col", [
        ("vars x y;\ndS0 = x, y, x*;", 2, 15),
        ("vars x y;\ndS0 = 2*x,\n  2*y^;", 3, 7),
        ("vars x y;\ndS0 = ,2*y;", 2, 7),
        ("vars x y;\nS0 = x^2;\n  option depth=3", 3, 3),
    ])
    def test_error_positions_in_later_pieces(self, text, line, col):
        # an error inside a later dS0 piece, or in a statement left without
        # its ';', is located in the whole text
        with pytest.raises(ProblemError) as e:
            parse_problem(text)
        assert (e.value.line, e.value.col) == (line, col)
        assert str(e.value).startswith(f"line {line}, column {col}: ")

    def test_repr_shows_mode(self):
        spec = parse_problem("vars x; S0 = x^2;")
        assert "s0" in repr(spec)


class TestDisplay:
    def test_circle_names(self):
        res = build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=3)
        names = display_names(res.table)
        assert names["xs"] == "x*"
        assert names["b1"] == "β" and names["bs1"] == "β*"
        assert names["b2"] == "γ"
        # two degree-3 ghosts take xi and eta
        assert names["b3"] == "ξ" and names["b4"] == "η"

    def test_star_collision_avoided(self):
        res = build_resolution(["x", "y"], s0="(x^2+y^2-1)^2/4", depth=2)
        names = display_names(res.table)
        shown = display_str("(-1)*xs*ys", names)
        assert shown == "(-1) x* y*"

    def test_repeated_degree_names_are_numbered(self):
        from bvkit.bv_solver import faddeev_popov
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = -1
        c[1][0][2] = 1
        c[1][2][0] = -1
        c[2][1][0] = 1
        c[2][0][1] = -1
        c[0][2][1] = 1
        sol = faddeev_popov("(x^2+y^2+z^2-1)^2",
                            [["0", "-z", "y"], ["z", "0", "-x"],
                             ["-y", "x", "0"]],
                            structure=c, coords=["x", "y", "z"])
        names = display_names(sol.resolution.table)
        assert names["b1"] == "β1" and names["b3"] == "β3"


class TestCommands:
    def test_tate_human(self, circle_file, capsys):
        assert run_command(["tate", "--depth", "3", circle_file]) == 0
        out = capsys.readouterr().out
        assert "acyclic through degree -3: yes" in out
        assert "β*" in out

    def test_tate_json_round_trip(self, circle_file, capsys):
        assert run_command(["tate", "--depth", "2", "--json",
                            circle_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) >= {"coords", "depth", "generators", "partials"}
        back = TateResolution.from_json_obj(obj)
        assert back.to_json_obj() == obj

    def test_solve_json_round_trip(self, circle_file, capsys):
        assert run_command(["solve", "--pmax", "2", "--json",
                            circle_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        sol = MasterSolution.from_json_obj(obj)
        assert sol.order == 2
        assert sol.to_json_obj() == obj

    def test_solve_human_shows_low_order_display(self, circle_file, capsys):
        assert run_command(["solve", "--pmax", "1", circle_file]) == 0
        out = capsys.readouterr().out
        assert "(x) y* β" in out and "(-y) x* β" in out

    def test_solve_depth_must_cover_order(self, circle_file, capsys):
        assert run_command(["solve", "--depth", "2", "--pmax", "3",
                            circle_file]) == 2
        assert "depth at least 4" in capsys.readouterr().err

    def test_verify_saved_solution(self, circle_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert run_command(["solve", "--pmax", "2", "--json", "--out",
                            str(out), circle_file]) == 0
        assert run_command(["verify", str(out)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_verify_beyond_certified_order_fails(self, circle_file, tmp_path,
                                                 capsys):
        out = tmp_path / "sol.json"
        run_command(["solve", "--pmax", "1", "--json", "--out", str(out),
                     circle_file])
        assert run_command(["verify", "--pmax", "5", str(out)]) == 1
        assert "residual weight" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["verify", "gauge"])
    def test_negative_order_exits_2(self, circle_file, tmp_path, capsys, cmd):
        # verify printed "verdict: ok" and exited 0; gauge failed inside
        # truncate, on its truncation weight
        out = tmp_path / "sol.json"
        run_command(["solve", "--pmax", "1", "--json", "--out", str(out),
                     circle_file])
        files = [str(out)] * (2 if cmd == "gauge" else 1)
        assert run_command([cmd, "--pmax", "-1", *files]) == 2
        captured = capsys.readouterr()
        assert "order p" in captured.err and "verdict" not in captured.out

    def test_gauge_relates_a_solution_to_itself(self, circle_file, tmp_path,
                                                capsys):
        out = tmp_path / "sol.json"
        run_command(["solve", "--pmax", "2", "--json", "--out", str(out),
                     circle_file])
        assert run_command(["gauge", str(out), str(out)]) == 0
        assert "matches mod F^3: yes" in capsys.readouterr().out

    def test_brst_h0_matches_the_reference_dimension(self, circle_file,
                                                     capsys):
        assert run_command(["brst", "h0", "--bound", "6", circle_file]) == 0
        out = capsys.readouterr().out
        assert "dim 2" in out and "x^2 + y^2" in out

    def test_brst_h1_json(self, circle_file, capsys):
        assert run_command(["brst", "h1", "--bound", "6", "--json",
                            circle_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"p": 1, "bound": 6, "dim": 1, "basis": [["y^2"]],
                       "stable": True}
        assert json.loads(json.dumps(obj)) == obj

    def test_brst_bound_from_problem_option(self, tmp_path, capsys):
        path = tmp_path / "p.bv"
        path.write_text(CIRCLE_TEXT + "option bound=6;\n")
        assert run_command(["brst", "h0", str(path)]) == 0
        assert "dim 2" in capsys.readouterr().out

    def test_brst_bound_required(self, circle_file, capsys):
        assert run_command(["brst", "h0", circle_file]) == 2
        assert "bound" in capsys.readouterr().err

    def test_brst_bracket(self, circle_file, capsys):
        assert run_command(["brst", "bracket", "--json", circle_file,
                            "x^2 + y^2", "x^2 + y^2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"value": ["0"]}

    def test_brst_bracket_rejects_non_invariants(self, circle_file, capsys):
        assert run_command(["brst", "bracket", circle_file, "x", "1"]) == 2
        assert "not an exact invariant" in capsys.readouterr().err

    def test_brst_e2_columns(self, circle_file, capsys):
        assert run_command(["brst", "e2", "--bound", "6", "--pmax", "1",
                            "--json", circle_file]) == 0
        cols = json.loads(capsys.readouterr().out)
        assert [c["dim"] for c in cols] == [2, 1]
        assert cols[1]["basis"] == ["(y^2)*b1"]

    def test_brst_e2_negative_pmax_exits_2(self, circle_file, capsys):
        # the column count was read after solving to pmax + 1 = 0, so the
        # solver's "p_max must be at least 1" was reported
        assert run_command(["brst", "e2", "--bound", "6", "--pmax", "-1",
                            circle_file]) == 2
        err = capsys.readouterr().err
        assert "--pmax must be >= 0, got -1" in err and "p_max" not in err
        assert run_command(["brst", "e2", "--bound", "6", "--pmax", "0",
                            circle_file]) == 0
        assert "E2 column 0 at bound 6: dim 2" in capsys.readouterr().out

    def test_brst_e2_shallow_depth_names_its_options(self, circle_file, capsys,
                                                     monkeypatch):
        # the solver's "need depth at least 3" for order 2 named neither
        # option; the check runs before anything is built
        built = []
        monkeypatch.setattr(cli, "_build_from_spec", lambda *a: built.append(a))
        assert run_command(["brst", "e2", "--bound", "6", "--pmax", "1",
                            "--depth", "2", circle_file]) == 2
        err = capsys.readouterr().err
        assert "--depth at least 3, got 2" in err and "--pmax 1" in err
        assert built == []

    def test_lex_order_same_dimensions(self, circle_file, capsys):
        assert run_command(["brst", "h0", "--bound", "6", "--order", "lex",
                            circle_file]) == 0
        assert "dim 2" in capsys.readouterr().out

    def test_out_writes_file_and_stdout_stays_clean(self, circle_file,
                                                    tmp_path, capsys):
        target = tmp_path / "res.json"
        assert run_command(["tate", "--depth", "2", "--json", "--out",
                            str(target), circle_file]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["depth"] == 2

    def test_problem_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.bv"
        bad.write_text("vars x; S0 = x + qq;")
        assert run_command(["tate", bad.as_posix()]) == 2
        assert "unbound variable" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_command(["tate", "/nonexistent/p.bv"]) == 2

    def test_usage_error(self, capsys):
        assert run_command([]) == 2


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """The circle problem and its solutions of order 1 and 2, as files;
    then two malformed solution files and S2 with a boundary tampered."""
    d = tmp_path_factory.mktemp("golden")
    files = {key: d / f"{key}.json"
             for key in ("S1", "S2", "NOKEY", "BADTYPE", "TAMPERED")}
    files["C"] = d / "circle.bv"
    files["C"].write_text(CIRCLE_TEXT)
    for p in ("1", "2"):
        assert run_command(["solve", "--pmax", p, "--json", "--out",
                            str(files["S" + p]), str(files["C"])]) == 0
    files["NOKEY"].write_text("{}")
    files["BADTYPE"].write_text('{"resolution": 5}')
    obj = json.loads(files["S2"].read_text())
    obj["resolution"]["generators"][1]["delta"] = "(1)*xs*ys"
    files["TAMPERED"].write_text(json.dumps(obj))
    return {key: str(path) for key, path in files.items()}


VERIFY_FAILED = "error: verification failed (residual weight)\n"
EMPTY = hashlib.sha256(b"").hexdigest()


class TestGoldenOutputs:
    """sha256 of stdout, then stderr and the exit code, of each command on
    the circle; C is the problem file, S1 and S2 its saved solutions of
    order 1 and 2, and NOKEY, BADTYPE and TAMPERED the bad solution files
    of golden_files.  Each command appears in text mode and under --json."""

    CASES = [
        (["tate", "--depth", "3", "C"],
         "cef37d90cfa9dc88e8b6c222d798ec7e479e612de606065cb548388b80b6cc51",
         "ac6f1378e91b177cf03a7f58a984b6ab6d72bc2355ccdec213775a9467646a11",
         "", 0),
        (["solve", "--pmax", "2", "C"],
         "fc863a7ae5de3f06462c18051179e54a33014948fe98cf4bfe17ab8510c3ca2f",
         "22806bd774d0d4ee2660a9a706977677807edf1f64baa94adab6c92fcd24fbd9",
         "", 0),
        (["verify", "S2"],
         "2121e0c9cfdff052a0cb1f9d22b0bd5b29fb347dc3d460b83075738cefdcbd5f",
         "b2db192336fdfc32b3b6ce06019f277d549272eb0ba10a790c15345d19174534",
         "", 0),
        (["gauge", "S2", "S2"],
         "c934f3893ec4f353dff8dbef86f69a2a1f4dd95a2ccdecc67efcaee1a936d386",
         "90faddf45915ad82aab0b49240470e6a5d935893b66f0097329b3e2b0bc1abf4",
         "", 0),
        (["brst", "h0", "--bound", "6", "C"],
         "2226686bc7121154304d3d87ce3b8133a88abcd2b81362ba3d7b25c188039440",
         "49e36416909673d6400b08fa602c87c90a433ccb6031dda8af12848312120b41",
         "", 0),
        (["brst", "h1", "--bound", "6", "C"],
         "0e7e4ab14204751ca3899bbc2483b458704df3fef0e6dc6dacb078326310da79",
         "291508a49abfb2fb897d78e95e88e9cbeccce2ae83cb1fc7f1000c7ee12e3361",
         "", 0),
        (["brst", "bracket", "C", "x^2 + y^2", "x^2 + y^2"],
         "48efc8d0f98b6bbcaace84e598a70557b64910915f600df88fcd0dffb1f95858",
         "5ae3bc640caa1d3d96414c93dfcdb8a5557459643ec0e7da5243574c68b9fe97",
         "", 0),
        (["brst", "e2", "--bound", "6", "--pmax", "1", "C"],
         "2c821c9112a9ecd066d16e45b08fa160ec9458c877fe898f9a8b657f72f359de",
         "f8f46579633a3583c0fa94edece201846cb84a93e02fe22341c4e6c71d4a0ced",
         "", 0),
        (["example", "exa7"],
         "e7d353598cf5106a1b95394b9389020bb169551af7da58eec2dd43baaa48b9f1",
         "0f27bd7211299d3397ace8b53cdf9bc038d7fc0297a475ee18b65cca2e359f48",
         "", 0),
        (["example", "exa7", "--check"],
         "cf00b927a1554ffaed9fb8e11572ed208a1f69d3165f83af48ae04bebe36de1f",
         "fd4bc9a25e98673e5f650f01667340aaa3fab6e5fcb60cab55ef5565e80ac44d",
         "", 0),
        # an order-1 solution checked to order 5 fails, after its report
        (["verify", "--pmax", "5", "S1"],
         "f43d241fdeb9798b17ae4bc2fb8ed68a35cf7fba3d6c8c8b1e37a43728a693f0",
         "e7a00124c7ff89e5ea364f6ebe5f44ed210678e3ca5eead6c64dc5b1d21affd8",
         VERIFY_FAILED, 1),
        # the whole registry pins every worked example's output
        (["example", "*", "--check"],
         "e598d4316131af4ef76785265f6d650dbe1433756281819b5eff1af93ee25d87",
         "514a9130d36f132d757fb4f9b2888da82c2a6b3fb4fe85369e13ae6e1381b2e4",
         "", 0),
        # a malformed or tampered saved file is bad input: nothing is
        # written, and the field or generator at fault is named
        (["verify", "NOKEY"], EMPTY, EMPTY,
         "error: solution has no field 'resolution'\n", 2),
        (["verify", "BADTYPE"], EMPTY, EMPTY,
         "error: solution field 'resolution' must be a JSON object\n", 2),
        (["gauge", "S2", "NOKEY"], EMPTY, EMPTY,
         "error: solution has no field 'resolution'\n", 2),
        (["verify", "TAMPERED"], EMPTY, EMPTY,
         "error: boundary fails to square to zero on 'bs2'\n", 2),
    ]

    @pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("argv, text_sha, json_sha, err, code", CASES,
                             ids=[" ".join(c[0]) for c in CASES])
    def test_output(self, golden_files, capsys, argv, text_sha, json_sha,
                    err, code, json_mode):
        argv = [golden_files.get(a, a) for a in argv]
        got = run_command(argv + ["--json"] if json_mode else argv)
        out = capsys.readouterr()
        assert (hashlib.sha256(out.out.encode()).hexdigest(), out.err, got) \
            == (json_sha if json_mode else text_sha, err, code)


@pytest.mark.parametrize("argv", [["verify", "S2"], ["gauge", "S2", "S2"],
                                  ["example", "exa1"]],
                         ids=["verify", "gauge", "example"])
def test_order_is_refused_where_no_order_is_read(golden_files, capsys, argv):
    # these commands compute nothing in a monomial order: a saved solution
    # carries its own, and each example fixes its own
    argv = [golden_files.get(a, a) for a in argv]
    assert run_command(argv[:1] + ["--order", "lex"] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--order" in out.err


@pytest.mark.parametrize("argv", [["verify", "S2"], ["gauge", "S2", "S2"],
                                  ["example", "exa1"]],
                         ids=["verify", "gauge", "example"])
def test_refused_order_is_named_alone(golden_files, capsys, argv):
    # the refused flag's value fills the first positional, which pushes a
    # file or example id into the unrecognized arguments; the error names
    # the flag and nothing else
    argv = [golden_files.get(a, a) for a in argv]
    assert run_command(argv[:1] + ["--order", "lex"] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "bvkit: error: unrecognized arguments: --order"


class TestExampleRegistry:
    def test_registry_ids(self):
        assert list(EXAMPLES) == [
            "exa1", "exa2", "exa3", "exa4", "exa5", "exa6", "exa7", "exa8",
            "fp-so3", "bundle-flat", "derham-a1"]

    def test_listing(self, capsys):
        assert run_command(["example", "exa1"]) == 0
        assert "flat direction" in capsys.readouterr().out

    def test_exa1_check_passes(self, capsys):
        assert run_command(["example", "exa1", "--check"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_exa7_check_passes(self, capsys):
        assert run_command(["example", "exa7", "--check"]) == 0

    def test_check_json_shape(self, capsys):
        assert run_command(["example", "exa2", "--check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["id"] == "exa2" and payload[0]["ok"]
        assert all(c["ok"] for c in payload[0]["checks"])

    def test_unknown_id(self, capsys):
        assert run_command(["example", "exa99", "--check"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_exa8_differentiates_each_candidate_once(self, monkeypatch):
        # one gradient per candidate serves the invariance test against
        # every tau, where a per-field check differentiated it once per tau
        tested, grads = [], []
        real_test, real_gradient = cli._is_invariant, brst._gradient

        def spy_test(pres, gb, f):
            tested.append(f)
            return real_test(pres, gb, f)

        def spy_gradient(f):
            grads.append(f)
            return real_gradient(f)

        monkeypatch.setattr(cli, "_is_invariant", spy_test)
        monkeypatch.setattr(brst, "_gradient", spy_gradient)
        assert all(ok for _label, ok, _detail in EXAMPLES["exa8"][1]())
        assert len(tested) == 6
        assert [sum(g is f for g in grads) for f in tested] == [1] * 6

    def test_every_registered_check_passes(self, capsys):
        # the whole registry is the regression gate
        assert run_command(["example", "*", "--check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for i in EXAMPLES:
            assert i + ":" in out


def test_python_m_bvkit_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(bvkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "bvkit", "example", "exa2", "--check", "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    payload = json.loads(out.stdout)
    assert payload[0]["id"] == "exa2" and payload[0]["ok"]
