import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedsrc import cli
from gradedsrc.cli import main
from gradedsrc.coeff import QQ, ZSQRT5, ZZ, PrimeField, ff_extend
from gradedsrc.gring import GroupRing
from gradedsrc.groups import FiniteGroup, FreeAbelian, FreeGroup
from gradedsrc.serialize import (
    coeff_from_json,
    coeff_to_json,
    group_from_json,
    system_from_json,
    system_to_json,
)
from gradedsrc.srcsolve import LinearSystem, verify_solution

SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def one_pm_t_json():
    R = GroupRing(FreeAbelian(1), QQ)
    t = R.delta((1,))
    sys = LinearSystem(R, 1, 2, ((R.one() + t, R.one() - t),))
    return system_to_json(sys)


def footnote_json():
    R = GroupRing(FreeGroup(2), QQ)
    a = R.delta((1,)) - R.one()
    b = R.delta((2,)) - R.one()
    return system_to_json(LinearSystem(R, 1, 2, ((a, b),)))


# --- serialization roundtrips ------------------------------------------------


def test_group_roundtrip():
    for G in (FreeGroup(2), FreeAbelian(3), FiniteGroup.symmetric(3)):
        G2 = group_from_json(G.to_json())
        assert G2 == G or set(G2.elements) == set(G.elements)


def test_finite_group_roundtrip():
    # Z/2 x Z/3 with list elements, listed out of any numeric order
    els = [[1, 2], [0, 0], [1, 0], [0, 1], [1, 1], [0, 2]]
    table = [
        [els.index([(a[0] + b[0]) % 2, (a[1] + b[1]) % 3]) for b in els] for a in els
    ]
    obj = {"family": "finite", "elements": els, "table": table}
    G = group_from_json(obj)
    assert G.identity == (0, 0) and G.mul((1, 2), (1, 1)) == (0, 0)
    assert json.loads(json.dumps(G.to_json())) == obj
    assert group_from_json(G.to_json()) == G


def test_finite_group_roundtrip_byte_identical():
    els = ["e", "a", "b"]
    obj = {"family": "finite", "elements": els, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(group_from_json(json.loads(text)).to_json(), sort_keys=True) == text


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 2]],  # past the end
    [[0, 1], [1, -2]],  # Python indexing would alias element 0, the right product
    [[0, 1], [True, 0]],  # equal to the right position, but not an int
    [[0, 1.0], [1, 0]],
])
def test_finite_table_entry_outside_positions_is_bad_input(tmp_path, capsys, table):
    obj = {
        "group": {"family": "finite", "elements": ["e", "a"], "table": table},
        "coeff": {"ring": "Q"},
        "m": 1,
        "n": 2,
        "a": [[[["e", "1"], ["a", "1"]], [["e", "1"]]]],
    }
    assert main(["solve", "--in", write(tmp_path, "sys.json", obj)]) == 1
    assert "bad input" in capsys.readouterr().err


def test_prime_past_primality_bound_is_bad_input(tmp_path, capsys):
    obj = one_pm_t_json()
    obj["coeff"] = {"ring": "Fp", "p": 2**89 - 1}
    assert main(["solve", "--in", write(tmp_path, "sys.json", obj)]) == 1
    assert "bad input" in capsys.readouterr().err


def field_system(coeff, entry):
    return {"group": {"family": "abelian", "rank": 1}, "coeff": coeff, "m": 1, "n": 2,
            "a": [[[[[0], entry], [[1], [1]]], [[[0], [1]]]]]}


F9 = {"ring": "Fq", "p": 3, "k": 2}


@pytest.mark.parametrize("coeff, entry", [
    (F9, [1, 0, 1]),  # 1 + x^2 is not reduced: the solution would fail substitution
    ({"ring": "Fq", "p": 2, "k": 7}, [0] * 7 + [1]),  # index 128, past F_128's tables
    (F9, [1.5, 0]),
    (F9, [True, 0]),
    (F9, ["1", 0]),
    (F9, 1),
    ({"ring": "Fp", "p": 5}, [1, 2]),
    ({"ring": "Fp", "p": 5}, [2.5]),
    ({"ring": "Fp", "p": 5}, "2"),
], ids=["fq-long", "fq-past-tables", "fq-float", "fq-bool", "fq-str", "fq-scalar",
        "fp-long", "fp-float", "fp-str"])
def test_bad_field_coefficients_are_bad_input(tmp_path, capsys, coeff, entry):
    infile = write(tmp_path, "sys.json", field_system(coeff, entry))
    assert main(["solve", "--in", infile]) == 1
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [0.1, True, "1/0", "1/"],
                         ids=["float", "bool", "zero-den", "empty-den"])
def test_bad_rational_coefficients_are_bad_input(tmp_path, capsys, entry):
    obj = {"group": {"family": "abelian", "rank": 1}, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
           "a": [[[[[0], entry], [[1], "1"]], [[[0], "1"], [[1], "-1"]]]]}
    assert main(["solve", "--in", write(tmp_path, "sys.json", obj)]) == 1
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("coeff, entry", [(F9, [2]), (F9, [-1, 4]), ({"ring": "Fp", "p": 5}, 7)],
                         ids=["fq-short", "fq-unreduced", "fp-scalar"])
def test_short_or_unreduced_field_coefficients_solve(tmp_path, coeff, entry):
    infile = write(tmp_path, "sys.json", field_system(coeff, entry))
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--in", infile, "--out", out]) == 0
    sys = system_from_json(field_system(coeff, entry))
    xs = tuple(sys.ring.elem_from_json(x) for x in json.loads(open(out).read())["solution"])
    assert verify_solution(sys, xs)


@pytest.mark.parametrize("coeff, key", [
    ({"ring": "Fq", "p": 2, "k": True}, "'k' must be an int"),
    ({"ring": "Fq", "p": 2, "k": 2.0}, "'k' must be an int"),
    ({"ring": "Fq", "p": True, "k": 2}, "'p' must be an int"),
    ({"ring": "Fq", "p": 3, "k": 2, "poly": [1, 0, True]}, "'poly' must be an array of ints"),
    ({"ring": "Fq", "p": 3, "k": 2, "poly": [1, 0.0, 1]}, "'poly' must be an array of ints"),
    ({"ring": "Fq", "p": 3, "k": 2, "poly": "101"}, "'poly' must be an array of ints"),
    ({"ring": "Fp", "p": True}, "'p' must be an int"),
    ({"ring": "Fp", "p": 5.0}, "'p' must be an int"),
], ids=["fq-k-bool", "fq-k-float", "fq-p-bool", "fq-poly-bool", "fq-poly-float",
        "fq-poly-str", "fp-p-bool", "fp-p-float"])
def test_non_int_field_parameter_is_bad_input(tmp_path, capsys, coeff, key):
    # read as 1, k = true would solve over F_2 and poly [1, 0, true] over
    # F_3[x]/(1 + x^2); p = true would fail later as "True is not prime"
    assert main(["solve", "--in", write(tmp_path, "sys.json", field_system(coeff, [1]))]) == 1
    assert f"bad input: coeff {key}" in capsys.readouterr().err


def test_fq_modulus_entry_outside_the_prime_field_is_bad_input(tmp_path, capsys):
    # read as given, [4, 0, 1] would make a field unequal to the one [1, 0, 1] gives
    coeff = {"ring": "Fq", "p": 3, "k": 2, "poly": [4, 0, 1]}
    assert main(["solve", "--in", write(tmp_path, "sys.json", field_system(coeff, [1]))]) == 1
    assert "bad input: coeff 'poly' entries must lie in [0, 3)" in capsys.readouterr().err


def test_non_int_z_coefficient_is_bad_input(tmp_path, capsys):
    # int(2.7) would solve the truncated system (2 + t) x1 + x2 = 0
    obj = {"group": {"family": "abelian", "rank": 1}, "coeff": {"ring": "Z"}, "m": 1, "n": 2,
           "a": [[[[[0], 2.7], [[1], 1]], [[[0], 1]]]]}
    infile = write(tmp_path, "sys.json", obj)
    assert main(["solve", "--in", infile]) == 1
    assert "bad input" in capsys.readouterr().err


@pytest.mark.parametrize("entry, code", [([2.7, 0], 1), ([2, 0], 0), (2, 1), ([1, 0, 0], 1)],
                         ids=["float", "ints", "scalar", "long"])
def test_zsqrt5_coefficients_must_be_two_ints(tmp_path, capsys, entry, code):
    obj = {"group": {"family": "abelian", "rank": 1}, "coeff": {"ring": "Zsqrt-5"},
           "r": [[[0], entry], [[2], [-2, 0]]], "h": [[2]]}
    out = str(tmp_path / "ideal_out.json")
    assert main(["ideal", "--in", write(tmp_path, "ideal.json", obj), "--out", out]) == code
    if code:
        assert "bad input" in capsys.readouterr().err
    else:
        assert json.loads(open(out).read())["membership"] is True


def z2_z3_shuffled(order):
    """Z/2 x Z/3 on list elements in the given order, as a "finite" group."""
    els = [Z2_Z3[i] for i in order]
    table = [[els.index([(a[0] + b[0]) % 2, (a[1] + b[1]) % 3]) for b in els] for a in els]
    return group_from_json({"family": "finite", "elements": els, "table": table})


GROUPS = st.one_of(
    st.integers(1, 4).map(FreeGroup),
    st.integers(1, 4).map(FreeAbelian),
    st.integers(1, 4).map(FiniteGroup.symmetric),
    st.integers(1, 12).map(FiniteGroup.cyclic),
    st.permutations(range(6)).map(z2_z3_shuffled),
)


def random_element(data, G):
    if isinstance(G, FreeGroup):
        letters = [s * i for i in range(1, G.rank + 1) for s in (1, -1)]
        word = data.draw(st.lists(st.sampled_from(letters), max_size=8))
        return G.mul(G.identity, tuple(word))
    if isinstance(G, FreeAbelian):
        return tuple(data.draw(st.lists(st.integers(-50, 50), min_size=G.rank,
                                        max_size=G.rank)))
    return data.draw(st.sampled_from(G.elements))


def through_json(obj):
    return json.loads(json.dumps(obj))


@given(GROUPS, st.data())
@settings(max_examples=100, deadline=None)
def test_group_and_element_json_roundtrip(G, data):
    G2 = group_from_json(through_json(G.to_json()))
    assert G2 == G
    for _ in range(5):
        g = random_element(data, G)
        back = G2.elem_from_json(through_json(G.elem_to_json(g)))
        assert back == g and repr(back) == repr(g)  # repr tells 1, 1.0 and True apart


# the Klein four-group on labels 0..3: the elements of C_4, another table
KLEIN4 = FiniteGroup(range(4), [[a ^ b for b in range(4)] for a in range(4)])
ALL_GROUPS = GROUPS | st.just(KLEIN4)
# a group and either another drawn group or its own rebuild through JSON
GROUP_PAIRS = ALL_GROUPS.flatmap(lambda G: st.tuples(
    st.just(G), ALL_GROUPS | st.just(group_from_json(through_json(G.to_json())))))


@given(GROUP_PAIRS)
@example((KLEIN4, FiniteGroup.cyclic(4)))
@example((FreeGroup(2), FreeAbelian(2)))
@settings(max_examples=100, deadline=None)
def test_groups_are_equal_exactly_when_class_and_json_agree(pair):
    G, H = pair
    same = type(G) is type(H) and G.to_json() == H.to_json()
    assert (G == H) is same and (H == G) is same
    if same:
        assert hash(G) == hash(H)


RINGS = st.sampled_from([QQ, ZZ, ZSQRT5, PrimeField(2), PrimeField(7), PrimeField(2**61 - 1),
                         ff_extend(2, 3), ff_extend(3, 2), ff_extend(5, 3), ff_extend(2, 8)])


def random_value(data, R):
    if R == QQ:
        num, den = data.draw(st.integers(-10**20, 10**20)), data.draw(st.integers(1, 10**6))
        return Fraction(num, den)
    if R == ZZ:
        return data.draw(st.integers(-10**30, 10**30))
    if R == ZSQRT5:
        return (data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(-10**6, 10**6)))
    if isinstance(R, PrimeField):
        return data.draw(st.integers(0, R.p - 1))
    return R.from_index(data.draw(st.integers(0, R.order - 1)))


@given(RINGS, st.data())
@settings(max_examples=100, deadline=None)
def test_coeff_ring_and_value_json_roundtrip(R, data):
    R2 = coeff_from_json(through_json(coeff_to_json(R)))
    assert R2 == R
    for _ in range(5):
        x = random_value(data, R)
        back = R2.from_json(through_json(R.to_json(x)))
        assert back == x and repr(back) == repr(x)


def test_coeff_roundtrip():
    for R in (QQ, ZZ, PrimeField(7), ff_extend(2, 3)):
        assert coeff_from_json(coeff_to_json(R)) == R


def test_system_roundtrip():
    obj = one_pm_t_json()
    sys = system_from_json(obj)
    assert system_to_json(sys) == obj


# --- solve -------------------------------------------------------------------


def test_solve_success(tmp_path):
    infile = write(tmp_path, "sys.json", one_pm_t_json())
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--in", infile, "--out", out]) == 0
    result = json.loads(open(out).read())
    assert result["verified"] is True
    sys = system_from_json(one_pm_t_json())
    xs = tuple(sys.ring.elem_from_json(x) for x in result["solution"])
    assert verify_solution(sys, xs)


def test_solve_readme_example(tmp_path):
    # the README's solve input, comments removed: integer coefficient strings
    infile = write(
        tmp_path,
        "readme.json",
        {
            "group": {"family": "abelian", "rank": 1},
            "coeff": {"ring": "Q"},
            "m": 1, "n": 2,
            "a": [[[[[0], "1"], [[1], "1"]], [[[0], "1"], [[1], "-1"]]]],
        },
    )
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--in", infile, "--out", out]) == 0
    assert json.loads(open(out).read())["verified"] is True


def test_solve_budget_exhaustion(tmp_path, capsys):
    infile = write(tmp_path, "fn.json", footnote_json())
    assert main(["solve", "--in", infile, "--budget", "3"]) == 2
    assert "folner" in capsys.readouterr().err


def test_parser_reused_without_leaking_options(tmp_path):
    # calls of one command in one process: no option value may carry over
    infile = write(tmp_path, "sys.json", one_pm_t_json())
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--in", infile, "--budget", "5", "--out", out]) == 0
    assert json.loads(open(out).read())["provenance"]["budget"] == 5
    theta_out = str(tmp_path / "theta0.json")
    assert main(["theta", "--radius", "0", "--out", theta_out]) == 0
    assert json.loads(open(theta_out).read())["theta"]["ncols"] == 10
    assert main(["solve", "--in", infile, "--out", out]) == 0
    assert json.loads(open(out).read())["provenance"]["budget"] == 64


@pytest.mark.parametrize("argv, message", [
    (["solve"], "gradedsrc solve: error: the following arguments are required: --in"),
    (["bogus"], "gradedsrc: error: argument command: invalid choice: 'bogus'"),
], ids=["missing-in", "unknown-command"])
def test_usage_error_exits_1(capsys, argv, message):
    # argparse's own code, 2, is the Folner-search-exhausted code here
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gradedsrc") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--budget" in capsys.readouterr().out


FULL_PARSER = cli.build_parser()  # parse_args leaves the parser as it is


def parse_outcome(parser, argv):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


def check_plain_reader(argv):
    """Check that read_plain gives None or the full parser's namespace for
    `argv`, and that the full parser gives a namespace or its usage line;
    return what read_plain gives."""
    plain = cli.read_plain(argv)
    full = parse_outcome(FULL_PARSER, argv)
    assert plain is None or vars(plain) == full[0], (argv, plain, full)
    assert full[0] is not None or (full[2] or full[3]).startswith("usage: gradedsrc")
    return plain


@pytest.mark.parametrize("argv", [
    ["solve"], ["solve", "--help"], ["solve", "--in"], ["solve", "--in", "x", "extra"],
    ["solve", "theta"], ["theta", "--bogus"], ["theta", "--s", "x"], ["theta", "--rad", "2"],
    ["theta", "--s", "3", "--radius", "2"], ["folner", "--budget", "3", "--in", "q"],
    ["graded-verify", "--fixture", "group-ring", "--g", "a"], ["embed-cert", "--coeff", "R"],
    ["embed-cert", "--c", "Z"], ["ideal", "--in", "f", "--seed", "4"],
], ids=" ".join)
def test_one_command_parser_parses_as_the_full_one(argv):
    # main reads a named command's plain line from that command's table entry
    # alone: the values the full parser gives, or the full parser's usage line
    check_plain_reader(argv)


FLAGS = sorted({flags[0] for _, _, options in cli._COMMANDS.values() for flags, _ in options})
VALUES = st.one_of(
    st.integers(-2, 99).map(str),
    st.sampled_from(["", "x", "1.5", " 3", "+2", "Q", "Z", "R", "group-ring", "sign-graded",
                     "intconst-poly", "a", "solve"]),
    st.sampled_from(["-", "--", "-1", "-x", "--in"]),
)
FLAG_TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).flatmap(lambda f: st.sampled_from([f[:k] for k in range(1, len(f))])),
    st.builds("{}={}".format, st.sampled_from(FLAGS), VALUES),
    st.sampled_from(["-h", "--help", "--", "-1", "", "x"]),
)


def option_pairs(flags, keywords):
    """(flag, value) pairs of one option: a value it takes, or any value."""
    if "choices" in keywords:
        takes = st.sampled_from(keywords["choices"])
    elif keywords.get("type") is int:
        takes = st.integers(0, 99).map(str)
    else:
        takes = st.sampled_from(["a", "f.json"])
    return st.tuples(st.just(flags[0]), takes | takes | VALUES)


def argvs(command):
    """A command, flag and value pairs with distinct flags, most of them its
    own options', then nothing, one more token or one more pair."""
    own = [option_pairs(*option) for option in cli._COMMANDS.get(command, ("", None, []))[2]]
    pair = st.one_of(*own, *own, st.tuples(FLAG_TOKENS, VALUES))
    tail = st.just(()) | st.just(()) | st.tuples(FLAG_TOKENS | VALUES) | pair
    return st.builds(lambda pairs, tail: [command, *(t for p in pairs for t in p), *tail],
                     st.lists(pair, max_size=4, unique_by=lambda p: p[0]), tail)


ARGVS = st.sampled_from([*cli._COMMANDS, "bogus", "-h"]).flatmap(argvs)


@settings(max_examples=400, deadline=None)
@given(ARGVS)
@example(["solve", "--budget", "3"])  # a required flag is missing
@example(["solve", "--in", "--out"])  # a value that starts with - is a flag to argparse
@example(["embed-cert", "--coeff", "R"])  # not one of the choices
@example(["theta", "--s", "x", "--s", "3"])  # a repeated flag, its first value not an int
def test_plain_reader_gives_the_full_parsers_namespace(argv):
    check_plain_reader(argv)


@pytest.mark.parametrize("argv", [
    ["solve", "--in", "x"], ["solve", "--budget", "20", "--in", "x", "--out", "y"],
    ["theta", "--s", "2", "--ymax", "10", "--radius", "1", "--seed", "3"], ["theta"],
    ["folner", "--in", "q"], ["graded-verify", "--fixture", "group-ring", "--g", "a"],
    ["embed-cert", "--coeff", "Z", "--radius", "3"], ["ideal", "--in", "f", "--seed", "4"],
], ids=" ".join)
def test_plain_lines_are_read_from_the_table(argv):
    assert check_plain_reader(argv) is not None


def test_plain_benchmark_lines_build_no_argparse(tmp_path, monkeypatch, capsys):
    # the benchmark's ops are plain lines; main must not build argparse for them.
    # --flag=value is not plain, so the same line in that form goes through argparse
    z = write(tmp_path, "z.json", one_pm_t_json())
    s3 = write(tmp_path, "s3.json", group_system({"family": "symmetric", "n": 3}, [2, 1, 3], [1, 3, 2]))
    lines = [
        ["solve", "--budget", "20", "--in", z], ["solve", "--in", s3, "--budget", "1"],
        ["theta", "--s", "2", "--ymax", "10", "--radius", "0", "--seed", "1"],
        ["theta", "--radius", "0", "--seed", "2"], ["embed-cert", "--coeff", "Z", "--radius", "1"],
    ]
    through_argparse = []
    for argv in lines:
        assert main([argv[0], *map("{}={}".format, argv[1::2], argv[2::2])]) == 0
        through_argparse.append(capsys.readouterr().out)

    def no_argparse():
        raise AssertionError("argparse built for a plain line")

    monkeypatch.setattr(cli, "build_parser", no_argparse)
    for argv, out in zip(lines, through_argparse):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def run_python(code, *argv, timeout):
    """``python -c code argv`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_import_loads_no_dataclasses_or_inspect():
    code = ("import sys; before = set(sys.modules); import gradedsrc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_argparse_or_ideals():
    # plain lines need no argparse, and only the ideal command needs ideals
    code = ("import sys; before = set(sys.modules); import gradedsrc.cli; "
            "print(sorted({'argparse', 'gradedsrc.ideals'} & (set(sys.modules) - before)))")
    proc = run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("key, value", [("n", "2"), ("n", 2.7), ("m", True)],
                         ids=["n-str", "n-float", "m-bool"])
def test_non_int_system_shape_is_bad_input(tmp_path, capsys, key, value):
    # int(...) would solve a different system: 1 x 2 for "2" and 2.7, and m = 1 for true
    obj = one_pm_t_json()
    obj[key] = value
    assert main(["solve", "--in", write(tmp_path, "sys.json", obj)]) == 1
    assert "bad input:" in capsys.readouterr().err


def group_system(group, g, h):
    """1 x 2 system (d_g + d_h) x1 + d_h x2 = 0 over Q[group], elements as JSON."""
    return {"group": group, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
            "a": [[[[g, "1"], [h, "1"]], [[h, "1"]]]]}


def empty_system(group):
    """The all-zero 1 x 2 system over Q[group]."""
    return {"group": group, "coeff": {"ring": "Q"}, "m": 1, "n": 2, "a": [[[], []]]}


@pytest.mark.parametrize("group, g, h", [
    ({"family": "abelian", "rank": True}, [0], [1]),
    ({"family": "free", "rank": True}, "", "a"),
    ({"family": "symmetric", "n": True}, [1], [1]),
    ({"family": "cyclic", "n": True}, 0, 0),
    ({"family": "abelian", "rank": "2"}, [0, 0], [1, 0]),
    ({"family": "abelian", "rank": 2.0}, [0, 0], [1, 0]),
    ({"family": "free", "rank": 2.0}, "", "a"),
    ({"family": "symmetric", "n": "3"}, [1, 2, 3], [2, 1, 3]),
    ({"family": "cyclic", "n": 3.0}, 0, 1),
], ids=["abelian-bool", "free-bool", "symmetric-bool", "cyclic-bool", "abelian-str",
        "abelian-float", "free-float", "symmetric-str", "cyclic-float"])
def test_non_int_group_size_is_bad_input(tmp_path, capsys, group, g, h):
    # read as 1, true would solve over Z^1, F_1, S_1 or C_1; the message must
    # name the field, not a later step's failure
    key = "rank" if "rank" in group else "n"
    assert main(["solve", "--in", write(tmp_path, "sys.json", group_system(group, g, h))]) == 1
    assert f"bad input: group {key!r} must be an int" in capsys.readouterr().err


@pytest.mark.parametrize("group, g, h", [
    ({"family": "abelian", "rank": 2}, [0.7, 0], [1, 0]),
    ({"family": "abelian", "rank": 2}, [True, 0], [1, 0]),
    ({"family": "abelian", "rank": 2}, ["1", 0], [1, 0]),
    ({"family": "symmetric", "n": 3}, [1, 2.9, 3], [2, 1, 3]),
    ({"family": "symmetric", "n": 3}, ["1", "2", "3"], [2, 1, 3]),
    ({"family": "symmetric", "n": 3}, [True, 2, 3], [2, 1, 3]),
], ids=["z2-float", "z2-bool", "z2-str", "s3-float", "s3-str", "s3-bool"])
def test_non_int_group_element_is_bad_input(tmp_path, capsys, group, g, h):
    # int(...) would read each as another element and solve the system
    assert main(["solve", "--in", write(tmp_path, "sys.json", group_system(group, g, h))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad input:") and f"{g!r} must hold ints only" in err


Z2_Z3 = [[1, 2], [0, 0], [1, 0], [0, 1], [1, 1], [0, 2]]
Z2_Z3_GROUP = {"family": "finite", "elements": Z2_Z3, "table": [
    [Z2_Z3.index([(a[0] + b[0]) % 2, (a[1] + b[1]) % 3]) for b in Z2_Z3] for a in Z2_Z3]}


@pytest.mark.parametrize("group, g, h", [
    ({"family": "cyclic", "n": 3}, True, 0),
    ({"family": "cyclic", "n": 3}, 1.0, 0),
    (Z2_Z3_GROUP, [True, 0], [0, 0]),
], ids=["c3-bool", "c3-float", "finite-bool"])
def test_label_element_of_another_json_type_is_bad_input(tmp_path, capsys, group, g, h):
    # true == 1 == 1.0 in Python, so a lookup by value alone would read each
    # as an element and solve the system
    assert main(["solve", "--in", write(tmp_path, "sys.json", group_system(group, g, h))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad input:") and f"{g!r} is not an element of this group" in err


def run_cli(argv, timeout, address_space=None):
    """``gradedsrc argv`` in a fresh interpreter, optionally under an
    address-space limit in bytes."""
    code = "import resource, sys\n"
    if address_space:
        code += f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
    code += "from gradedsrc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return run_python(code, *argv, timeout=timeout)


def test_solve_over_f_2_40_finishes(tmp_path):
    # the modulus search divided by every monic polynomial up to degree 20
    obj = field_system({"ring": "Fq", "p": 2, "k": 40}, [0, 1])
    out = str(tmp_path / "sol.json")
    proc = run_cli(["solve", "--in", write(tmp_path, "sys.json", obj), "--out", out], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(open(out).read())["verified"] is True


@pytest.mark.parametrize("k", [256, 10**12])
def test_extension_field_past_the_order_cap_is_bad_input(tmp_path, k):
    # without the cap the modulus search for F_{2^256} runs for more than a minute,
    # and 2^(10^12) alone would not fit in memory
    obj = field_system({"ring": "Fq", "p": 2, "k": k}, [0, 1])
    proc = run_cli(["solve", "--in", write(tmp_path, "sys.json", obj)], timeout=20)
    assert proc.returncode == 1
    assert proc.stderr.startswith("bad input:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("coeff, entry", [
    ({"ring": "Fq", "p": 2, "k": 64}, [0, 1]),  # the largest field of characteristic 2 inside the cap
    ({"ring": "Fq", "p": 2**61 - 1, "k": 1}, [2]),  # k = 1 takes its first candidate for any p
], ids=["f_2_64", "f_mersenne61"])
def test_fields_inside_the_order_cap_solve(tmp_path, coeff, entry):
    out = str(tmp_path / "sol.json")
    obj = field_system(coeff, entry)
    proc = run_cli(["solve", "--in", write(tmp_path, "sys.json", obj), "--out", out], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(open(out).read())["verified"] is True


def test_free_group_solve_at_the_default_budget_stops_at_the_ball_cap(tmp_path):
    # the balls of F_2 grow as 2*3^r - 1, so radius 64 would never be reached;
    # the schedule stops before the radius-10 ball, past 100,000 elements
    obj = {"group": {"family": "free", "rank": 2}, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
           "a": [[[["", "1"], ["a", "2"], ["b", "3"]], [["", "5"], ["a", "-1"], ["b", "7"]]]]}
    proc = run_cli(["solve", "--in", write(tmp_path, "sys.json", obj)], timeout=30)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr == ("folner search failed: no ball of radius <= 9 meets the bound; "
                           "the ball of radius 10 has more than 100000 elements\n")


def test_free_abelian_folner_at_the_default_budget_stops_at_the_box_cap(tmp_path):
    # Z^6's box of side L has L^6 elements: side 7 (117,649) is past the cap
    obj = {"group": {"family": "abelian", "rank": 6},
           "s": [[int(i == k) for i in range(6)] for k in range(-1, 6)], "ratio": "101/100"}
    proc = run_cli(["folner", "--in", write(tmp_path, "z6.json", obj)], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("folner search failed: no box of side <= 6 meets the bound; "
                           "the box of side 7 has more than 100000 elements\n")


def test_free_abelian_folner_stops_when_the_boxes_tried_pass_the_cap(tmp_path):
    # each box of Z^3 is within the cap up to side 46, but boxes of side
    # 1..24 hold 90,000 elements in all and side 25 would bring them to 105,625
    obj = {"group": {"family": "abelian", "rank": 3},
           "s": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "ratio": "101/100"}
    proc = run_cli(["folner", "--in", write(tmp_path, "z3.json", obj)], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("folner search failed: no box of side <= 24 meets the bound; "
                           "the box of side 25 would bring the sets tried past 100000 "
                           "elements in all\n")


def test_symmetric_and_cyclic_orders_up_to_the_cap_build():
    assert len(group_from_json({"family": "symmetric", "n": 6}).elements) == 720
    assert len(group_from_json({"family": "cyclic", "n": 1000}).elements) == 1000


@pytest.mark.parametrize("group", [
    {"family": "symmetric", "n": 7},
    {"family": "symmetric", "n": 9},
    {"family": "cyclic", "n": 1001},
    {"family": "cyclic", "n": 10**6},
], ids=["s7", "s9", "c1001", "c1e6"])
def test_finite_family_past_the_order_cap_is_bad_input(tmp_path, group):
    # without the cap S_7, S_9 and C_1001 solve this empty system, and C_10^6
    # fills n^2 table entries until the address-space limit raises MemoryError
    obj = {"group": group, "coeff": {"ring": "Q"}, "m": 1, "n": 2, "a": [[[], []]]}
    proc = run_cli(["solve", "--in", write(tmp_path, "sys.json", obj)], timeout=60,
                   address_space=1 << 29)
    assert proc.returncode == 1
    assert "bad input:" in proc.stderr and "more than 1000 elements" in proc.stderr


def test_solve_malformed_input(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--in", str(p)]) == 1
    p2 = write(tmp_path, "incomplete.json", {"group": {"family": "abelian", "rank": 1}})
    assert main(["solve", "--in", p2]) == 1
    assert main(["solve", "--in", str(tmp_path / "missing.json")]) == 1


# --- theta -------------------------------------------------------------------


def test_theta_pipeline(tmp_path):
    out = str(tmp_path / "theta.json")
    code = main(
        ["theta", "--s", "2", "--ymax", "10", "--field", "2", "--seed", "0",
         "--radius", "1", "--out", out]
    )
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["alpha_verified"] is True
    assert rep["theta"]["verdict"] == "VerifiedInjectiveUpTo(1)"
    assert rep["theta"]["missing_row_zero"] is True
    assert rep["theta"]["ncols"] == 50 and rep["theta"]["rank"] == 50


def test_theta_search_exhausted(capsys):
    assert main(["theta", "--s", "2", "--ymax", "3"]) == 3
    assert "set-system" in capsys.readouterr().err


def test_theta_past_four_labels_is_bad_input(capsys):
    # F_2 has four letters a, A, b, B for the b_s; refused before the search
    assert main(["theta", "--s", "5", "--ymax", "2"]) == 1
    err = capsys.readouterr().err
    assert "bad input" in err and "a, A, b, B" in err


def test_theta_radius_zero(tmp_path):
    out = str(tmp_path / "theta0.json")
    assert main(["theta", "--radius", "0", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["theta"]["ncols"] == 10 and rep["theta"]["rank"] == 10


# --- folner ------------------------------------------------------------------


def test_folner_command(tmp_path):
    infile = write(
        tmp_path,
        "folner.json",
        {
            "group": {"family": "abelian", "rank": 2},
            "s": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
            "ratio": "2",
            "budget": 20,
        },
    )
    out = str(tmp_path / "f.json")
    assert main(["folner", "--in", infile, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["sizes"] == {"f": 25, "sf": 45}


def test_folner_exhausted(tmp_path):
    infile = write(
        tmp_path,
        "folner_free.json",
        {
            "group": {"family": "free", "rank": 2},
            "s": ["", "a", "A", "b", "B"],
            "ratio": "2",
            "budget": 3,
        },
    )
    assert main(["folner", "--in", infile]) == 2


README_FOLNER = {
    "group": {"family": "abelian", "rank": 2},
    "s": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
    "ratio": "2",
    "budget": 20,
}


# a float ratio is not exact, and a budget is a non-negative int
@pytest.mark.parametrize("key, value", [
    ("ratio", 1.1), ("ratio", True), ("ratio", "1.5"),
    ("budget", True), ("budget", 2.9), ("budget", "5"), ("budget", -3),
])
def test_folner_malformed_ratio_or_budget_is_bad_input(tmp_path, capsys, key, value):
    infile = write(tmp_path, "folner.json", {**README_FOLNER, key: value})
    out = tmp_path / "out.json"
    assert main(["folner", "--in", infile, "--out", str(out)]) == 1
    assert "bad input:" in capsys.readouterr().err
    assert not out.exists()


def test_out_into_a_directory_is_bad_input_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["embed-cert", "--radius", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad input:") and captured.err.count("\n") == 1
    assert list(tmp_path.glob("*.tmp")) == [] and list(out.iterdir()) == []


def test_solve_negative_budget_is_bad_input(tmp_path, capsys):
    infile = write(tmp_path, "fn.json", footnote_json())
    assert main(["solve", "--in", infile, "--budget", "-1"]) == 1
    assert "bad input:" in capsys.readouterr().err


# --- graded-verify -----------------------------------------------------------


def test_graded_verify_fixtures(tmp_path):
    out = str(tmp_path / "gv.json")
    assert main(["graded-verify", "--fixture", "sign-graded", "--g", "-1", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["strongly_graded_witness_found"] is True

    assert main(["graded-verify", "--fixture", "group-ring", "--g", "a", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["strongly_graded_witness_found"] is True

    assert main(["graded-verify", "--fixture", "intconst-poly", "--g", "-1", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["strongly_graded_witness_found"] is False


def test_graded_verify_identity_grade(tmp_path):
    # "" is the identity word of F_2, not an omitted --g
    out = str(tmp_path / "gv.json")
    assert main(["graded-verify", "--fixture", "group-ring", "--g", "", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["grade"] == ""
    assert rep["strongly_graded_witness_found"] is True and rep["witness"]


@pytest.mark.parametrize("fixture, grade", [
    ("group-ring", "aB"), ("group-ring", "1"), ("group-ring", "3"), ("group-ring", "0"),
    ("sign-graded", "aB"), ("intconst-poly", "aB"),
])
def test_graded_verify_bad_grade_is_bad_input(tmp_path, capsys, fixture, grade):
    out = tmp_path / "out.json"
    assert main(["graded-verify", "--fixture", fixture, "--g", grade, "--out", str(out)]) == 1
    assert "bad input:" in capsys.readouterr().err
    assert not out.exists()


# --- embed-cert --------------------------------------------------------------


def test_embed_cert(tmp_path):
    out = str(tmp_path / "cert.json")
    assert main(["embed-cert", "--coeff", "Q", "--radius", "2", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["columns"] == 34 and rep["rank"] == 34
    assert rep["injective_up_to_radius"] is True
    assert main(["embed-cert", "--coeff", "Z", "--radius", "1", "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["columns"] == 10 and rep["kernel_dimension"] == 0


# --- ideal -------------------------------------------------------------------


def test_ideal_membership_and_distinguish(tmp_path):
    R = GroupRing(FreeAbelian(1), QQ)
    r = R.one() - R.delta((2,))
    infile = write(
        tmp_path,
        "ideal.json",
        {
            "group": {"family": "abelian", "rank": 1},
            "h": [[2]],
            "k": [[3]],
            "r": R.elem_to_json(r),
        },
    )
    out = str(tmp_path / "ideal_out.json")
    assert main(["ideal", "--in", infile, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["membership"] is True
    assert rep["distinguish"]["relation"] == "incomparable"
    assert rep["distinguish"]["ok"] is True
    assert rep["distinguish"]["witness"] is not None


# --- determinism -------------------------------------------------------------


def test_outputs_byte_identical(tmp_path):
    infile = write(tmp_path, "sys.json", one_pm_t_json())
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["solve", "--in", infile, "--out", out1]) == 0
    assert main(["solve", "--in", infile, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()

    t1, t2 = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
    args = ["theta", "--seed", "5", "--radius", "1"]
    assert main(args + ["--out", t1]) == 0
    assert main(args + ["--out", t2]) == 0
    assert open(t1, "rb").read() == open(t2, "rb").read()


# --- failure paths -------------------------------------------------------------


FREE_FOLNER = {"group": {"family": "free", "rank": 2}, "s": ["", "a", "A", "b", "B"],
               "ratio": "2", "budget": 3}
FP4_SYSTEM = {**one_pm_t_json(), "coeff": {"ring": "Fp", "p": 4}}
ZSQRT5_SYSTEM = {**one_pm_t_json(), "coeff": {"ring": "Zsqrt-5"},
                 "a": [[[[[0], [1, 0]], [[1], [1, 0]]], [[[0], [1, 0]], [[1], [-1, 0]]]]]}
FREE_TERM_SYSTEM = {"group": {"family": "free", "rank": 2}, "coeff": {"ring": "Q"}, "m": 1,
                    "n": 2, "a": [[[[1, "1"]], [["a", "1"]]]]}
NO_FILE = "bad input: [Errno 2] No such file or directory: "


# (argv, input files to write, exit code, stderr): each failure prints one
# stderr line, nothing on stdout, and writes no --out file
FAILURES = {
    "folner-exhausted": (["folner", "--in", "free.json"], {"free.json": FREE_FOLNER}, 2,
                         "folner search failed: no ball of radius <= 3 meets the bound\n"),
    "folner-box-exhausted": (["folner", "--in", "z2.json"],
                             {"z2.json": {"group": {"family": "abelian", "rank": 2}, "budget": 3,
                                          "s": [[0, 0], [1, 0], [0, 1]], "ratio": "101/100"}}, 2,
                             "folner search failed: no box of side <= 3 meets the bound\n"),
    "solve-exhausted": (["solve", "--in", "fn.json", "--budget", "3"],
                        {"fn.json": footnote_json()}, 2,
                        "folner search failed: no ball of radius <= 3 meets the bound\n"),
    "theta-exhausted": (["theta", "--s", "2", "--ymax", "3"], {}, 3,
                        "set-system search failed: no admissible system with |Y| <= 3\n"),
    "fp-not-prime": (["solve", "--in", "fp4.json"], {"fp4.json": FP4_SYSTEM}, 1,
                     "bad input: 4 is not prime\n"),
    "theta-field-not-prime": (["theta", "--field", "4"], {}, 1,
                              "bad input: 4 is not prime\n"),
    "solve-zsqrt5": (["solve", "--in", "zs.json"], {"zs.json": ZSQRT5_SYSTEM}, 1,
                     "bad input: unsupported coefficient ring Zsqrt-5\n"),
    "missing-in": (["solve", "--in", "missing.json"], {}, 1,
                   NO_FILE + "'{dir}/missing.json'\n"),
    "folner-free-int": (["folner", "--in", "s.json"],
                        {"s.json": {**FREE_FOLNER, "s": ["", "a", 2]}}, 1,
                        "bad input: free-group element 2 must be a string of letters\n"),
    "solve-free-int": (["solve", "--in", "t.json"], {"t.json": FREE_TERM_SYSTEM}, 1,
                       "bad input: free-group element 1 must be a string of letters\n"),
    "cyclic-0": (["solve", "--in", "c.json"],
                 {"c.json": empty_system({"family": "cyclic", "n": 0})}, 1,
                 "bad input: C_n needs n >= 1, not 0\n"),
    "cyclic-negative": (["solve", "--in", "c.json"],
                        {"c.json": empty_system({"family": "cyclic", "n": -3})}, 1,
                        "bad input: C_n needs n >= 1, not -3\n"),
    "symmetric-negative": (["solve", "--in", "s.json"],
                           {"s.json": empty_system({"family": "symmetric", "n": -1})}, 1,
                           "bad input: S_n needs n >= 0, not -1\n"),
    "free-rank-27": (["folner", "--in", "f.json"],
                     {"f.json": {"group": {"family": "free", "rank": 27}, "s": ["", "a"],
                                 "ratio": "2", "budget": 3}}, 1,
                     "bad input: free-group rank 27 exceeds the 26 letters a..z\n"),
    "ideal-free": (["ideal", "--in", "i.json"],
                   {"i.json": {"group": {"family": "free", "rank": 2}, "h": ["a"]}}, 1,
                   "error: coset classification unsupported for FreeGroup(2)\n"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_path_pinned(tmp_path, capsys, case):
    argv, files, code, err = FAILURES[case]
    for name, obj in files.items():
        write(tmp_path, name, obj)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(dir=tmp_path)
    assert captured.out == ""
    assert not out.exists()


# valid inputs of the commands that read a file, each with its command and options
FUZZ_SEEDS = [
    (["solve", "--budget", "3"], one_pm_t_json()),
    (["solve", "--budget", "3"], footnote_json()),
    (["solve", "--budget", "3"], group_system({"family": "symmetric", "n": 3}, [2, 1, 3], [1, 3, 2])),
    (["solve", "--budget", "3"], group_system({"family": "cyclic", "n": 3}, 1, 2)),
    (["solve", "--budget", "3"], group_system(Z2_Z3_GROUP, [1, 0], [0, 1])),
    (["folner", "--budget", "3"], FREE_FOLNER),
    (["folner", "--budget", "3"], {"group": {"family": "abelian", "rank": 2},
                                   "s": [[0, 0], [1, 0], [0, 1]], "ratio": "2"}),
    (["ideal"], {"group": {"family": "abelian", "rank": 1}, "h": [[2]], "k": [[3]],
                 "r": [[[0], "1"], [[2], "-1"]]}),
    (["ideal"], {"group": {"family": "symmetric", "n": 3}, "h": [[2, 1, 3]], "k": [[1, 3, 2]],
                 "r": [[[1, 2, 3], "1"], [[2, 1, 3], "-1"]]}),
]
SCALARS = st.one_of(st.integers(-3, 3), st.text("aAbB1-/ ", max_size=3), st.none(),
                    st.booleans(), st.floats())


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text("aAbB1", max_size=2), inner,
                                                         max_size=3)


JSON_VALUES = SCALARS | json_containers(SCALARS | json_containers(SCALARS))


def leaf_paths(obj, path=()):
    """Key paths to the scalars and empty containers of a JSON value."""
    if isinstance(obj, (dict, list)) and obj:
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from leaf_paths(v, path + (k,))
    else:
        yield path


@given(st.sampled_from(FUZZ_SEEDS), st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_input_fails_in_one_stderr_line(seed, data):
    argv, obj = seed
    obj = through_json(obj)
    paths = data.draw(st.lists(st.sampled_from(list(leaf_paths(obj))), min_size=1, max_size=2,
                               unique=True))
    for *up, last in paths:
        parent = obj
        for k in up:
            parent = parent[k]
        parent[last] = data.draw(JSON_VALUES)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        infile = os.path.join(d, "in.json")
        with open(infile, "w") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "--in", infile, *argv[1:]])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2) and len(lines) == 1, (code, lines)
        assert lines[0].startswith(("bad input:", "error:", "folner search failed:")), lines


def test_out_into_missing_directory_is_bad_input(tmp_path, capsys):
    out = tmp_path / "missing" / "cert.json"
    assert main(["embed-cert", "--radius", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    # the rest of the line names a temp file with a random name
    assert captured.err.startswith(NO_FILE) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.parent.exists()


# --- the README's CLI examples -----------------------------------------------


def readme_examples():
    """The README's `gradedsrc` lines by command, and its JSON inputs by command."""
    cli = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## CLI")[1]
    sh = cli.split("```sh")[1].split("```")[0]
    lines = {ln.split()[1]: ln.split()[1:] for ln in sh.splitlines() if ln.startswith("gradedsrc ")}
    inputs = {}
    for block in re.split(r"^// ", cli.split("```jsonc")[1].split("```")[0], flags=re.M)[1:]:
        head, _, body = block.partition("\n")
        inputs[head.split(":")[0]] = json.loads(re.sub(r"//.*", "", body))
    return lines, inputs


README_LINES, README_INPUTS = readme_examples()

# the top-level keys of each command's output, as the README lists them
README_KEYS = {
    "folner": {"group", "f", "sizes", "ratio_bound", "provenance"},
    "theta": {"set_system", "alpha", "alpha_verified", "alpha_families", "theta", "provenance"},
    "graded-verify": {"fixture", "grade", "strongly_graded_witness_found", "witness", "reason",
                      "provenance"},
    "embed-cert": {"coeff", "radius", "columns", "rank", "kernel_dimension",
                   "injective_up_to_radius", "provenance"},
    "ideal": {"group", "membership", "distinguish", "provenance"},
}


@pytest.mark.parametrize("command", sorted(README_KEYS))
def test_readme_example_runs(tmp_path, command):
    argv = list(README_LINES[command])
    if "--in" in argv:
        at = argv.index("--in") + 1
        argv[at] = write(tmp_path, argv[at], README_INPUTS[command])
    out = str(tmp_path / "out.json")
    assert main(argv + ["--out", out]) == 0
    assert set(json.loads(open(out).read())) == README_KEYS[command]
