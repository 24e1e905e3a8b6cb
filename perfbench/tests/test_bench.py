"""Self-tests of the benchmark: inputs, output checks, tracing, deadline.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

# A cheap cross-section: every command and all three checkers.
W1 = workloads.solve_z2s3(workloads.DEFAULT_SEED)
W1_S3 = [op for op in W1 if op.system["group"]["family"] == "symmetric"]
SMALL = (
    [op for op in W1 if op.system["m"] == 1 and op not in W1_S3][:4]
    + W1_S3[:6]
    + [op for op in workloads.cert_sweep(workloads.DEFAULT_SEED)
       if op.argv[-1] == "3" or op.argv[0] == "theta" and op.argv[2] in ("1", "2")]
)


def _run_ops(ops, tmp_path, traced, name, timeout=120.0):
    return run.run_child(run.write_ops(ops, tmp_path / name), traced, timeout)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    return {
        "plain": _run_ops(SMALL, tmp, False, "plain"),
        "traced1": _run_ops(SMALL, tmp, True, "traced1"),
        "traced2": _run_ops(SMALL, tmp, True, "traced2"),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    for seed in (workloads.DEFAULT_SEED, 7):
        a = workloads.materialize(make(seed), tmp_path / "a")
        b = workloads.materialize(make(seed), tmp_path / "b")
        assert [x[:-2] if "--in" in x else x for x in a] == [
            x[:-2] if "--in" in x else x for x in b]
        for fa, fb in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
            assert fa.read_bytes() == fb.read_bytes()
        shutil.rmtree(tmp_path / "a")
        shutil.rmtree(tmp_path / "b")
    if name.startswith("solve"):
        assert [op.key() for op in make(7)] != [op.key() for op in make(8)]


def test_default_seed_is_criterion_1():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    from gradedsrc.serialize import system_to_json
    from test_acceptance import _random_s3_system, _random_z2_system

    rng = random.Random(20260823)
    z2 = [_random_z2_system(rng) for _ in range(50)]
    want = [system_to_json(s) for i, s in enumerate(z2)
            if (s.m, s.n) != (3, 4) or i in workloads.KEPT_3X4]
    assert len(want) == 40
    want += [system_to_json(_random_s3_system(rng)) for _ in range(20)]
    ops = workloads.solve_z2s3(workloads.DEFAULT_SEED)
    assert [json.loads(json.dumps(op.system)) for op in ops] == json.loads(json.dumps(want))
    assert [op.argv for op in ops] == [("solve", "--budget", "20")] * 40 + [
        ("solve", "--budget", "1")] * 20


def test_default_seed_outputs_are_criterion_1_solutions(small_runs):
    sys.path.insert(0, str(ROOT / "src"))
    from gradedsrc.serialize import solution_to_json, system_from_json
    from gradedsrc.srcsolve import solve_src

    for rec in small_runs["plain"].ops:
        op = SMALL[rec["i"]]
        if op.argv[0] != "solve":
            continue
        sys_obj = system_from_json(op.system)
        sol = solve_src(sys_obj, budget=int(op.argv[2]))
        want = solution_to_json(sys_obj.ring, sol.xs, sol.verified, {})
        assert json.loads(rec["output"])["solution"] == want["solution"]


def test_recorded_digests_cover_every_default_seed_op():
    table = check.load_digests()["ops"]
    for make in workloads.WORKLOADS.values():
        for op in make(workloads.DEFAULT_SEED):
            assert run.key_hash(op) in table


def test_small_runs_pass_every_check(small_runs):
    for rep in small_runs.values():
        checker = run.Checker(SMALL)
        assert checker.count(rep) == 0, checker.failures


def test_traced_and_untraced_outputs_are_identical(small_runs):
    plain = [rec["sha256"] for rec in small_runs["plain"].ops]
    assert len(plain) == len(SMALL)
    for name in ("traced1", "traced2"):
        assert [rec["sha256"] for rec in small_runs[name].ops] == plain


def test_only_untraced_repetitions_calibrate(small_runs):
    plain = small_runs["plain"].done
    assert plain["cal_loops"] >= len(SMALL) and plain["cal_s"] > 0
    assert small_runs["traced1"].done["cal_loops"] == 0


def test_exact_counts_repeat_across_traced_runs(small_runs):
    a = small_runs["traced1"].done["trace"]["metrics"]
    b = small_runs["traced2"].done["trace"]["metrics"]
    counts = {k: v for k, v in a.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in b.items() if not k.endswith("_s")}
    assert counts["linalg.kernel_basis.calls"] > 0
    assert counts["coeff.ExtField.mul.calls"] > 0
    assert counts["bartholdi.theta_certify.ncols"] > 0


def test_kernel_basis_counted_once_per_call_over_z():
    sys.path.insert(0, str(ROOT / "src"))
    from gradedsrc import srcsolve
    from gradedsrc.coeff import ZZ

    tracer = Tracer()
    tracer.install([t for t in run_targets() if t.name == "linalg.kernel_basis"])
    try:
        srcsolve.kernel_basis([[1, 2, 3]], ZZ)  # the Z path calls itself once over Q
    finally:
        tracer.uninstall()
    metrics = tracer.report(0)["metrics"]
    assert metrics["linalg.kernel_basis.calls"] == 1
    assert metrics["linalg.kernel_basis.vectors"] == 2


def run_targets():
    import tracer

    return tracer.TARGETS


def test_missing_targets_are_absent_not_zero():
    sys.path.insert(0, str(ROOT / "src"))
    import gradedsrc.cli  # noqa: F401

    tracer = Tracer()
    tracer.install([Target("linalg.gone", "linalg", "gone"),
                    Target("coeff.Gone.mul", "coeff", "mul", cls="Gone"),
                    Target("vanished.fn", "vanished", "fn")])
    report = tracer.report(0)
    assert report["absent"] == ["coeff.Gone.mul", "linalg.gone", "vanished.fn"]
    assert not [k for k in report["metrics"] if "gone" in k.lower() or "vanished" in k]


def test_deadline_kills_a_solve_that_never_stops(tmp_path):
    # Q[F_2] with support {1, a, b} and n/m = 2: the Folner search runs on.
    system = {"group": {"family": "free", "rank": 2}, "coeff": {"ring": "Q"}, "m": 1, "n": 2,
              "a": [[[["", "1/1"], ["a", "1/1"]], [["b", "1/1"]]]]}
    ops = [workloads.Op(("solve", "--budget", "64"), system),
           W1_S3[0]]
    rep = _run_ops(ops, tmp_path, False, "hang", timeout=3.0)
    assert rep.killed and rep.returncode is not None
    assert rep.seconds < 30
    checker = run.Checker(ops)
    assert checker.count(rep) == 2


def test_checks_reject_wrong_outputs(small_runs):
    outputs = {SMALL[rec["i"]].argv: (SMALL[rec["i"]], rec["output"])
               for rec in small_runs["plain"].ops}
    solve_op, text = next(v for k, v in outputs.items() if k[0] == "solve")
    out = json.loads(text)
    x = next(x for x in out["solution"] if x)
    x[0][1] = "7/1" if x[0][1] != "7/1" else "5/1"
    assert check.check_solve(solve_op.system, json.dumps(out))
    theta_op, text = outputs[("theta", "--radius", "2", "--seed", str(workloads.DEFAULT_SEED))]
    out = json.loads(text)
    out["theta"]["rank"] -= 1
    assert check.check_output(theta_op, json.dumps(out))
    embed_op, text = outputs[("embed-cert", "--coeff", "Q", "--radius", "3")]
    out = json.loads(text)
    out["kernel_dimension"] = 1
    assert check.check_output(embed_op, json.dumps(out))


def test_theta_witness_is_applied_again():
    ops = workloads.cert_sweep(workloads.DEFAULT_SEED)
    op = ops[3]  # theta --radius 3 returns a kernel witness
    sys.path.insert(0, str(ROOT / "src"))
    import contextlib
    import io

    from gradedsrc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(op.argv)) == 0
    report = json.loads(buf.getvalue())
    assert report["theta"]["witness"] is not None
    assert check.check_output(op, buf.getvalue()) is None
    word, coeff = report["theta"]["witness"][0][0]
    report["theta"]["witness"][0][0] = [word, [1 - coeff[0]] + coeff[1:]]
    assert check.check_output(op, json.dumps(report)) == "Theta(witness) is not zero"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-s5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
