"""Benchmark driver for the gradedsrc CLI.

    python3 perfbench/run.py                         # every workload, summary table
    python3 perfbench/run.py --workload solve-z2s3 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --record-digests        # re-record perfbench/digests.json

Closed loop, one client.  A repetition is a fresh interpreter (child.py)
that imports gradedsrc.cli and makes one cli.main call per op, one after
another.  Repetitions run back to back until the next one would end after
--seconds (at least one).  With --trace 1 an untraced reference repetition
runs first, then traced ones; per-layer numbers come only from those.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import DIGESTS, check_output, load_digests  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, materialize  # noqa: E402

WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 11  # extra fresh imports per run, besides one per repetition
REP_DEADLINE_S = 120.0  # a repetition still running after this is killed
RUN_BUDGET_S = 150.0  # no repetition may run past this point of a run
# Time of one child.calibration_loop on an idle core of the 2-CPU Xeon host
# the benchmark was defined on.  setup_s is the import time scaled by this
# over the loop time measured in the same process: seconds at that speed.
REFERENCE_LOOP_S = 0.0025

# Bounded end-to-end metrics: the result line carries exactly these.
END_TO_END = {
    "wall_cal": "cal_loops",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with them but not bounded.  On a shared 2-CPU host the same op
# takes a third longer in one half-minute than in the next, with CPU time
# equal to wall time, so raw latencies spread past any bound the contract
# allows; wall_cal divides that host speed out.
PRINTED = {"wall_cal": "cal_loops", "wall_s": "s", "setup_s": "s", "setup_raw_s": "s",
           "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "groups.FiniteGroup.symmetric.self_s": "s",
    "groups.FiniteGroup.symmetric.calls": "count",
    "groups.folner_search.self_s": "s",
    "groups.folner_ratio_ok.calls": "count",
    "groups.folner_search.accept_ratio": "ratio",
    "groups.product_set.self_s": "s",
    "groups.ball.self_s": "s",
    "groups.ball.elements": "count",
    "srcsolve.solve_src.self_s": "s",
    "srcsolve.lift_system.self_s": "s",
    "srcsolve.lift_system.cells": "count",
    "srcsolve.lift_system.nnz": "count",
    "srcsolve.assemble_solution.self_s": "s",
    "srcsolve.verify_solution.self_s": "s",
    "srcsolve.truncated_kernel.self_s": "s",
    "linalg.kernel_basis.self_s": "s",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.rows": "count",
    "linalg.kernel_basis.cols": "count",
    "linalg.kernel_basis.nnz": "count",
    "linalg.kernel_basis.vectors": "count",
    "linalg.determinant.self_s": "s",
    "linalg.determinant.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.calls": "count",
    "coeff.ExtField.mul.self_s": "s",
    "coeff.ExtField.mul.calls": "count",
    "coeff.ExtField.inv.self_s": "s",
    "coeff.ExtField.inv.calls": "count",
    "coeff.ExtField.sub.self_s": "s",
    "coeff.ExtField.sub.calls": "count",
    "coeff.ff_extend.self_s": "s",
    "gring.GRElement.mul.self_s": "s",
    "gring.GRElement.mul.calls": "count",
    "bartholdi.search_set_system.self_s": "s",
    "bartholdi.SetSystem.validate.calls": "count",
    "bartholdi.search_set_system.accept_ratio": "ratio",
    "bartholdi.construct_alphas.self_s": "s",
    "bartholdi.construct_alphas.attempts": "count",
    "bartholdi.construct_alphas.extension_degree": "count",
    "bartholdi.verify_alphas.self_s": "s",
    "bartholdi.admissible_families": "count",
    "bartholdi.theta_certify.self_s": "s",
    "bartholdi.theta_certify.ncols": "count",
    "bartholdi.theta_certify.rank": "count",
    "bartholdi.theta_apply.self_s": "s",
    "serialize.system_from_json.self_s": "s",
    "serialize.solution_to_json.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics the tracer reports under another name, or as a ratio.
RENAMED = {"bartholdi.admissible_families": "bartholdi.admissible_families.families"}
RATIOS = {
    "groups.folner_search.accept_ratio": ("groups.folner_ratio_ok.accepted",
                                          "groups.folner_ratio_ok.calls"),
    "bartholdi.search_set_system.accept_ratio": ("bartholdi.SetSystem.validate.accepted",
                                                 "bartholdi.SetSystem.validate.calls"),
}


@dataclass
class Rep:
    traced: bool
    seconds: float  # process wall time, spawn to exit
    setup_s: float | None = None
    setup_loop_s: float | None = None  # calibration loop time right after the import
    ops: list = field(default_factory=list)  # one dict per finished op
    done: dict | None = None
    killed: bool = False
    returncode: int | None = None
    stderr: str = ""


def src_dir() -> Path:
    return ROOT / "src"


def run_child(opsfile: Path, traced: bool, timeout: float) -> Rep:
    cmd = [sys.executable, str(HERE / "child.py"), str(opsfile)] + (["--trace"] if traced else [])
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict layouts in every repetition
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir()), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    rep = Rep(traced, time.perf_counter() - start, killed=killed,
              returncode=proc.returncode, stderr=err[-2000:])
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue  # a line cut short by the kill
        if "setup_s" in msg:
            rep.setup_s = msg["setup_s"]
            rep.setup_loop_s = msg.get("setup_loop_s")
            if not Path(msg["module"]).resolve().is_relative_to(src_dir().resolve()):
                raise SystemExit(f"gradedsrc imported from {msg['module']}, not from {src_dir()}")
        elif msg.get("done"):
            rep.done = msg
        else:
            rep.ops.append(msg)
    return rep


def environment(seed: int) -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                    if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((src_dir() / "gradedsrc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "loadavg_at_start": load,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tail_percentile(ops_per_rep: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in one
    repetition (nearest rank).  Below 20 ops that percentile is not a tail,
    so the maximum (p100) is used.  Fixed per workload, so pooling more
    repetitions keeps the tail on the same op."""
    if ops_per_rep < 20:
        return 100
    return math.floor(100 * (ops_per_rep - 10) / ops_per_rep)


def nearest_rank(values, pct: int):
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def write_ops(ops, workdir: Path) -> Path:
    """Input files plus the list of argument lists a child reads."""
    opsfile = workdir / "ops.json"
    argvs = materialize(ops, workdir)
    opsfile.write_text(json.dumps(argvs))
    return opsfile


def key_hash(op) -> str:
    return hashlib.sha256(op.key().encode()).hexdigest()


class Checker:
    """Checks each distinct (op, output) once; remembers failures."""

    def __init__(self, ops):
        self.ops = ops
        self.keys = [key_hash(op) for op in ops]
        self.digests = load_digests().get("ops", {})
        self.seen = {}
        self.failures = []

    def op_failure(self, rec) -> str | None:
        op = self.ops[rec["i"]]
        if rec["error"] is not None:
            return rec["error"]
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}"
        memo = (rec["i"], rec["sha256"])
        if memo not in self.seen:
            want = self.digests.get(self.keys[rec["i"]])
            if want is not None and want != rec["sha256"]:
                self.seen[memo] = "output differs from the recorded digest"
            else:
                self.seen[memo] = check_output(op, rec["output"])
        return self.seen[memo]

    def count(self, rep: Rep) -> int:
        """Failed ops of a repetition, unfinished ones included."""
        failed = 0
        for rec in rep.ops:
            why = self.op_failure(rec)
            if why is not None:
                failed += 1
                self.failures.append(f"op {rec['i']} {' '.join(self.ops[rec['i']].argv)}: {why}")
        missing = len(self.ops) - len(rep.ops)
        if missing:
            failed += missing
            state = "killed at the deadline" if rep.killed else f"exit {rep.returncode}"
            self.failures.append(f"{missing} ops unfinished ({state}): {rep.stderr.strip()[-300:]}")
        return failed


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    run_start = time.perf_counter()
    ops = WORKLOADS[workload](seed)
    workdir = WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    opsfile = write_ops(ops, workdir)
    emptyfile = workdir / "no_ops.json"
    emptyfile.write_text("[]")
    try:
        probes = [] if traced else [run_child(emptyfile, False, 60.0)
                                    for _ in range(SETUP_PROBES)]

        def budget():
            return min(REP_DEADLINE_S, RUN_BUDGET_S - (time.perf_counter() - run_start))

        reps = []
        loop_start = time.perf_counter()
        if traced:
            reps.append(run_child(opsfile, False, budget()))
        while True:
            rep = run_child(opsfile, traced, budget())
            reps.append(rep)
            longest = max(r.seconds for r in reps if r.traced == traced)
            now = time.perf_counter()
            if (rep.killed or now - loop_start + longest > seconds
                    or now - run_start + longest > RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = Checker(ops)
    failed = sum(checker.count(rep) for rep in reps)
    attempted = len(ops) * len(reps)
    complete = [r for r in reps if r.done is not None]
    plain = [r for r in complete if not r.traced]
    imports = [r for r in probes + reps if r.setup_s is not None and r.setup_loop_s]
    setups = [r.setup_s * REFERENCE_LOOP_S / r.setup_loop_s for r in imports]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "repetitions": len(reps),
        "ops_per_repetition": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:20],
        "setup_samples": len(setups),
        "op_latencies_ms": [[rec["latency_s"] * 1000 for rec in r.ops] for r in reps],
    }
    if traced:
        result["per_layer"] = per_layer(complete)
    else:
        latencies = [rec["latency_s"] * 1000 for r in reps if not r.traced for rec in r.ops]
        pct = tail_percentile(len(ops))
        result["tail_percentile"] = pct
        result["op_samples"] = len(latencies)
        walls = [r.done["wall_s"] for r in plain]
        loop_s = [r.done["cal_s"] / r.done["cal_loops"] for r in plain]
        rss = [r.done["peak_rss_mb"] for r in plain]
        result["repetition_walls_s"] = walls
        result["calibration_loop_s"] = loop_s
        in_loops = [w / c for w, c in zip(walls, loop_s)]
        result["end_to_end"] = {
            "wall_cal": statistics.median(in_loops) if in_loops else None,
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setups) if setups else None,
            "setup_raw_s": statistics.median(r.setup_s for r in imports) if imports else None,
            "op_p50_ms": statistics.median(latencies) if latencies else None,
            "op_tail_ms": nearest_rank(latencies, pct) if latencies else None,
            "peak_rss_mb": statistics.median(rss) if rss else None,
        }
    return result


def per_layer(reps) -> dict:
    """Medians over the traced repetitions: each per-layer metric, the
    targets found absent, and every target's share of the traced wall_s."""
    traced = [r.done for r in reps if r.traced]
    plain = [r.done["wall_s"] for r in reps if not r.traced]
    if not traced:
        return {"values": {}, "absent": [], "shares": {}}
    wall = statistics.median(d["wall_s"] for d in traced)
    merged = {}
    for d in traced:
        for k, v in d["trace"]["metrics"].items():
            merged.setdefault(k, []).append(v)
    m = {k: statistics.median(v) for k, v in merged.items()}
    values = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            if num in m and den in m:
                values[name] = m[num] / m[den] if m[den] else 0.0
        elif RENAMED.get(name, name) in m:
            values[name] = m[RENAMED.get(name, name)]
    if plain:
        values["trace.overhead_s"] = wall - statistics.median(plain)
    shares = {k[: -len(".self_s")]: v / wall for k, v in m.items() if k.endswith(".self_s")}
    absent = sorted({a for d in traced for a in d["trace"]["absent"] + d["trace"]["broken"]})
    return {"values": values, "absent": absent, "shares": shares}


def result_line(result: dict) -> dict:
    if result["trace"]:
        units, values = PER_LAYER, result["per_layer"]["values"]
    else:
        units, values = END_TO_END, result["end_to_end"]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()
               if v is not None and k in units}
    correct = result["failed"] == 0 and (bool(result["trace"]) or len(metrics) == len(units))
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def summary(result: dict) -> list:
    head = (f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
            f"{result['repetitions']} repetitions of {result['ops_per_repetition']} ops")
    lines = [head]
    ratio = result["failed"] / result["attempted"]
    if result["trace"]:
        pl = result["per_layer"]
        for name, unit in PER_LAYER.items():
            value = pl["values"].get(name)
            shown = "absent" if value is None else f"{value:.6g} {unit}"
            lines.append(f"  {name:46s} {shown}")
        top = sorted(pl["shares"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("  busy-time shares of traced wall_s: "
                     + ", ".join(f"{k} {v:.0%}" for k, v in top))
        if pl["absent"]:
            lines.append("  absent targets: " + ", ".join(pl["absent"]))
    else:
        e2e = result["end_to_end"]
        notes = {
            "wall_cal": f"wall_s / calibration loop, median of {result['repetitions']} "
                        "repetitions",
            "wall_s": f"median of {result['repetitions']} repetitions",
            "setup_s": f"import at the reference speed, median of {result['setup_samples']} "
                       "fresh imports",
            "setup_raw_s": "the same imports as timed",
            "op_p50_ms": f"{result['op_samples']} samples",
            "op_tail_ms": f"p{result['tail_percentile']}, nearest rank, "
                          f"{result['op_samples']} samples",
            "peak_rss_mb": "median over repetitions",
        }
        for name, unit in PRINTED.items():
            v = e2e[name]
            shown = "n/a" if v is None else f"{v:.6g}"
            lines.append(f"  {name:12s} {shown} {unit}  ({notes[name]})")
    lines.append(f"  {'fail_ratio':12s} {ratio:.6g}  ({result['failed']} of "
                 f"{result['attempted']} ops failed)")
    lines += [f"  FAIL {f}" for f in result["failures"]]
    return lines


def record_digests():
    table = {}
    for name, make in WORKLOADS.items():
        ops = make(DEFAULT_SEED)
        workdir = WORKDIR / f"record-{name}"
        rep = run_child(write_ops(ops, workdir), False, 600.0)
        shutil.rmtree(workdir, ignore_errors=True)
        checker = Checker(ops)
        checker.digests = {}
        if checker.count(rep):
            raise SystemExit(f"{name}: not recording failing outputs: {checker.failures}")
        for rec in rep.ops:
            table[key_hash(ops[rec["i"]])] = rec["sha256"]
        print(f"{name}: {len(rep.ops)} digests", flush=True)
    env = environment(DEFAULT_SEED)
    DIGESTS.write_text(json.dumps({"recorded_with": {k: env[k] for k in ("python", "commit",
                                                                         "src_sha256")},
                                   "seed": DEFAULT_SEED, "ops": table},
                                  indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not (src_dir() / "gradedsrc" / "cli.py").is_file():
        print(f"no program to measure: {src_dir() / 'gradedsrc' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    WORKDIR.mkdir(exist_ok=True)
    lines = []
    for name in names:
        result = measure(name, args.seed, seconds, bool(args.trace))
        result["env"] = env
        out = WORKDIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        for line in summary(result):
            print(line, flush=True)
        lines.append(result_line(result))
    if len(lines) == 1:
        print(json.dumps(lines[0]), flush=True)
    else:
        print(json.dumps({"correct": all(x["correct"] for x in lines),
                          "attempted": sum(x["attempted"] for x in lines),
                          "failed": sum(x["failed"] for x in lines),
                          "workloads": dict(zip(names, lines))}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
