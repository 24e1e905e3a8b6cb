"""One repetition: a fresh interpreter that imports the CLI and runs ops.

Usage: python3 perfbench/child.py OPS_JSON [--trace]

OPS_JSON holds a list of CLI argument lists.  The first line written to
stdout reports the import time; then one JSON line per op; the last line
reports the repetition's wall time, peak RSS and, with --trace, the
per-layer aggregates.  An empty op list only measures the import.

Without --trace, the import and each op are followed by runs of a fixed
calibration loop that together take about CAL_SHARE of their time.  The host's speed
changes by a third within seconds, with CPU time equal to wall time; the
loop, timed in the same process right next to the ops, slows with it, so
the ratio of op time to loop time tracks the program, not the host.
"""

import time

_t0 = time.perf_counter()
import gradedsrc.cli as cli  # noqa: E402  (the import is what setup_s times)

_t1 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

CAL_SHARE = 0.5


def calibration_loop():
    """A fixed amount of pure-Python work of the program's kinds: exact
    fraction arithmetic, tuple-keyed dicts, sorting.  About 2.5 ms."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i * i % 101
    mix = 0
    for key, v in sorted(table.items()):
        mix ^= hash(key) + v
    return acc, mix


def calibrate(seconds):
    """Run the calibration loop at least once and until `seconds` have
    passed; return (time spent, loops run).  The collector is off, so the
    loop does not pay for scanning the objects the ops left behind; the
    loop makes no cycles."""
    gc.disable()
    start = time.perf_counter()
    loops = 0
    try:
        while True:
            calibration_loop()
            loops += 1
            spent = time.perf_counter() - start
            if spent >= seconds:
                return spent, loops
    finally:
        gc.enable()


def main(argv):
    proto = sys.stdout
    with open(argv[1]) as fh:
        ops = json.load(fh)
    tracer = None
    if "--trace" in argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    head = {"setup_s": _t1 - _t0, "module": cli.__file__}
    if tracer is None:
        calibration_loop()  # untimed: the first run pays for warming the loop's bytecode
        spent, loops = calibrate(CAL_SHARE * head["setup_s"])
        head["setup_loop_s"] = spent / loops
    print(json.dumps(head), file=proto, flush=True)
    busy = cal_s = 0.0
    cal_loops = 0
    emitted = 0
    for i, op in enumerate(ops):
        buf = io.StringIO()
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(op)
                else:
                    rc = tracer.call("cli.main", cli.main, (op,), {})
        except (Exception, SystemExit) as exc:  # any fault fails the op, not the run
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        busy += end - start
        out = buf.getvalue().encode()
        emitted += len(out)
        line = {
            "i": i,
            "rc": rc,
            "error": error,
            "latency_s": end - start,
            "sha256": hashlib.sha256(out).hexdigest(),
            "output": out.decode(),
        }
        print(json.dumps(line), file=proto, flush=True)
        if tracer is None:
            spent, loops = calibrate(CAL_SHARE * (end - start))
            cal_s += spent
            cal_loops += loops
    done = {
        "done": True,
        "wall_s": busy,  # the ops alone, back to back: the time to solution
        "cal_s": cal_s,
        "cal_loops": cal_loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        done["trace"] = tracer.report(emitted)
    print(json.dumps(done), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
