"""One benchmark operation in a fresh interpreter.

Usage: ``python3 bench/child.py '<json spec>'`` from the checkout root, where
the spec holds ``argv`` (the ``facalc`` command line), ``trace`` (install the
span wrappers of ``spans.py``), ``host_speed`` (time the reference task,
below) and ``renormalize`` (a file path: the command prints a structure file,
which must reproduce itself through ``normalize``).

The child imports ``facalc.cli`` from ``src``, notes when it is ready, runs
``cli.main(argv)`` once with stdout and stderr captured, and prints one JSON
object: exit code, captured output, wall and CPU time of ``cli.main``, the
moment it was ready on the shared monotonic clock, its peak RSS and, when
traced, the span report.

With ``host_speed`` an untraced child also times a short fixed facalc-free task before,
during and after ``cli.main`` (``HostSpeed``), in the same process and so on
the same CPU.  ``run.py`` divides the operation's times by it, so that a
slower or faster moment of the shared host scales both alike and cancels.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def run_cli(cli, argv):
    """(exit code, stdout + stderr, traceback text or None)."""
    out = io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed operation, never raised
            code, tb = None, traceback.format_exc()
    return code, out.getvalue(), tb


def reference_task() -> Fraction:
    """Fixed interpreter work of the kind facalc's inner loops do: tuple
    keys, dict updates, calls and rational arithmetic.  No facalc code."""
    acc = {}
    for i in range(1, 65):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    return sum(acc.values())


EDGE_TASKS = 12  # reference tasks timed just before and just after cli.main
TICK_S = 0.02  # one more is timed on every tick of this timer during cli.main


class HostSpeed:
    """Times the reference task around and during one operation.

    During ``cli.main`` a wall-clock timer interrupts the operation every
    ``TICK_S`` and the signal handler times one reference task, so a long
    operation is scaled by the speed the host had while it ran, not only at
    its edges.  ``in_op_s`` is the time the handler took, which the child
    takes off the operation's wall and CPU time.  The collector is off while
    a task is timed, so the heap the operation built does not change it.
    """

    def __init__(self) -> None:
        self.times: list = []
        self.spent_s = 0.0
        self.in_op_s = 0.0

    def _time_task(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(t1 - t0)
        return time.perf_counter() - t0

    def edge(self) -> None:
        self.spent_s += sum(self._time_task() for _ in range(EDGE_TASKS))

    def _tick(self, signum, frame) -> None:
        self.in_op_s += self._time_task()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.spent_s += self.in_op_s

    def task_s(self) -> float:
        """Mean of the middle half of the task times: the host's speed over
        the operation, without the odd interrupted task."""
        times = sorted(self.times)
        k = len(times) // 4
        return statistics.fmean(times[k:len(times) - k])


# Report-only field of eval outputs; it is not part of the structure model,
# so normalize drops it and the reproduction check ignores it.
REPORT_ONLY = "meta"


def renormalizes(cli, text: str, path: str) -> bool:
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    doc.pop(REPORT_ONLY, None)
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        code, again, tb = run_cli(cli, ["normalize", path])
    finally:
        os.remove(path)
    return code == 0 and tb is None and again == want


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    from facalc import cli

    ready = time.monotonic()
    tracer = None
    if spec.get("trace"):
        from spans import Tracer  # bench/spans.py, via the script's directory on sys.path

        tracer = Tracer().install()

    speed = HostSpeed() if spec.get("host_speed") and tracer is None else None
    if speed is not None:
        speed.edge()
        speed.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code, text, tb = run_cli(cli, spec["argv"])
    if speed is not None:
        speed.stop()  # before the clocks are read, so no tick falls outside them
    latency = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if speed is not None:
        speed.edge()
        latency -= speed.in_op_s
        cpu -= speed.in_op_s

    result = {
        "code": code,
        "output": text,
        "traceback": tb,
        "latency_s": latency,
        "cpu_s": cpu,
        "ready": ready,
        "reference_s": speed.task_s() if speed is not None else 0.0,
        "reference_spent_s": speed.spent_s if speed is not None else 0.0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.uninstall()
    if spec.get("renormalize") and tb is None:
        result["renormalized"] = renormalizes(cli, text, spec["renormalize"])
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
