"""Cold-process benchmark of the facalc command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop: each operation is one ``facalc.cli.main(argv)``
call in a fresh child interpreter (``child.py``), started only after the
previous one has exited, because a user pays a cold process on every command
and an in-process loop would let warm module-level caches (the
``tcoalg.word_blocks`` LRU cache) halve the measured cost.  The loop runs
whole rounds of the workload's operation list until ``--seconds`` have passed,
so every run measures the same mix.  Every output is checked: golden-argument
operations byte for byte against ``tests/golden``, other fixture operations
against the digests in ``reference.json``, ``dense`` operations against
results known by construction, and every structure-file output must
reproduce itself through ``normalize``.  A wrong output, an unexpected exit
code, a traceback or a timeout is a failed operation.

Workloads (BENCHMARK.json says why each exists; LAYERS.md says which layer
metric should move which end-to-end metric on which workload):

* ``verify``    -- the A-infinity checkers over the strict block engine;
* ``transport`` -- compose, push, pull and eval at golden arguments;
* ``solve``     -- ``solve-psi``: the engine as the solver's inner oracle;
* ``dense``     -- seeded structure files with multi-term scalars through
  ``check-b2`` and ``normalize`` (``dense.py``).  Only ``dense`` uses
  ``--seed``; the fixture workloads ignore it.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled by a
fixed reference task that each child times around ``cli.main``, so they read
as seconds on the machine the benchmark was written on at its usual speed
(LAYERS.md, "Host speed"); the unscaled figures are printed above the last
line.  ``--trace 1`` alternates an
untraced round with a traced one (``spans.py`` wrappers installed in the
child) and prints the per-layer metrics: work counts and times per round,
the self-time share of each module, the tracing overhead and the
microbenchmarks of ``micro.py``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import dense  # noqa: E402

CHILD = BENCH / "child.py"
MICRO = BENCH / "micro.py"
GOLDEN = ROOT / "tests" / "golden"
REFERENCE = BENCH / "reference.json"
WORK = BENCH / ".work"

OP_TIMEOUT_S = 60
# No round starts when it could end past this, so a run exits within 180 s.
HARD_LIMIT_S = 140

DENSE_DOCS = 3
DENSE_N_MAX = 3


@dataclass(frozen=True)
class Op:
    """One command line and how its output is judged."""

    name: str
    argv: Tuple[str, ...]
    golden: Optional[str] = None  # tests/golden/<golden>.txt, exit line included
    expected: Optional[str] = None  # full expected "exit N\n" + output
    structure: bool = False  # prints a structure file: must renormalize to itself


FIX = "tests/fixtures/"


def _golden(name: str, *argv: str, structure: bool = False) -> Op:
    return Op(name, tuple(argv), golden=name, structure=structure)


def _digest(name: str, *argv: str) -> Op:
    return Op(name, tuple(argv))


VERIFY = [
    _golden("check_b2_b1_only", "check-b2", FIX + "b1_only.json"),
    _golden("check_b2_curved", "check-b2", FIX + "curved_min.json"),
    _golden("check_b2_assoc", "check-b2", FIX + "assoc.json"),
    _golden("check_b2_nonassoc", "check-b2", FIX + "nonassoc.json"),
    _golden("check_b2_nonassoc_json", "check-b2", FIX + "nonassoc.json", "--format", "json"),
    _golden("check_b2_empty", "check-b2", FIX + "empty.json"),
    _golden("check_functor_b1_only", "check-functor", FIX + "b1_only.json"),
    _golden("check_functor_fbad", "check-functor", FIX + "b1_only.json",
            "--functor", "fbad", "--n-max", "2"),
    _golden("check_coder_b2_b1_only", "check-coder-b2", FIX + "b1_only.json",
            "--n-max", "2", "--word-len-max", "3"),
    _golden("check_coder_b2_curved", "check-coder-b2", FIX + "curved_min.json",
            "--n-max", "2", "--word-len-max", "3"),
    _digest("check_b2_b1_only_n6", "check-b2", FIX + "b1_only.json", "--n-max", "6"),
    _digest("check_b2_assoc_n6", "check-b2", FIX + "assoc.json", "--n-max", "6"),
    _digest("check_b2_nonassoc_n6", "check-b2", FIX + "nonassoc.json", "--n-max", "6"),
    _digest("check_functor_b1_only_n5", "check-functor", FIX + "b1_only.json", "--n-max", "5"),
    _digest("check_coder_b2_b1_only_n3_w4", "check-coder-b2", FIX + "b1_only.json",
            "--n-max", "3", "--word-len-max", "4"),
]

TRANSPORT = [
    _golden("compose_curved", "compose", FIX + "curved_compose.json", structure=True),
    _golden("compose_b1_only", "compose", FIX + "b1_only.json", structure=True),
    _golden("push_b1_only", "push", FIX + "b1_only.json", structure=True),
    _golden("pull_b1_only", "pull", FIX + "b1_only.json", structure=True),
    _golden("eval_b1_only", "eval", FIX + "b1_only.json", structure=True),
    _golden("eval_lossy", "eval", FIX + "lossy_eval.json", structure=True),
    # A wider window than the golden one: more transport work per round.
    Op("compose_b1_only_w7", ("compose", FIX + "b1_only.json", "--window", "7,3"),
       structure=True),
]

SOLVE = [
    _golden("solve_psi_roundtrip", "solve-psi", FIX + "psi_roundtrip.json", structure=True),
]


def dense_ops(seed: int, workdir: Path) -> List[Op]:
    """Write the seed's documents in canonical form, through facalc's own
    loader and printer, and return their operations.  The expected outputs
    come from ``dense.py`` alone, not from facalc."""
    sys.path.insert(0, str(ROOT / "src"))
    from facalc import structfile

    ops = []
    for i in range(DENSE_DOCS):
        text = dense.document_text(dense.generate(seed, i))
        path = workdir / f"dense_{i}.json"
        path.write_text(
            structfile.dump_document(structfile.model_to_json(structfile.load_model(text))),
            encoding="utf-8",
        )
        rel = path.relative_to(ROOT).as_posix()
        ops.append(Op(f"dense_{i}_check_b2", ("check-b2", rel, "--n-max", str(DENSE_N_MAX)),
                      expected="exit 0\n" + dense.check_b2_report(rel, DENSE_N_MAX)))
        ops.append(Op(f"dense_{i}_check_b2_json",
                      ("check-b2", rel, "--n-max", str(DENSE_N_MAX), "--format", "json"),
                      expected="exit 0\n" + dense.check_b2_report(rel, DENSE_N_MAX, "json")))
        ops.append(Op(f"dense_{i}_normalize", ("normalize", rel), expected="exit 0\n" + text))
    return ops


FIXTURE_WORKLOADS = {"verify": VERIFY, "transport": TRANSPORT, "solve": SOLVE}
WORKLOADS = list(FIXTURE_WORKLOADS) + ["dense"]


# ---------------------------------------------------------------------------
# Running and checking one operation

def digest(code, output: str) -> str:
    return hashlib.sha256(f"exit {code}\n{output}".encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, dict]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@dataclass
class Sample:
    op: str
    ok: bool
    why: str
    latency_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    wall_s: float = 0.0
    maxrss_kb: int = 0
    reference_s: float = 0.0
    reference_spent_s: float = 0.0
    trace: Optional[dict] = None


def spawn(op: Op, trace: bool, workdir: Path,
          host_speed: bool = True) -> Tuple[Optional[dict], str, float]:
    """Run one operation in a child: (result or None, failure reason, spawn time).
    The child has always ended when this returns."""
    spec = {"argv": list(op.argv), "trace": trace, "host_speed": host_speed}
    if op.structure:
        spec["renormalize"] = str(workdir / "renormalize.json")
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "timeout", started
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {err.strip()[-300:]}", started
    try:
        return json.loads(out), "", started
    except ValueError:
        return None, "unreadable child output", started


def judge(op: Op, res: dict, reference: Dict[str, dict]) -> str:
    """Empty string when the output is correct, else the reason it is not."""
    if res["traceback"]:
        return "traceback: " + res["traceback"].strip().splitlines()[-1]
    got = f"exit {res['code']}\n{res['output']}"
    if op.golden is not None:
        want = (GOLDEN / f"{op.golden}.txt").read_text(encoding="utf-8")
        if got != want:
            return f"differs from tests/golden/{op.golden}.txt"
    elif op.expected is not None:
        if got != op.expected:
            return "differs from the expected output"
    else:
        ref = reference.get(op.name)
        if ref is None or ref["argv"] != list(op.argv):
            return "reference.json has no digest for this command line"
        if digest(res["code"], res["output"]) != ref["sha256"]:
            return "digest differs from reference.json"
    if op.structure and not res.get("renormalized"):
        return "output does not reproduce itself through normalize"
    return ""


def run_op(op: Op, trace: bool, workdir: Path, reference: Dict[str, dict],
           host_speed: bool = True) -> Sample:
    res, why, started = spawn(op, trace, workdir, host_speed)
    wall = time.monotonic() - started
    if res is None:
        return Sample(op.name, False, why, wall_s=wall)
    why = judge(op, res, reference)
    return Sample(
        op.name, not why, why,
        latency_s=res["latency_s"], cpu_s=res["cpu_s"], setup_s=res["ready"] - started,
        wall_s=wall, maxrss_kb=res["maxrss_kb"], reference_s=res["reference_s"],
        reference_spent_s=res["reference_spent_s"], trace=res.get("trace"),
    )


def run_round(ops: List[Op], trace: bool, workdir: Path, reference,
              host_speed: bool = True) -> List[Sample]:
    samples = [run_op(op, trace, workdir, reference, host_speed) for op in ops]
    for s in samples:
        if not s.ok:
            print(f"FAILED {s.op}: {s.why}", file=sys.stderr)
    return samples


# ---------------------------------------------------------------------------
# Metrics

# Usual time of child.reference_task on the machine the benchmark was written
# on (2 vCPUs, Python 3.11.7).  Each operation's times are multiplied by this
# over the reference time its own child measured around and during it, so the
# figures read as seconds on that machine at its usual speed, whatever the
# speed of the shared host at the moment of the operation.
REFERENCE_NOMINAL_S = 0.00078


def end_to_end(samples: List[Sample], scaled: bool = True) -> Dict[str, Tuple[float, str]]:
    """Latency and CPU are the mean over the workload's operations of each
    operation's median, so a figure does not jump between the cost clusters
    of a mixed workload.  ``ops_per_s`` divides the correct operations by the
    children's summed wall time, child start to exit, without the reference
    task."""
    done = [s for s in samples if s.latency_s]
    by_op: Dict[str, List[Sample]] = defaultdict(list)
    for s in done:
        by_op[s.op].append(s)

    def scale(s: Sample) -> float:
        return REFERENCE_NOMINAL_S / s.reference_s if scaled and s.reference_s else 1.0

    def mean_of_op_medians(value) -> float:
        return statistics.fmean(
            statistics.median(value(s) * scale(s) for s in group) for group in by_op.values())

    busy = sum((s.wall_s - s.reference_spent_s) * scale(s) for s in samples)
    return {
        "ops_per_s": (sum(s.ok for s in samples) / busy, "1/s"),
        "latency_p50_s": (mean_of_op_medians(lambda s: s.latency_s), "s"),
        "cpu_s_per_op": (mean_of_op_medians(lambda s: s.cpu_s), "s"),
        "setup_s": (statistics.median(s.setup_s * scale(s) for s in done), "s"),
        "peak_rss_mb": (max(s.maxrss_kb for s in done) / 1024, "MB"),
    }


MODULES = ("cli", "structfile", "ainfty", "morphisms", "evalhom", "tcoalg", "filtquiver",
           "novikov", "levels")


def per_layer(traced: List[Sample], rounds: int) -> Dict[str, Tuple[float, str]]:
    """Per-round work counts and times from the traced children."""
    calls: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    edge_calls: Dict[Tuple[str, str], float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    hits = misses = cached = 0
    for s in traced:
        t = s.trace
        if t is None:
            continue
        for parent, name, c, tot, slf in t["edges"]:
            calls[name] += c
            total[name] += tot
            self_s[name] += slf
            edge_calls[(parent, name)] += c
        for k, v in t["counts"].items():
            counts[k] += v
        hits += t["word_blocks"]["hits"]
        misses += t["word_blocks"]["misses"]
        cached = max(cached, t["word_blocks"]["cached"])

    def per_round(x: float) -> float:
        return x / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def sum_of(table, *names) -> float:
        return sum(table[n] for n in names)

    checks = ("ainfty.check_b_squared", "ainfty.check_ainf_functor",
              "ainfty.check_coder_b_squared", "ainfty.check_transfer_identity")
    transports = ("morphisms.compose_cofunctors", "morphisms.push_coderivation",
                  "morphisms.pull_coderivation")
    slot = "morphisms.slot_value"
    m = {
        "morphisms.slot_value_calls": (per_round(calls[slot]), "count"),
        "morphisms.slot_value_self_s": (per_round(self_s[slot]), "s"),
        "morphisms.splits_per_term": (
            ratio(edge_calls[(slot, "tcoalg.word_blocks")], counts["slot_value.out_terms"]), "ratio"),
        "morphisms.slot_value_repeat_ratio": (ratio(counts["slot_value.repeats"], calls[slot]), "ratio"),
        "morphisms.comp_value_calls": (per_round(sum_of(
            calls, "morphisms.Cofunctor.comp_value", "morphisms.Coderivation.comp_value")), "count"),
        "morphisms.transport_self_s": (per_round(sum_of(self_s, *transports)), "s"),
        "tcoalg.word_blocks_calls": (per_round(hits + misses), "count"),
        "tcoalg.word_blocks_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "tcoalg.word_blocks_cached": (float(cached), "count"),
        "tcoalg.tensor_elements": (per_round(calls["tcoalg.TensorElement.__init__"]), "count"),
        "tcoalg.truncate_calls": (per_round(calls["tcoalg.truncate_element"]), "count"),
        "tcoalg.lossy": (per_round(counts["truncate.lossy"]), "count"),
        "novikov.mul_calls": (per_round(calls["novikov.nov_mul"]), "count"),
        "novikov.add_calls": (per_round(calls["novikov.nov_add"]), "count"),
        "novikov.terms_per_mul": (ratio(counts["nov_mul.term_products"], calls["novikov.nov_mul"]), "ratio"),
        "novikov.mul_self_s": (per_round(self_s["novikov.nov_mul"]), "s"),
        "ainfty.check_self_s": (per_round(sum_of(self_s, *checks)), "s"),
        "ainfty.entries": (per_round(counts["check.entries"]), "count"),
        "ainfty.letter_builds": (per_round(sum_of(
            calls, "ainfty.coder_b0", "ainfty.coder_b1", "ainfty.coder_bn")), "count"),
        "evalhom.solve_self_s": (per_round(self_s["evalhom.solve_psi"]), "s"),
        "evalhom.ev_calls": (per_round(calls["evalhom.ev"]), "count"),
        "evalhom.box_splits": (per_round(counts["evalhom.multi_box_splits.yields"]), "count"),
        "structfile.load_s": (per_round(total["structfile.load_model_file"]), "s"),
        "structfile.dump_s": (per_round(total["structfile.dump_document"]), "s"),
        "structfile.bytes_out": (per_round(counts["dump.bytes"]), "bytes"),
        "filtquiver.koszul_sign_calls": (per_round(calls["filtquiver.koszul_sign"]), "count"),
        "filtquiver.hom_elements": (per_round(calls["filtquiver.HomElement.__init__"]), "count"),
        "levels.add_calls": (per_round(calls["levels.level_add"]), "count"),
        "levels.leq_calls": (per_round(calls["levels.level_leq"]), "count"),
    }
    module_self: Dict[str, float] = defaultdict(float)
    for name, v in self_s.items():
        module_self[name.split(".", 1)[0]] += v
    all_self = sum(module_self.values())
    for mod in MODULES:
        m[f"share.{mod}"] = (ratio(module_self[mod], all_self), "share")
    return m


def microbenchmarks() -> Dict[str, Tuple[float, str]]:
    proc = subprocess.run([sys.executable, str(MICRO)], cwd=ROOT, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"micro.py exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return {k: (v, "us") for k, v in json.loads(proc.stdout).items()}


# ---------------------------------------------------------------------------
# Runs

def measure(ops: List[Op], seconds: float, workdir: Path, reference):
    """Whole untraced rounds until ``seconds`` have passed."""
    samples: List[Sample] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples += run_round(ops, False, workdir, reference)
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - t0) > HARD_LIMIT_S:
            break
    return samples, end_to_end(samples)


def measure_traced(ops: List[Op], seconds: float, workdir: Path, reference):
    """Alternate untraced and traced rounds; per-layer metrics per round.
    Neither times the reference task, so the overhead compares like with like
    and the span times hold no reference work."""
    plain: List[Sample] = []
    traced: List[Sample] = []
    plain_wall = traced_wall = 0.0
    rounds = 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain += run_round(ops, False, workdir, reference, host_speed=False)
        t1 = time.monotonic()
        traced += run_round(ops, True, workdir, reference, host_speed=False)
        t2 = time.monotonic()
        plain_wall += t1 - t0
        traced_wall += t2 - t1
        rounds += 1
        if t2 - start >= seconds or t2 - start + (t2 - t0) > HARD_LIMIT_S:
            break
    metrics = per_layer(traced, rounds)
    plain_rate = sum(s.ok for s in plain) / plain_wall
    traced_rate = sum(s.ok for s in traced) / traced_wall
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    metrics.update(microbenchmarks())
    return plain + traced, metrics


def preflight() -> Optional[str]:
    for need in (ROOT / "src" / "facalc" / "cli.py", GOLDEN, REFERENCE):
        if not need.exists():
            return f"missing {need.relative_to(ROOT)}: run from the root of a facalc checkout"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = preflight()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    reference = load_reference()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "dense":
            ops = dense_ops(args.seed, workdir)
        else:
            ops = FIXTURE_WORKLOADS[args.workload]
        run = measure_traced if args.trace else measure
        samples, metrics = run(ops, args.seconds, workdir, reference)
    except statistics.StatisticsError:
        print("no operation completed: nothing to measure", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = sum(not s.ok for s in samples)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} nproc={os.cpu_count()} python={platform.python_version()}")
    print(f"fail_ratio {failed / len(samples)} ({failed} of {len(samples)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    timed = [s for s in samples if s.reference_s]
    if timed and not args.trace:
        print(f"reference_s median {statistics.median(s.reference_s for s in timed)} s "
              f"(nominal {REFERENCE_NOMINAL_S} s); unscaled figures:")
        for name, (value, unit) in end_to_end(samples, scaled=False).items():
            print(f"  {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # Let a terminated run unwind, so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
