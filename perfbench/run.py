"""opcalc benchmark: one seeded workload, timed, then checked against references.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expand --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of a closed loop with
one caller: whole rounds of jobs run until ``--seconds`` have passed, each
job timed alone, in this fresh interpreter.  ``setup_s`` is the median over
fresh interpreters of the time to import opcalc and opcalc.cli and to
generate the inputs of a round.  With ``--trace 1`` it runs a fixed job list
twice, plain and then with every layer boundary wrapped (see tracer.py), and
reports per-layer counts and self times.  Either way every output is then
checked against an independent reference (see reference.py), outside the
timed region, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it starting
with ``#`` are for people: the metrics with units, the tail percentile and
its sample count, and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "opcalc.schema.json"

SETUP_SAMPLES = 9
# job_ms_tail is this percentile.  Each leaves at least 10 jobs beyond it in
# a 10 s run at the commit that added the benchmark, and falls inside one
# job kind of the workload's round, so that it does not jump between kinds
# from run to run (for cli, p99 lands on a few heavy outliers and moves by
# 15% between seeds; p95 does not).  It is fixed so that later commits
# compare the same statistic.
TAIL_PERCENTILE = {"expand": 80.0, "umbral": 83.0, "dx": 93.0, "cli": 95.0}
# Rounds in a traced run per 10 s of --seconds: a fixed job list, so every
# count repeats exactly for one seed.
TRACE_ROUNDS = {"expand": 2, "umbral": 2, "dx": 6, "cli": 10}

# On a shared virtual machine (2 vCPUs, measured while writing this
# benchmark) the speed of a core drifts by up to 40% within seconds, which
# would swamp any change under test.  So a fixed calibration loop of the
# same kinds of work as the jobs (exact rational arithmetic, and building
# and using an argparse parser as each CLI call does) runs between jobs, at
# least every CAL_EVERY_S, and every reported time is scaled to the speed
# at which that loop takes CAL_NOMINAL_S.  The raw figures are printed too.
CAL_ITERS = 1000
CAL_VERBS = 10
CAL_NOMINAL_S = 0.005
CAL_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction additions and argparse work."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, CAL_ITERS):
        s += Fraction(1, i % 97 + 1)
    parser = argparse.ArgumentParser(prog="calibrate")
    verbs = parser.add_subparsers(dest="verb")
    for k in range(CAL_VERBS):
        verb = verbs.add_parser(f"verb{k}")
        verb.add_argument("arg")
        verb.add_argument("-N", type=int, default=k)
    parser.parse_args(["verb3", "x", "-N", "4"])
    return time.perf_counter() - t0


class Clock:
    """Job times with the machine speed measured around each job."""

    def __init__(self):
        self.raw = array("d")
        self.cal_before = array("l")  # index into cals of the last calibration before each job
        self.cals = array("d")
        self._last = -1.0

    def before_job(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.cals.append(calibrate())
            self._last = time.perf_counter()
        self.cal_before.append(len(self.cals) - 1)

    def finish(self) -> None:
        self.cals.append(calibrate())

    def scaled(self) -> list:
        """Job times at the reference speed: raw time x nominal / calibration around the job."""
        out = []
        for raw, i in zip(self.raw, self.cal_before):
            around = (self.cals[i] + self.cals[i + 1]) / 2.0
            out.append(raw * CAL_NOMINAL_S / around)
        return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time importing opcalc and generating one round of inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opcalc  # noqa: F401
    import opcalc.cli  # noqa: F401
    import workloads

    workloads.make_stream(workload, seed).round(0)
    elapsed = time.perf_counter() - t0
    speed = statistics.median(calibrate() for _ in range(5))
    print(repr(elapsed), repr(elapsed * CAL_NOMINAL_S / speed))


def measure_setup(workload: str, seed: int) -> tuple:
    """Medians of (raw, scaled) setup time over fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first one also leaves compiled bytecode behind
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        if i:
            r, s = proc.stdout.split()
            raw.append(float(r))
            scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


def run_jobs(jobs, clock, spool, digest) -> None:
    """Run jobs one after another; only ``job.run`` is inside the clock."""
    for job in jobs:
        clock.before_job()
        key_text = json.dumps(job.key)
        digest.update(key_text.encode())
        result, exc = None, None
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as err:  # a job that raises has failed; the pass goes on
            exc = f"{type(err).__name__}: {err}"
        clock.raw.append(time.perf_counter() - t0)
        out = None
        if exc is None:
            try:
                out = job.dump(result)
            except Exception as err:
                exc = f"unreadable result: {type(err).__name__}: {err}"
        spool.write(json.dumps({"key": job.key, "exc": exc, "out": out}) + "\n")


def percentile(times, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def check_spool(workload: str, path: Path) -> tuple:
    """(attempted, failed, first reasons) for every record in the spool."""
    from reference import Checker

    checker = Checker(ROOT)
    attempted, failed, reasons = 0, 0, []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            attempted += 1
            reason = checker.check(workload, record["key"], record)
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{json.dumps(record['key'])[:160]}: {reason}")
    return attempted, failed, reasons


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "opcalc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(args, jobs_digest: str, rounds: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "jobs_digest": jobs_digest,
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
    }


def emit(meta, attempted, failed, reasons, metrics, notes=()) -> None:
    print("# meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for note in notes:
        print("# " + note)
    for reason in reasons:
        print("# FAILED " + reason)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end(args, spool_dir: Path) -> None:
    import workloads

    stream = workloads.make_stream(args.workload, args.seed)
    setup_raw, setup_s = measure_setup(args.workload, args.seed)
    clock = Clock()
    digest = hashlib.sha256()
    spool_path = spool_dir / "pass.jsonl"
    rounds = 0
    with open(spool_path, "w") as spool:
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            run_jobs(stream.round(rounds), clock, spool, digest)
            rounds += 1
        clock.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, reasons = check_spool(args.workload, spool_path)
    times = clock.scaled()
    n = len(times)
    p = TAIL_PERCENTILE[args.workload]
    tail_s = percentile(times, p)
    beyond = sum(1 for v in times if v > tail_s)
    metrics = {
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_ms_p50": (statistics.median(times) * 1000.0, "ms"),
        "job_ms_tail": (tail_s * 1000.0, "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    raw = list(clock.raw)
    speed = statistics.median(clock.cals) / CAL_NOMINAL_S
    notes = [
        f"job_ms_tail is p{p:g} of {n} jobs, {beyond} beyond it",
        f"times are at reference speed; the calibration loop took {speed:.3f}x its reference time; raw jobs_per_s "
        f"{n / sum(raw):.6g}, job_ms_p50 {statistics.median(raw) * 1000:.6g}, "
        f"job_ms_tail {percentile(raw, p) * 1000:.6g}, setup_s {setup_raw:.6g}",
        f"error_rate = {failed / attempted:.6g} ({failed} of {attempted})",
    ]
    if args.workload == "cli":
        notes += known_defects(stream, spool_dir)
    emit(provenance(args, digest.hexdigest()[:16], rounds), attempted, failed, reasons, metrics, notes)


def known_defects(stream, spool_dir: Path) -> list:
    """Run the known-defect requests apart from the pass and report each verdict."""
    path = spool_dir / "defects.jsonl"
    with open(path, "w") as spool:
        run_jobs(stream.known_defects(), Clock(), spool, hashlib.sha256())
    from reference import Checker

    checker = Checker(ROOT)
    notes = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            reason = checker.check("cli", record["key"], record)
            verdict = "fixed" if reason is None else f"still fails: {reason}"
            notes.append(f"known defect {' '.join(record['key'][2])!r}: {verdict}")
    return notes


def traced_pass(workload: str, seed: int, rounds: int, spool_dir: Path) -> tuple:
    """Run ``rounds`` rounds plain, then again traced: (metrics, spool path, jobs digest)."""
    import workloads
    from tracer import Tracer

    job_rounds = [workloads.make_stream(workload, seed).round(r) for r in range(rounds)]
    plain = Clock()
    with open(os.devnull, "w") as spool:
        for jobs in job_rounds:
            run_jobs(jobs, plain, spool, hashlib.sha256())
        plain.finish()

    tracer, clock, digest = Tracer(), Clock(), hashlib.sha256()
    spool_path = spool_dir / "traced.jsonl"
    tracer.install()
    try:
        with open(spool_path, "w") as spool:
            for jobs in job_rounds:
                run_jobs(jobs, clock, spool, digest)
            clock.finish()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(sum(clock.raw), sum(clock.scaled()) / sum(plain.scaled()))
    return metrics, spool_path, digest.hexdigest()[:16]


def traced(args, spool_dir: Path) -> None:
    rounds = max(1, round(TRACE_ROUNDS[args.workload] * args.seconds / 10.0))
    metrics, spool_path, digest = traced_pass(args.workload, args.seed, rounds, spool_dir)
    attempted, failed, reasons = check_spool(args.workload, spool_path)
    emit(provenance(args, digest, rounds), attempted, failed, reasons, metrics)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "opcalc" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"perfbench: no opcalc source tree at {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="_spool-", dir=HERE) as spool_dir:
        (traced if args.trace else end_to_end)(args, Path(spool_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
