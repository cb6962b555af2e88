"""Closed-loop benchmark of turnplan: plan latency and plan quality.

    python3 perfbench/run.py --workload cli40 --seed 1 --seconds 30 --trace 0

One client on one thread sends requests back to back; each request's timer
covers only the call into turnplan, and every output is checked outside it.
Each latency is scaled to a fixed machine speed by the reference blocks run
on either side of its request (see calibrate.py).
`--trace 0` prints the end-to-end metrics. `--trace 1` sends every group of
requests twice, untraced and then traced, and prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
run's details.
"""

import os

# BLAS / OpenMP pools are sized when numpy loads: pin them to one thread first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_CALIBRATION_UNITS = 20


def import_program() -> float:
    """Import turnplan from this checkout's sources; return the import time."""
    if not (SRC / "turnplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no turnplan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    tic = time.perf_counter()
    import turnplan
    elapsed = time.perf_counter() - tic
    if Path(turnplan.__file__).resolve().parent != SRC / "turnplan":
        raise SystemExit(f"error: imported turnplan from {turnplan.__file__}, not {SRC}")
    return elapsed


@dataclass
class Outcome:
    pass_index: int
    algorithm: str
    latency: float
    score: object = None
    error: str | None = None
    traced: bool = False
    speed: float = 1.0   # UNIT_NOMINAL_S over the reference unit time around the request


@dataclass
class Loop:
    outcomes: list
    wall: float          # loop wall time less the time spent checking and calibrating
    passes: int


def groups_of(requests) -> list:
    """Split a pass into runs of consecutive requests that share a group."""
    cuts = [i for i in range(1, len(requests)) if requests[i].group != requests[i - 1].group]
    bounds = [0] + cuts + [len(requests)]
    return [requests[a:b] for a, b in zip(bounds, bounds[1:])]


def _send(req, pass_index: int, tracer, first_digests: dict) -> tuple[Outcome, float]:
    """Time one request, then check its output; returns the outcome and the checking time."""
    from scoring import CheckError

    if tracer is not None:
        tracer.begin_request()
    tic = time.perf_counter()
    try:
        output, error = req.call(), None
    except Exception as exc:  # a failing request is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - tic
    if tracer is not None:
        tracer.end_request()
    tic = time.perf_counter()
    score = None
    if error is None:
        try:
            score = req.check(output)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"check: {type(exc).__name__}: {exc}"
    if score is not None and first_digests.setdefault(req.key, score.digest) != score.digest:
        score, error = None, "check: plan differs from the first pass on the same input"
    outcome = Outcome(pass_index, req.algorithm, latency, score, error, tracer is not None)
    return outcome, time.perf_counter() - tic


def run_loop(requests, seconds: float, min_requests: int, tracer=None,
             first_digests=None, calibration_units: int = 0) -> Loop:
    """Send a pass of requests back to back, group by group, until the time is
    up, `min_requests` have been sent and the first pass is complete.

    With a tracer, each group runs twice in a row, untraced and then traced, so
    both halves see the same inputs and the same state of the machine. A
    request that raises or fails its check is recorded and the loop goes on.
    With `calibration_units`, a reference block runs before each request and
    after the last one, and each outcome's `speed` comes from the two blocks
    around it.
    """
    import calibrate

    first_digests = {} if first_digests is None else first_digests
    groups = groups_of(requests)
    outcomes = []
    blocks = []
    untimed = 0.0      # checking outputs and calibrating
    sent = count = 0
    start = time.perf_counter()
    while sent < max(len(requests), min_requests) or time.perf_counter() - start < seconds:
        pass_index, group_index = divmod(count, len(groups))
        for run_tracer in ((None,) if tracer is None else (None, tracer)):
            with (contextlib.nullcontext() if run_tracer is None else tracer.patched()):
                for req in groups[group_index]:
                    if calibration_units:
                        tic = time.perf_counter()
                        blocks.append(calibrate.block(calibration_units))
                        untimed += time.perf_counter() - tic
                    outcome, spent = _send(req, pass_index, run_tracer, first_digests)
                    outcomes.append(outcome)
                    untimed += spent
        sent += len(groups[group_index])
        count += 1
    wall = time.perf_counter() - start - untimed
    if calibration_units:
        blocks.append(calibrate.block(calibration_units))
        for outcome, before, after in zip(outcomes, blocks, blocks[1:]):
            outcome.speed = calibrate.UNIT_NOMINAL_S / (0.5 * (before + after))
    return Loop(outcomes=outcomes, wall=wall, passes=-(-sent // len(requests)))


def first_pass_quality(inputs, loop: Loop):
    from scoring import quality

    first = [o for o in loop.outcomes
             if o.pass_index == 0 and not o.traced and o.score is not None]
    greedy = [o.score for o in first if o.algorithm == "greedy"]
    baseline = [o.score for o in first if o.algorithm == "baseline"]
    if inputs.reference is not None:
        baseline += inputs.reference()
    if not greedy or not baseline:
        return None
    return quality(greedy, baseline)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float):
    import numpy as np

    import calibrate
    from spans import Tracer, layer_metrics

    # Set-up is scaled like latency: each set-up by the blocks on either side.
    blocks = [calibrate.block(SETUP_CALIBRATION_UNITS)]
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        tic = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - tic)
        blocks.append(calibrate.block(SETUP_CALIBRATION_UNITS))
    speeds = [calibrate.UNIT_NOMINAL_S / (0.5 * (a + b)) for a, b in zip(blocks, blocks[1:])]
    try:  # warm-up: lazy imports and first-call costs stay out of timing
        inputs.requests[0].call()
    except Exception:  # the timed loop records the failure
        pass

    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "inputs": inputs.fingerprint, "import_s": import_s,
              "setup_runs_s": setups}
    digests = {}
    if not trace:
        loop = run_loop(inputs.requests, seconds, workload.min_requests, first_digests=digests,
                        calibration_units=workload.calibration_units)
        loops = [loop]
        raw = [o.latency for o in loop.outcomes]
        lat = [o.latency * o.speed for o in loop.outcomes]
        q = first_pass_quality(inputs, loop)
        ok = sum(o.error is None for o in loop.outcomes)
        metrics = {
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1000.0 * float(np.percentile(lat, workload.tail_percentile)),
                                "ms"),
            "plans_per_s": (ok / sum(lat), "1/s"),
            "cycle_time_s": (q and q["cycle_time_s"], "s"),
            "ssp_m": (q and q["ssp_m"], "m"),
            "rotation_rad": (q and q["rotation_rad"], "rad"),
            "gain_vs_baseline": (q and q["gain_vs_baseline"], "ratio"),
            "setup_s": (import_s * speeds[0]
                        + statistics.median(s * f for s, f in zip(setups, speeds)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        tail = metrics["latency_tail_ms"][0] / 1000.0
        speed = [o.speed for o in loop.outcomes]
        detail.update(tail_percentile=workload.tail_percentile,
                      samples_beyond_tail=sum(x > tail for x in lat), passes=loop.passes,
                      raw_latency_p50_ms=1000.0 * statistics.median(raw),
                      raw_plans_per_s=ok / loop.wall,
                      speed_quartiles=statistics.quantiles(speed, n=4),
                      setup_speeds=speeds)
    else:
        tracer = Tracer()
        loop = run_loop(inputs.requests, seconds, 1, tracer, digests)
        n_spans = len(tracer.spans)
        tracer.measure_alloc = True
        probe = run_loop(groups_of(inputs.requests)[0], 0.0, 1, tracer, digests)
        loops = [loop, probe]
        q = first_pass_quality(inputs, loop)
        traced = [o.latency for o in loop.outcomes if o.traced]
        untraced = [o.latency for o in loop.outcomes if not o.traced]
        metrics = layer_metrics(tracer.spans[:n_spans], len(inputs.requests), len(traced),
                                tracer.peak_alloc_bytes)
        metrics["clustering.reach_violation_ratio"] = (q and q["reach_violation_ratio"], "ratio")
        metrics["clustering.clusters_scored"] = (q and q["clusters_scored"], "count")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        detail.update(spans=str(spans_path.relative_to(ROOT)), traced_requests=len(traced))

    outcomes = [o for loop in loops for o in loop.outcomes]
    failed = [o for o in outcomes if o.error is not None]
    detail.update(requests=len(outcomes), failed_ratio=len(failed) / len(outcomes),
                  failures=sorted({o.error for o in failed})[:5])
    if q is not None:
        detail.update(reach_violation_ratio=q["reach_violation_ratio"],
                      clusters_scored=q["clusters_scored"])
    result = {
        "correct": not failed and q is not None,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
