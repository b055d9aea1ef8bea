"""One benchmark round in a fresh process.

Reads a round description (JSON) on stdin, imports spincut from the
checkout's src/, runs one warm-up job, then every job once in the given
order, and prints one JSON line: set-up time, per-job times and answers,
peak RSS and, when traced, per-job layer figures and spans.

Set-up runs from the end of this file's own imports until the warm-up job
is done, so it covers importing spincut and its first call, not interpreter
start, the benchmark's modules or input generation.

The worker times the workload's reference kernel (see kernels.py) after
every job, and every TICK_S during a job from a timer signal; a job's time
leaves out the ticks.  A job's reference time is the median of the
kernel's times within REF_WINDOW_S of the job, its own ticks included;
run.py divides by it.
"""

import sys
import time

_ROUND = sys.stdin.buffer.read()

import bisect  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

REF_WINDOW_S = 0.03
TICK_S = 0.025

WARMUP_LADDER = {
    "half_dimension": 2,
    "isolated": [
        {"weights": [1, 2], "det_weight": 7, "sign": 1},
        {"weights": [1, 2], "det_weight": 3, "sign": -1},
        {"weights": [1, 2], "det_weight": 5, "sign": -1},
        {"weights": [1, 2], "det_weight": 1, "sign": 1},
    ],
    "codim2": [],
}
WARMUP_SPHERE = {
    "half_dimension": 1,
    "isolated": [
        {"weights": [1], "det_weight": 7, "sign": 1},
        {"weights": [1], "det_weight": 3, "sign": -1},
    ],
    "codim2": [],
}
WARMUP_SPEC = {"assignments": {"0": "plus", "1": "minus"}, "reduced": [{"dim": 0}]}


def to_data(doc):
    from spincut.fixed_points import Codim2Component, FixedPointData, IsolatedFixedPoint

    return FixedPointData(
        doc["half_dimension"],
        tuple(
            IsolatedFixedPoint(tuple(p["weights"]), p["det_weight"], p["sign"])
            for p in doc["isolated"]
        ),
        tuple(
            Codim2Component(
                c["dim"],
                c["normal_weight"],
                c["det_weight"],
                c["sign"],
                c.get("chern_L"),
                c.get("chern_N"),
            )
            for c in doc["codim2"]
        ),
    )


def write_cut_files(directory, data, spec):
    directory.mkdir(parents=True)
    paths = {name: str(directory / f"{name}.json") for name in ("data", "spec", "plus", "minus")}
    Path(paths["data"]).write_text(json.dumps(data), encoding="utf-8")
    Path(paths["spec"]).write_text(json.dumps(spec), encoding="utf-8")
    return paths


def cut_roundtrip(cli, paths):
    """cut, quantize both halves, check-additivity; codes and outputs."""
    codes = []
    outputs = []
    for argv in (
        ["cut", paths["data"], paths["spec"], "--out-plus", paths["plus"], "--out-minus", paths["minus"]],
        ["quantize", paths["plus"], "--character"],
        ["quantize", paths["minus"], "--character"],
        ["check-additivity", paths["data"], paths["spec"]],
    ):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            codes.append(cli.main(argv))
        outputs.append(out.getvalue())
    return [codes] + outputs[1:]


def reference_times(samples, intervals):
    """For each (start, end), the median kernel time within REF_WINDOW_S of it.

    samples are (mid-point, duration) in time order.  The kernel runs right
    before and after every job, so a window holds at least those two.
    """
    mids = [mid for mid, _ in samples]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(mids, start - REF_WINDOW_S)
        hi = bisect.bisect_right(mids, end + REF_WINDOW_S)
        out.append(statistics.median(duration for _, duration in samples[lo:hi]))
    return out


def main():
    spec = json.loads(_ROUND)
    workload = spec["workload"]
    work = ROOT / "perfbench" / "out" / f"work-{os.getpid()}"
    warm_paths = None
    try:
        if workload == "cut-roundtrip":
            warm_paths = write_cut_files(work / "warmup", WARMUP_SPHERE, WARMUP_SPEC)
        return run(spec, workload, work, warm_paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(spec, workload, work, warm_paths):
    t_import = time.perf_counter()
    import spincut

    if workload == "cut-roundtrip":
        from spincut import cli
    import_s = time.perf_counter() - t_import
    if not Path(spincut.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"spincut imported from {spincut.__file__}, not from {ROOT / 'src'}")

    if workload == "product-ladder":
        from spincut import kostant

        kostant.character_rational(to_data(WARMUP_LADDER))
    elif workload == "deep-count":
        from spincut import fixed_points, kostant

        kostant.multiplicity(fixed_points.polarize(to_data(WARMUP_LADDER)), 2)
    else:
        cut_roundtrip(cli, warm_paths)
    setup_s = time.perf_counter() - _T0
    import kernels

    setup_ref_s = statistics.median(kernels.timed(kernels.SETUP) for _ in range(5))

    # Inputs are built after set-up is measured and before anything is timed.
    jobs = spec["jobs"]
    if workload == "product-ladder":
        inputs = [to_data(job["data"]) for job in jobs]

        def call(x):
            return kostant.character_rational(x)

        def answer(result):
            return [list(item) for item in result.items()]

    elif workload == "deep-count":
        datasets = [to_data(doc) for doc in spec["datasets"]]
        inputs = [(datasets[job["dataset"]], job["beta"]) for job in jobs]

        def call(x):
            return kostant.multiplicity(fixed_points.polarize(x[0]), x[1])

        def answer(result):
            return result

    else:
        inputs = [
            write_cut_files(work / f"job{i}", job["data"], job["spec"]) for i, job in enumerate(jobs)
        ]

        def call(x):
            return cut_roundtrip(cli, x)

        def answer(result):
            return result

    paused = [0.0]  # seconds spent in ticks so far
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(paused)
        tracer.install()

    times = [0.0] * len(jobs)
    intervals = [(0.0, 0.0)] * len(jobs)
    answers = [None] * len(jobs)
    layers = [None] * len(jobs)
    spans = [None] * len(jobs)
    samples = []

    kernel = kernels.FOR_WORKLOAD[workload]

    def sample(count):
        for _ in range(count):
            at = time.perf_counter()
            duration = kernels.timed(kernel)
            samples.append((at + duration / 2, duration))

    def tick(signum, frame):
        entered = time.perf_counter()
        sample(1)
        paused[0] += time.perf_counter() - entered

    signal.signal(signal.SIGALRM, tick)
    gc.collect()
    gc.freeze()
    sample(3)
    for i in spec["order"]:
        if tracer:
            tracer.begin()
        paused_before = paused[0]
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = call(inputs[i])
        except Exception as exc:  # a failing job is recorded, the round goes on
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            answers[i] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            answers[i] = answer(result)
        times[i] = end - start - (paused[0] - paused_before)
        intervals[i] = (start, end)
        if tracer:
            layers[i], spans[i] = tracer.end()
        sample(1)
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "kernel": kernel.__name__,
        "import_s": import_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "times": times,
        "refs": reference_times(samples, intervals),
        "answers": answers,
    }
    if tracer:
        out["layers"] = layers
        out["spans"] = spans
    return out


if __name__ == "__main__":
    result = main()
    sys.stdout.write(json.dumps(result) + "\n")
