"""spincut benchmark: one command, three workloads, fresh-process rounds.

    python3 perfbench/run.py --workload product-ladder --seed 1 --seconds 40 --trace 0

Each run builds its jobs from the seed, then repeats the whole job list in
rounds, each round in a fresh worker process, until --seconds are spent.
A job's time is the median over the rounds of its time divided by the
reference kernel timed next to it (see kernels.py and worker.py).  Every
answer of every round is checked against the benchmark's own expected
answer after the round; a job that raises or answers wrong counts as
failed.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (the end-to-end ones with
--trace 0, the per-layer ones with --trace 1).

With --trace 1 rounds alternate between untraced and traced workers; the
per-layer figures come from the traced ones, and trace.overhead_s is the
traced batch_s minus the untraced one.  Spans and counters of the last
traced round are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import kernels  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 5
# Worker processes that only set up (no jobs) after each round, so that
# setup_s is a median of several samples even when rounds are long.
SETUP_ONLY_PER_ROUND = 2
# The whole run, the first (byte-compiling) round included, ends within this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in tracing.TIMED},
    "cli.self_s": "s",
    **{name: "count" for name in tracing.COUNTS},
    "documents.bytes": "bytes",
    "laurent.max_denominator_degree": "count",
    "laurent.max_coeff_bits": "bits",
    "spincut.import_s": "s",
    "trace.overhead_s": "s",
}


class RoundError(RuntimeError):
    """A worker process did not finish its round."""


def build_jobs(workload: str, seed: int) -> tuple[list[dict], dict]:
    """(jobs with expected answers, the part of a round spec every round shares)."""
    if workload == "product-ladder":
        jobs = workloads.product_ladder(seed)
        return jobs, {"jobs": [{"data": job["data"]} for job in jobs]}
    if workload == "deep-count":
        datasets, jobs = workloads.deep_count(seed)
        return jobs, {
            "datasets": datasets,
            "jobs": [{"dataset": job["dataset"], "beta": job["beta"]} for job in jobs],
        }
    jobs = workloads.cut_roundtrip(seed)
    return jobs, {"jobs": [{"data": job["data"], "spec": job["spec"]} for job in jobs]}


def checker(workload: str):
    if workload == "product-ladder":
        return workloads.check_ladder
    if workload == "deep-count":
        return workloads.check_deep
    sys.path.insert(0, str(ROOT / "src"))
    from spincut.sphere import closed_form_multiplicity, cut_identity

    funcs = (closed_form_multiplicity, cut_identity)
    return lambda job, answer: workloads.check_cut(job, answer, funcs)


def run_round(workload: str, shared: dict, order: list[int], traced: bool, deadline: float) -> dict:
    payload = json.dumps({"workload": workload, "trace": traced, "order": order, **shared})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("no time left for another round")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=payload.encode("utf-8"),
            capture_output=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundError(
            f"worker exited with {proc.returncode}:\n{proc.stderr.decode('utf-8', 'replace')}"
        )
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def score(jobs: list[dict], answers: list, check) -> list[tuple[str, str] | None]:
    """One verdict per job: None when the answer is right, else (kind, why).

    kind is "error" when the call raised and "wrong" when it returned an
    answer the check rejects; both count the job as failed.
    """
    verdicts = []
    for job, answer in zip(jobs, answers):
        if isinstance(answer, dict) and "error" in answer:
            verdicts.append(("error", answer["error"]))
        else:
            reason = check(job, answer)
            verdicts.append(None if reason is None else ("wrong", reason))
    return verdicts


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the value with share*N values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def scaled(values: list[float], refs: list[float], kernel: str) -> float:
    """Median over rounds of value / kernel time, at the kernel's nominal time."""
    return statistics.median(v / r for v, r in zip(values, refs)) * kernels.NOMINAL_S[kernel]


def job_times(rounds: list[dict]) -> list[float]:
    kernel = rounds[0]["kernel"]
    per_job = zip(zip(*(r["times"] for r in rounds)), zip(*(r["refs"] for r in rounds)))
    return [scaled(times, refs, kernel) for times, refs in per_job]


def setup_scaled(rounds: list[dict], key: str) -> float:
    return scaled([r[key] for r in rounds], [r["setup_ref_s"] for r in rounds], kernels.SETUP.__name__)


def end_to_end(rounds: list[dict], setups: list[dict]) -> dict:
    jobs = job_times(rounds)
    figures = {
        "setup_s": setup_scaled(setups, "setup_s"),
        "batch_s": sum(jobs),
        "job_p50_ms": statistics.median(jobs) * 1e3,
        "job_p90_ms": percentile(jobs, 0.9) * 1e3,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds + setups) / 1024,
    }
    return {name: (figures[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    figures = {}
    per_job = list(zip(*(r["layers"] for r in traced)))
    refs = list(zip(*(r["refs"] for r in traced)))
    for name in tracing.COUNTS + tracing.MAXIMA:
        fold = sum if name in tracing.COUNTS else max
        # Every traced round is one pass over the same inputs: counts repeat.
        values = {fold(job[k][name] for job in per_job) for k in range(len(traced))}
        if len(values) != 1:
            raise RoundError(f"{name} differs between traced rounds: {sorted(values)}")
        figures[name] = values.pop()
    kernel = traced[0]["kernel"]
    for name in [f"{layer}_s" for layer in tracing.TIMED] + ["cli.self_s"]:
        figures[name] = sum(
            scaled([rounds[name] for rounds in job], job_refs, kernel)
            for job, job_refs in zip(per_job, refs)
        )
    figures["spincut.import_s"] = setup_scaled(plain + traced, "import_s")
    figures["trace.overhead_s"] = sum(job_times(traced)) - sum(job_times(plain))
    return {name: (figures[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "spincut" / "__init__.py").is_file():
        print(f"error: no spincut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs, shared = build_jobs(args.workload, args.seed)
    check = checker(args.workload)
    n = len(jobs)
    stride = max(1, n // 7)
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    failed = 0
    attempted = 0
    reasons: dict[tuple[str, str], int] = {}
    measure_start = time.monotonic()
    k = 0
    try:
        while True:
            is_traced = bool(args.trace) and k % 2 == 1
            # Rotating the order lets every job run early and late in a process.
            offset = (k * stride) % n
            order = list(range(offset, n)) + list(range(offset))
            t0 = time.monotonic()
            result = run_round(args.workload, shared, order, is_traced, deadline)
            (traced if is_traced else plain).append(result)
            setups.append(result)
            for _ in range(SETUP_ONLY_PER_ROUND):
                setups.append(run_round(args.workload, {"jobs": [], "datasets": []}, [], False, deadline))
            round_s = time.monotonic() - t0
            for verdict in score(jobs, result["answers"], check):
                attempted += 1
                if verdict is not None:
                    failed += 1
                    reasons[verdict] = reasons.get(verdict, 0) + 1
            k += 1
            elapsed = time.monotonic() - measure_start
            whole_pairs = not args.trace or k % 2 == 0
            if k >= MIN_ROUNDS and whole_pairs and elapsed + round_s > args.seconds:
                break
            if time.monotonic() + 2 * round_s > deadline and whole_pairs and k >= 2:
                break
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for (kind, reason), count in sorted(reasons.items()):
        print(f"failed ({kind}) x{count}: {reason}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups)
    summary = {
        "correct": not any(kind == "wrong" for kind, _ in reasons),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "rounds": k,
        "jobs": [
            [workloads.label(job), value]
            for job, value in zip(jobs, job_times(plain))
        ],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**summary, **detail}, indent=1) + "\n")
    if args.trace:
        last = traced[-1]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "rounds": k, "layers": last["layers"], "spans": last["spans"]})
            + "\n"
        )
    print(f"{args.workload}: {n} jobs x {k} rounds, seed {args.seed}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
