"""docrel benchmark: training and evaluation at the paper's dimensions.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        runs one workload and prints, as its last stdout line, one JSON object
        {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
        with --trace 0, the per-layer metrics with --trace 1;
    python3 bench/run.py [--seed N] [--seconds S]
        runs every workload, untraced and traced, each in a fresh process, and
        prints every metric with its unit;
    python3 bench/run.py --write-spec
        writes BENCHMARK.json from the definitions below.

A run is closed-loop with one caller in one process: the generated inputs come
from --seed, the measuring process repeats the workload's unit of work for
--seconds, and every unit's outputs are checked. Scratch files live under
.bench_work/ in the checkout. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 170.0
RUN_SECONDS = 25

WORKLOADS = [
    ("train", "train_model at paper dims on DocRED-sized documents, batch 1: "
              "backward and AdamW dominate, reasoning costs little"),
    ("eval", "checkpoint load, predict over all ~361 ordered pairs per DocRED-sized "
             "document, F1 suite with Ign, prediction file: encoders dominate"),
    ("eval-long", "the eval pipeline on documents twice the DocRED mean (~1560 pairs): "
                  "pair routes and reasoning grow faster than encoders"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("docs_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better). Set-up figures are per set-up; loop figures are per
# document (per document-epoch on train) over the traced units.
PER_LAYER = [
    ("corpus.load_s", "s", "lower"),
    ("corpus.prepare_s", "s", "lower"),
    ("corpus.tokens", "count/doc", "lower"),
    ("corpus.pairs_intra", "count/doc", "lower"),
    ("corpus.pairs_inter", "count/doc", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.nodes", "count/doc", "lower"),
    ("graph.edges", "count/doc", "lower"),
    ("model.init_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("encoders.embed_s", "s/doc", "lower"),
    ("encoders.sent_s", "s/doc", "lower"),
    ("encoders.sent_calls", "count/doc", "lower"),
    ("encoders.doc_s", "s/doc", "lower"),
    ("encoders.tokens", "count/doc", "lower"),
    ("intra.pair_rep_s", "s/doc", "lower"),
    ("intra.pair_rep_calls", "count/doc", "lower"),
    ("intra.instances", "count/doc", "lower"),
    ("inter.propagate_s", "s/doc", "lower"),
    ("inter.node_final_s", "s/doc", "lower"),
    ("inter.pair_rep_s", "s/doc", "lower"),
    ("inter.pair_rep_calls", "count/doc", "lower"),
    ("reasoning.candidates_s", "s/doc", "lower"),
    ("reasoning.candidates_calls", "count/doc", "lower"),
    ("reasoning.update_s", "s/doc", "lower"),
    ("reasoning.pool_pairs", "count/doc", "lower"),
    ("reasoning.candidate_share", "ratio", "higher"),
    ("model.forward_s", "s/doc", "lower"),
    ("model.forward_self_s", "s/doc", "lower"),
    ("model.classifier_s", "s/doc", "lower"),
    ("model.loss_s", "s/doc", "lower"),
    ("autodiff.backward_s", "s/doc", "lower"),
    ("autodiff.backward_calls", "count/doc", "lower"),
    ("autodiff.tape_records", "count/call", "lower"),
    ("optim.step_s", "s/doc", "lower"),
    ("optim.step_calls", "count/doc", "lower"),
    ("optim.params", "count", "lower"),
    ("optim.bytes_per_step", "B/step-computed", "lower"),
    ("training.train_self_s", "s/doc", "lower"),
    ("training.predict_s", "s/doc", "lower"),
    ("training.predict_self_s", "s/doc", "lower"),
    ("training.records", "count/doc", "lower"),
    ("evaluation.suite_s", "s/doc", "lower"),
    ("evaluation.write_s", "s/doc", "lower"),
    ("evaluation.decided", "count/doc", "lower"),
    ("evaluation.decided_share", "ratio", "lower"),
    ("trace.overhead_docs_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.overhead_setup_s", "s", "lower"),
    ("trace.spans", "count/doc", "lower"),
    ("trace.absent", "count", "lower"),
]


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class BenchFailure(Exception):
    """A phase could not produce figures; the run prints no result."""


def _phase(args: list[str], deadline: float) -> dict:
    """Run one worker phase to completion and return its final JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchFailure(f"no time left for {args[0]}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                              text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchFailure(f"{args[0]} phase exceeded the time limit") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchFailure(f"{args[0]} phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(out)]
    try:
        manifest = _phase(["inputs", *common], deadline)
        figures = _phase(["measure", *common, "--seconds", str(seconds),
                          "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print("env " + json.dumps(figures["env"], sort_keys=True))
    problems = list(figures["problems"])
    for census in manifest["census"]:
        print(f"census {census['kind']} " + json.dumps(census["realised"], sort_keys=True))
        problems += [f"census {census['kind']}: {p}" for p in census["problems"]]
    for losses in figures["fingerprint"]:
        print("fingerprint epoch losses " + " ".join(losses))
    for target in figures.get("absent", []):
        print(f"trace: {target} is absent, its layer reads 0")
    print(f"docs_failed_share {figures['failed'] / max(1, figures['attempted'])!r} "
          f"({figures['failed']} of {figures['attempted']} documents)")
    for p in problems:
        print("problem: " + p.rstrip())

    if trace:
        metrics = {n: {"value": figures["layers"][n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        print(f"units docs_per_s {figures['docs_per_s']}")
        print(f"setups setup_s {figures['setup_s']}")
        # no completed unit means no throughput: 0, and the run is not correct
        values = {"docs_per_s": statistics.median(figures["docs_per_s"] or [0.0]),
                  "setup_s": statistics.median(figures["setup_s"]),
                  "peak_rss_mb": figures["peak_rss_mb"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    return {"correct": not problems and figures["failed"] == 0,
            "attempted": figures["attempted"], "failed": figures["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    results = {}
    ok = True
    env = "env {}"
    for workload, _ in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: no result, exit code {proc.returncode}")
                ok = False
                continue
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            results[f"{workload}/trace={trace}"] = json.loads(lines[-1])
            env = next(line for line in lines if line.startswith("env "))
    print(f"\n{'workload':<10} {'metric':<28} {'value':>14} unit")
    for key, res in results.items():
        ok = ok and res["correct"] and res["failed"] == 0
        for name, m in res["metrics"].items():
            print(f"{key.split('/')[0]:<10} {name:<28} {m['value']:>14.6g} {m['unit']}")
    WORK.mkdir(exist_ok=True)
    (WORK / "results.json").write_text(
        json.dumps({"env": json.loads(env[4:]), **results}, indent=1), encoding="utf-8")
    print(f"all outputs correct: {ok}; results in {WORK / 'results.json'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS],
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args()
    # on SIGTERM unwind normally, so a running phase is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if not (ROOT / "src" / "docrel" / "__init__.py").is_file():
        print(f"benchmark: no docrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchFailure as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
