"""The repository benchmark: member-step throughput of sabi on three workloads.

    python3 perfbench/run.py --workload bi-rk4-64 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports `sabi` from `src/`.
Each round is a fresh single-process subprocess (worker.py) that sets up
from the seed-generated config and runs whole workload iterations until its
share of --seconds is spent; rounds run one after another, so this is a
closed loop with one client. Every iteration's outputs are checked.

--trace 0 reports the end-to-end metrics:
  member_steps_per_s  member-steps per second of run phase, the median over
                      all timed iterations of all rounds (higher is better)
  setup_s             subprocess start to the first call into runner, the
                      median over rounds
  peak_rss_mb         largest peak RSS of any round process (RUSAGE_CHILDREN:
                      a per-process maximum, not a sum over processes)
  ok_ratio            operations that succeeded over operations attempted;
                      an operation is one member run or one output check
--trace 1 runs a traced, an untraced and a traced round, and reports the
per-layer metrics of layers.py plus trace.overhead_ratio. A per-layer metric
whose boundary the workload bypasses by design reads 0, and one whose
boundary should have been called but was not reads -1 (missing); the
reasons, the environment record and every round's record are in
.perfbench/<workload>-trace<0|1>.json.

The last line of stdout is the JSON result. The exit code is 0 whenever a
result is printed, failed operations included; it is 2 when the checkout
holds no sabi sources and 1 when a round process itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
UNTRACED_ROUNDS = 4
# Traced rounds give the spans; the untraced one between them is the base of
# the tracing overhead, placed so that a steady drift of the machine cancels.
TRACED_PLAN = (True, False, True)

NOTES = {
    "peak_rss_mb": "largest peak RSS of any one round process (RUSAGE_CHILDREN); a per-process maximum, not a sum",
    "ok_ratio": "(attempted - failed) / attempted; an operation is one member run or one output check",
    "member_steps_per_s": "median over timed iterations of member-steps per second; warm-up iterations excluded",
}


def _fail(msg: str, code: int) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def run_rounds(workload: str, seed: int, plan: tuple[bool, ...], budget: float,
               out_dir: Path, started: float) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # OpenBLAS (behind np.tensordot) otherwise keeps a second thread spinning
    # on the other core for no gain, which makes the timings follow whatever
    # else runs on that core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    rounds = []
    for i, traced in enumerate(plan):
        out = out_dir / f"round{i}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
            "--traced", str(int(traced)), "--work-dir", str(out_dir / f"work{i}"),
            "--out", str(out),
        ]
        remaining = DEADLINE_S - (time.monotonic() - started)
        t_spawn = time.monotonic()
        # run() kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"round {i} exited with code {proc.returncode}")
        record = json.loads(out.read_text())
        record["traced"] = traced
        record["setup_s"] = record["t_first_runner"] - t_spawn
        rounds.append(record)
    return rounds


def _rate(rounds: list[dict]) -> float:
    steps = sum(r["member_steps"] for r in rounds)
    return steps / sum(r["run_s"] for r in rounds) if steps else 0.0


def end_to_end(rounds: list[dict], attempted: int, failed: int) -> dict:
    rates = [n / t for r in rounds for n, t in zip(r["iteration_steps"], r["iteration_s"])]
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "member_steps_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


def per_layer(rounds: list[dict], spans_dir: Path, bypasses) -> tuple[dict, dict]:
    from layers import MISSING, PER_LAYER, Accumulator, layer_metrics
    from spans import load_spans

    acc = Accumulator()
    shutil.rmtree(spans_dir, ignore_errors=True)
    for r in rounds:
        if r["traced"]:
            acc.add_spans(load_spans(r["spans"]))
            spans_dir.mkdir(parents=True, exist_ok=True)
            shutil.move(r["spans"], spans_dir / Path(r["spans"]).name)
    values, reasons = layer_metrics(acc, bypasses)
    untraced = _rate([r for r in rounds if not r["traced"]])
    traced = _rate([r for r in rounds if r["traced"]])
    values["trace.overhead_ratio"] = untraced / traced if traced else MISSING
    if not traced:
        reasons["trace.overhead_ratio"] = "missing: no member-steps in a traced round"
    units = {name: spec[0] for name, spec in PER_LAYER.items()} | {"trace.overhead_ratio": "ratio"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sabi benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "sabi" / "__init__.py").is_file():
        return _fail(f"no sabi sources under {ROOT / 'src'}; run from a source checkout", 2)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)

    plan = TRACED_PLAN if args.trace else (False,) * UNTRACED_ROUNDS
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        rounds = run_rounds(args.workload, args.seed, plan, args.seconds / len(plan), run_dir, started)
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        missing = {}
        if args.trace:
            metrics, missing = per_layer(rounds, WORK / f"{args.workload}-spans",
                                         WORKLOADS[args.workload].bypasses)
        else:
            metrics = end_to_end(rounds, attempted, failed)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks_ok = all(c["ok"] for r in rounds for c in r["checks"].values())
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    # allow_nan=False: NaN or Infinity would make the result line invalid JSON.
    line = json.dumps(result, allow_nan=False)
    env = rounds[0]["env"]
    document = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "result": result, "missing": missing,
                "notes": NOTES, "env": env, "rounds": rounds}
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(document, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    for name, check in sorted({k: v for r in rounds for k, v in r["checks"].items()}.items()):
        print(f"  check {name}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    for r in rounds:
        for err in r["errors"]:
            print(f"  error: {err}")
    for name, m in metrics.items():
        note = f"  ({missing[name]})" if name in missing else ""
        print(f"  {name} = {m['value']} {m['unit']}{note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
