"""One measurement round, run in a fresh process by run.py.

The round sets up (imports, config generation from the seed, parse_config),
then repeats whole workload iterations until their run-phase time reaches
the budget, checking each iteration's outputs untimed. The first iteration
warms caches and lazy set-up: it is checked, but neither timed into the run
phase nor traced. It writes a JSON
round record, and with --traced 1 the spans as well.

    python3 perfbench/worker.py --workload bi-rk4-64 --seed 1 --budget 2 \\
        --traced 0 --work-dir .perfbench/w --out .perfbench/w/round.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import sabi.runner
from sabi.config import parse_config

from workloads import WORKLOADS, Check


class MemberRuns:
    """Counts calls to run_member, so a failing member is one failed
    operation out of the members started so far."""

    def __init__(self, fn):
        self.fn = fn
        self.started = 0

    def __call__(self, *args, **kwargs):
        self.started += 1
        return self.fn(*args, **kwargs)


def run_round(workload, config_dict: dict, budget: float, work_dir: Path, tracer=None) -> dict:
    """Set up from the config, iterate for `budget` seconds of run phase,
    check every iteration, and return the round record."""
    original = sabi.runner.run_member
    members = MemberRuns(original)
    sabi.runner.run_member = members
    api = SimpleNamespace(
        parse_config=parse_config,
        run_ensemble=sabi.runner.run_ensemble,
        resume_member=sabi.runner.resume_member,
    )
    if tracer is not None:
        tracer.install()
        api = SimpleNamespace(
            parse_config=tracer.wrap("config.parse_config", api.parse_config),
            run_ensemble=tracer.wrap("runner.run_ensemble", api.run_ensemble),
            resume_member=tracer.wrap("runner.resume_member", api.resume_member),
        )
    record = {"run_s": 0.0, "member_steps": 0, "iterations": 0, "iteration_s": [],
              "iteration_steps": [], "attempted": 0, "failed": 0, "errors": [], "checks": {}}
    try:
        if tracer is not None:
            tracer.on = True
        try:
            cfg = api.parse_config(config_dict)
        except Exception as exc:  # a config the library rejects is one failed operation
            record.update(attempted=1, failed=1, errors=[f"{type(exc).__name__}: {exc}"])
            return record
        finally:
            record["t_first_runner"] = time.monotonic()
        while True:
            it_dir = work_dir / f"iter{record['iterations']}"
            members.started = 0
            if tracer is not None:
                tracer.on = record["iterations"] > 0
            t0 = time.perf_counter()
            try:
                steps, outputs = workload.iterate(api, cfg, it_dir)
            except Exception as exc:  # a failed member is counted, and the round ends
                record["attempted"] += max(members.started, 1)
                record["failed"] += 1
                record["errors"].append(f"{type(exc).__name__}: {exc}")
                shutil.rmtree(it_dir, ignore_errors=True)
                break
            finally:
                run_s = time.perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
            record["attempted"] += members.started
            record["iterations"] += 1
            if record["iterations"] == 1:
                record["warmup_s"] = run_s
            else:
                record["run_s"] += run_s
                record["iteration_s"].append(run_s)
                record["iteration_steps"].append(steps)
                record["member_steps"] += steps
            try:
                checks = workload.check(cfg, outputs)
            except Exception as exc:  # a check that cannot run has failed
                checks = [Check("check-raised", False, f"{type(exc).__name__}: {exc}")]
            del outputs
            shutil.rmtree(it_dir, ignore_errors=True)
            record["attempted"] += len(checks)
            record["failed"] += sum(not c.ok for c in checks)
            for c in checks:
                record["checks"].setdefault(c.name, {"ok": True, "detail": c.detail})
                record["checks"][c.name]["ok"] &= c.ok
                if not c.ok:
                    record["checks"][c.name]["detail"] = c.detail
            # Stop where the budget is met most closely, after at least one timed iteration.
            if record["run_s"] and record["run_s"] + run_s / 2 >= budget:
                break
    finally:
        if tracer is not None:
            tracer.on = False
            tracer.uninstall()
        sabi.runner.run_member = original
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config_dict = workload.make_config(args.seed)
    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
    record = run_round(workload, config_dict, args.budget, args.work_dir, tracer)

    from envinfo import environment

    record["env"] = environment()
    if tracer is not None:
        spans_path = args.out.with_suffix(".spans.json")
        tracer.dump(spans_path)
        record["spans"] = str(spans_path)
    args.out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
