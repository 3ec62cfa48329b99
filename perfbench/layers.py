"""Per-layer metrics computed from the spans of traced rounds.

"Per step" means per member-step, i.e. per stepper call. A metric whose
source boundary records no call reads 0 only when the workload bypasses that
boundary by design (no noise on a deterministic run, no I/O without an
output directory). Otherwise it is reported as missing, -1, which no
measurement can read, with a reason, never as 0: when later code moves work
past a wrapped boundary, the benchmark must not read that as a free win.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import STEPPERS, TRANSFORMS, WRITES, self_times

# Transforms are reported under the nearest of these enclosing spans.
OWNERS = {
    **{s: "step" for s in STEPPERS},
    "diagnostics.collect_record": "diagnostics",
    "presets.build_initial_state": "presets",
}


class Accumulator:
    """Sums, counts and raw samples over the spans of one or more rounds."""

    def __init__(self):
        self.calls = Counter()
        self.sums = defaultdict(float)
        self.samples = defaultdict(list)

    def add_spans(self, spans: list[tuple]) -> None:
        own = self_times(spans)
        calls, sums, samples = self.calls, self.sums, self.samples
        owner: dict[int, str] = {}
        member: dict[int, int] = {}
        ensemble: dict[int, int] = {}
        by_id = {}
        for span in sorted(spans):
            sid, parent, name, t0, t1, count, nbytes = span
            by_id[sid] = span
            owner[sid] = OWNERS.get(name) or owner.get(parent, "other")
            member[sid] = sid if name == "runner.run_member" else member.get(parent, 0)
            ensemble[sid] = sid if name == "runner.run_ensemble" else ensemble.get(parent, 0)
        first_step: dict[int, float] = {}
        member_children: dict[int, float] = defaultdict(float)
        for sid, parent, name, t0, t1, count, nbytes in spans:
            dur = t1 - t0
            calls[name] += 1
            sums[f"time:{name}"] += dur
            sums[f"self:{name}"] += own[sid]
            if name in STEPPERS:
                samples["step"].append(dur)
            if name in STEPPERS or name == "noise.increments":
                m = member.get(parent, 0)
                first_step[m] = min(first_step.get(m, t0), t0)
            if name in TRANSFORMS:
                where = owner.get(parent, "other")
                calls[f"transforms:{where}"] += count
                sums[f"transform_time:{where}"] += dur
                sums[f"transform_bytes:{where}"] += nbytes
            elif name == "dynamics.drift" and owner.get(parent) == "step":
                calls["drift_in_step"] += 1
            elif name in WRITES:
                sums["bytes_written"] += nbytes
            elif name == "runner.run_member":
                samples["member"].append(dur)
                if ensemble.get(parent):
                    member_children[ensemble[parent]] += dur
            elif name == "diagnostics.collect_record":
                samples["collect"].append(dur)
                if ensemble.get(parent):
                    calls["samples_in_ensemble"] += 1
            elif name in ("noise.increments", "noise.combine", "config.parse_config",
                          "presets.build_initial_state", "outputs.read_checkpoint"):
                samples[name].append(dur)
        for m, t in first_step.items():
            if m:
                samples["member_setup"].append(t - by_id[m][3])
        for sid, t in member_children.items():
            _, _, _, t0, t1, *_ = by_id[sid]
            samples["ensemble_overhead"].append((t1 - t0) - t)


def _pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _exact(total: int, per: int):
    """An integer when the total divides evenly, so counts compare exactly."""
    return total // per if total % per == 0 else total / per


MISSING = -1.0
BYPASSED = 0.0

# Boundary groups: a group counts as called when any of its names was.
STEP, FFT, WRITE = STEPPERS, TRANSFORMS, WRITES
DIAG, PRESET, MEMBER, ENSEMBLE = ("diagnostics.collect_record",), ("presets.build_initial_state",), ("runner.run_member",), ("runner.run_ensemble",)

# name -> (unit, boundary groups that must have been called, formula)
PER_LAYER = {
    "grid.transforms_per_step": ("count", (STEP, FFT), lambda a, s: _exact(a.calls["transforms:step"], s)),
    "grid.transforms_per_sample": ("count", (DIAG, FFT),
                                   lambda a, s: _exact(a.calls["transforms:diagnostics"], a.calls["diagnostics.collect_record"])),
    "grid.transforms_per_initial_state": ("count", (PRESET, FFT),
                                          lambda a, s: _exact(a.calls["transforms:presets"], a.calls["presets.build_initial_state"])),
    "grid.transform_ms_per_step": ("ms", (STEP, FFT), lambda a, s: 1e3 * a.sums["transform_time:step"] / s),
    "grid.transform_share": ("ratio", (STEP, FFT), lambda a, s: a.sums["transform_time:step"] / _sum(a, "time:", STEPPERS)),
    "grid.transform_mb_per_step": ("MB-computed", (STEP, FFT), lambda a, s: a.sums["transform_bytes:step"] / s / 1e6),
    "dynamics.drift_calls_per_step": ("count", (STEP, ("dynamics.drift",)), lambda a, s: _exact(a.calls["drift_in_step"], s)),
    "dynamics.drift_self_ms_per_step": ("ms", (STEP, ("dynamics.drift",)), lambda a, s: 1e3 * a.sums["self:dynamics.drift"] / s),
    "dynamics.noise_op_self_ms_per_step": ("ms", (STEP, ("dynamics.noise_op",)), lambda a, s: 1e3 * a.sums["self:dynamics.noise_op"] / s),
    "dynamics.ito_correction_self_ms_per_step": ("ms", (STEP, ("dynamics.ito_correction",)),
                                                 lambda a, s: 1e3 * a.sums["self:dynamics.ito_correction"] / s),
    "integrators.step_ms_p50": ("ms", (STEP,), lambda a, s: 1e3 * _pct(a.samples["step"], 50)),
    "integrators.step_ms_p90": ("ms", (STEP,), lambda a, s: 1e3 * _pct(a.samples["step"], 90)),
    "integrators.self_ms_per_step": ("ms", (STEP,), lambda a, s: 1e3 * _sum(a, "self:", STEPPERS) / s),
    "integrators.check_finite_ms_per_step": ("ms", (STEP, ("integrators.check_finite",)),
                                             lambda a, s: 1e3 * a.sums["time:integrators.check_finite"] / s),
    "noise.increments_us": ("us", (("noise.increments",),), lambda a, s: 1e6 * _pct(a.samples["noise.increments"], 50)),
    "noise.combine_us": ("us", (("noise.combine",),), lambda a, s: 1e6 * _pct(a.samples["noise.combine"], 50)),
    "runner.member_s_p50": ("s", (MEMBER,), lambda a, s: _pct(a.samples["member"], 50)),
    "runner.member_s_p90": ("s", (MEMBER,), lambda a, s: _pct(a.samples["member"], 90)),
    "runner.member_setup_ms": ("ms", (MEMBER, STEP), lambda a, s: 1e3 * _pct(a.samples["member_setup"], 50)),
    "runner.ensemble_overhead_ms": ("ms", (ENSEMBLE, MEMBER),
                                    lambda a, s: 1e3 * _pct(a.samples["ensemble_overhead"], 50)),
    "config.parse_ms": ("ms", (("config.parse_config",),), lambda a, s: 1e3 * _pct(a.samples["config.parse_config"], 50)),
    "presets.initial_state_ms": ("ms", (PRESET,),
                                 lambda a, s: 1e3 * _pct(a.samples["presets.build_initial_state"], 50)),
    "diagnostics.samples": ("count", (ENSEMBLE, DIAG),
                            lambda a, s: _exact(a.calls["samples_in_ensemble"], a.calls["runner.run_ensemble"])),
    "diagnostics.collect_ms_p50": ("ms", (DIAG,), lambda a, s: 1e3 * _pct(a.samples["collect"], 50)),
    "diagnostics.share": ("ratio", (DIAG, MEMBER),
                          lambda a, s: a.sums["time:diagnostics.collect_record"] / a.sums["time:runner.run_member"]),
    "outputs.bytes_written": ("bytes", (ENSEMBLE, WRITE),
                              lambda a, s: _exact(int(a.sums["bytes_written"]), a.calls["runner.run_ensemble"])),
    "outputs.write_ms_per_call": ("ms", (WRITE,), lambda a, s: 1e3 * _sum(a, "time:", WRITES) / _calls(a, WRITES)),
    "outputs.write_mb_per_s": ("MB/s", (WRITE,), lambda a, s: a.sums["bytes_written"] / 1e6 / _sum(a, "time:", WRITES)),
    "outputs.read_checkpoint_ms": ("ms", (("outputs.read_checkpoint",),),
                                   lambda a, s: 1e3 * _pct(a.samples["outputs.read_checkpoint"], 50)),
}


def _sum(acc: Accumulator, prefix: str, names) -> float:
    return sum(acc.sums[f"{prefix}{n}"] for n in names)


def _calls(acc: Accumulator, names) -> int:
    return sum(acc.calls[n] for n in names)


def layer_metrics(acc: Accumulator, bypasses=()) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values, and the reason for each one not measured: bypassed
    (0) when every uncalled boundary is in `bypasses`, else missing (-1)."""
    steps = _calls(acc, STEPPERS)
    values, reasons = {}, {}
    for name, (_unit, needs, formula) in PER_LAYER.items():
        absent = [group for group in needs if not _calls(acc, group)]
        if not absent:
            values[name] = formula(acc, steps)
            continue
        listed = "; ".join(" or ".join(group) for group in absent)
        if all(set(group) <= set(bypasses) for group in absent):
            values[name] = BYPASSED
            reasons[name] = "bypassed by this workload: no calls to " + listed
        else:
            values[name] = MISSING
            reasons[name] = "missing: no calls to " + listed
    return values, reasons
