"""Spans around calls into sabi's public functions, recorded from the
benchmark's side of the boundary.

`Tracer.install` replaces each boundary where its caller looks it up (the
names `sabi.runner` imported, and the methods on their classes) with a
wrapper that records a span: id, parent id, boundary name, start, end, and
for transforms and writes a work count and a byte count. Spans stay in
memory and are written out once, at the end of the round. `uninstall` puts
the originals back.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

STEPPERS = (
    "integrators.rk4_step",
    "integrators.heun_stratonovich_step",
    "integrators.euler_maruyama_step",
)
TRANSFORMS = ("grid.rfft", "grid.irfft")
RUNNER_BOUNDARIES = {
    "run_member": "runner.run_member",
    "rk4_step": STEPPERS[0],
    "heun_stratonovich_step": STEPPERS[1],
    "euler_maruyama_step": STEPPERS[2],
    "check_finite": "integrators.check_finite",
    "build_initial_state": "presets.build_initial_state",
    "collect_record": "diagnostics.collect_record",
    "parse_config": "config.parse_config",
    "read_checkpoint": "outputs.read_checkpoint",
    "write_snapshot": "outputs.write_snapshot",
    "write_checkpoint": "outputs.write_checkpoint",
    "write_ensemble_summary": "outputs.write_ensemble_summary",
    "write_manifest": "outputs.write_manifest",
}
WRITES = (
    "outputs.write_snapshot",
    "outputs.write_checkpoint",
    "outputs.write_ensemble_summary",
    "outputs.write_manifest",
)


def _scalar_transforms(args, result) -> tuple[int, int]:
    """A call on a (..., nx, ny, nz) array does prod(...) scalar 3-D FFTs;
    bytes are the input plus output array sizes (computed, not measured)."""
    arr = args[1]
    return math.prod(arr.shape[:-3]), arr.nbytes + result.nbytes


def _written(args, result) -> tuple[int, int]:
    paths = result if isinstance(result, list) else [result]
    return len(paths), sum(Path(p).stat().st_size for p in paths)


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, work count, bytes)
        self.spans: list[tuple] = []
        self.on = False
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            count, nbytes = measure(args, result) if measure else (0, 0)
            spans.append((sid, parent, name, t0, t1, count, nbytes))
            return result

        return traced

    def _wrap_factory(self, name: str, factory):
        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return make

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import sabi.runner as runner
        from sabi.grid import GridSpec
        from sabi.noise import NoiseModel, WienerDriver

        for attr, name in RUNNER_BOUNDARIES.items():
            measure = _written if name in WRITES else None
            self._patch(runner, attr, self.wrap(name, getattr(runner, attr), measure))
        for attr, name in (
            ("make_drift", "dynamics.drift"),
            ("make_noise_op", "dynamics.noise_op"),
            ("make_ito_correction", "dynamics.ito_correction"),
        ):
            self._patch(runner, attr, self._wrap_factory(name, getattr(runner, attr)))
        for cls, attr, name, measure in (
            (GridSpec, "rfft", "grid.rfft", _scalar_transforms),
            (GridSpec, "irfft", "grid.irfft", _scalar_transforms),
            (WienerDriver, "increments", "noise.increments", None),
            (NoiseModel, "combine", "noise.combine", None),
        ):
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], measure))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans column-wise, names interned."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        payload = {
            "names": names,
            "id": cols[0],
            "parent": cols[1],
            "name": [index[n] for n in cols[2]],
            "t0": cols[3],
            "t1": cols[4],
            "count": cols[5],
            "bytes": cols[6],
        }
        path.write_text(json.dumps(payload))


def load_spans(path: Path) -> list[tuple]:
    data = json.loads(Path(path).read_text())
    names = data["names"]
    return list(
        zip(
            data["id"],
            data["parent"],
            (names[i] for i in data["name"]),
            data["t0"],
            data["t1"],
            data["count"],
            data["bytes"],
        )
    )


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are merged first, so overlaps count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, t0, t1, *_ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, *_ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
