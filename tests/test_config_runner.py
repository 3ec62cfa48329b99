"""Configuration, output-format, reproducibility and CLI tests."""

import copy
import json
import subprocess
import sys

import numpy as np
import pytest

import sabi.diagnostics
import sabi.runner
from sabi.cli import main as cli_main
from sabi.config import _noise_model, load_config, parse_config
from sabi.errors import ConfigError
from sabi.noise import NoiseModel
from sabi.outputs import read_checkpoint, read_diagnostics_csv, read_snapshot_component
from sabi.runner import initial_arrays, resume_member, run_ensemble

MINIMAL = {"model": "maxwell", "grid": {"nx": 16, "ny": 16, "nz": 16}}
STOCHASTIC = {
    "model": "maxwell-stratonovich",
    "grid": {"nx": 8, "ny": 8, "nz": 8, "dealias": True},
    "noise": {"modes": [{"type": "constant", "a": [0.1, 0.0, 0.0]}]},
    "integrator": {"dt": 0.02, "t_end": 0.04},
    "ensemble": {"members": 2},
    "output": {"snapshot_interval": 0},
}


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.ensemble.members == 1
        assert cfg.integrator.scheme == "rk4"
        # dt defaults from the CFL guard at unit wave speed
        assert cfg.integrator.dt == pytest.approx(0.5 * cfg.grid.min_spacing)
        assert cfg.initial.preset == "random-band-limited"

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(MINIMAL, extra_knob=3)
        with pytest.raises(ConfigError, match="extra_knob"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_nested_key_rejected(self, tmp_path):
        bad = dict(MINIMAL, grid={"nx": 16, "ny": 16, "nz": 16, "spacing": 0.1})
        with pytest.raises(ConfigError, match="spacing"):
            load_config(write_config(tmp_path, bad))

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"model": "maxwell",\n  "grid": oops}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_divergence_violating_noise_rejected(self, tmp_path):
        bad = dict(
            MINIMAL,
            model="maxwell-stratonovich",
            noise={"modes": [{"type": "harmonic", "k": [1, 0, 0], "a": [1, 0, 0]}]},
        )
        cfg_path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="divergence-free"):
            load_config(cfg_path)
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 2

    def test_noise_on_deterministic_model_rejected(self, tmp_path):
        bad = dict(
            MINIMAL,
            noise={"modes": [{"type": "constant", "a": [1, 0, 0]}]},
        )
        with pytest.raises(ConfigError, match="deterministic"):
            load_config(write_config(tmp_path, bad))

    def test_scheme_model_mismatch_rejected(self, tmp_path):
        bad = dict(MINIMAL, integrator={"scheme": "euler-maruyama"})
        with pytest.raises(ConfigError, match="scheme"):
            load_config(write_config(tmp_path, bad))

    def test_round_trip_identity(self, tmp_path):
        data = {
            "model": "bi-stratonovich",
            "grid": {"nx": 8, "ny": 8, "nz": 8},
            "initial": {"preset": "random-band-limited", "seed": 3, "amplitude": 0.2},
            "noise": {"modes": [{"type": "harmonic", "k": [0, 0, 1], "a": [0.4, 0, 0]}]},
            "integrator": {"dt": 0.01, "t_end": 0.1},
            "ensemble": {"members": 2, "seed": 9},
        }
        cfg = load_config(write_config(tmp_path, data))
        again = parse_config(cfg.to_dict())
        assert again == cfg
        assert again.sha256() == cfg.sha256()

    def test_preset_model_compatibility(self, tmp_path):
        bad = dict(MINIMAL, initial={"preset": "taylor-green"})
        with pytest.raises(ConfigError, match="preset"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "model, preset, bad_lengths, good_lengths",
        [
            pytest.param("euler-vorticity", "taylor-green", {"Lx": 5.0}, {}, id="taylor-green"),
            pytest.param("euler-vorticity", "abc", {"Lz": 5.0}, {}, id="abc"),
            pytest.param(
                "mhd", "helical-orthogonal", {"Lz": 5.0}, {"Lx": 5.0, "Ly": 4.0},
                id="helical-orthogonal",
            ),
        ],
    )
    def test_preset_period_rejected(self, tmp_path, model, preset, bad_lengths, good_lengths):
        # these presets' formulas have period 2*pi (helical-orthogonal's only in z)
        data = {
            "model": model,
            "grid": {"nx": 8, "ny": 8, "nz": 8, **bad_lengths},
            "initial": {"preset": preset},
        }
        with pytest.raises(ConfigError, match="2\\*pi"):
            parse_config(data)
        cfg_path = write_config(tmp_path, data)
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 2
        data["grid"] = {"nx": 8, "ny": 8, "nz": 8, **good_lengths}
        parse_config(data)

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("grid", "nx"), 16.7, id="nx-float"),
            pytest.param(("grid", "dealias"), "false", id="dealias-string"),
            pytest.param(("ensemble", "members"), 2.9, id="members-float"),
            pytest.param(("output", "snapshot_interval"), -3, id="snapshot-interval-negative"),
            pytest.param(("integrator", "dt"), float("nan"), id="dt-nan"),
            pytest.param(("integrator", "t_end"), float("inf"), id="t_end-infinity"),
            pytest.param(("integrator", "t_end"), 10**400, id="t_end-beyond-float-range"),
            pytest.param(("noise", "modes", 0, "a"), "xyz", id="a-string"),
            pytest.param(("noise", "modes"), 5, id="modes-int"),
            pytest.param(("schema",), True, id="schema-bool"),
        ],
    )
    def test_malformed_value_rejected(self, tmp_path, path, value):
        parse_config(STOCHASTIC)  # the unmodified config is valid
        data = copy.deepcopy(STOCHASTIC)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError):
            parse_config(data)
        cfg_path = write_config(tmp_path, data)  # NaN/Infinity as JSON extensions
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 2


def quick_run_config(tmp_path, **over):
    data = {
        "model": "maxwell",
        "grid": {"nx": 8, "ny": 8, "nz": 8},
        "initial": {"preset": "plane-wave", "amplitude": 0.1},
        "integrator": {"dt": 0.02, "t_end": 0.1},
        "output": {
            "directory": "out",
            "diagnostics_interval": 1,
            "checkpoint_interval": 2,
        },
    }
    data.update(over)
    return write_config(tmp_path, data)


class TestRunOutputs:
    def test_reproducible_csv_bytes(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        r1 = run_ensemble(cfg, output_root=tmp_path / "a")
        r2 = run_ensemble(cfg, output_root=tmp_path / "b")
        c1 = (tmp_path / "a/out/member_0000/diagnostics.csv").read_bytes()
        c2 = (tmp_path / "b/out/member_0000/diagnostics.csv").read_bytes()
        assert c1 == c2
        assert np.array_equal(r1.members[0].final_arrays[0], r2.members[0].final_arrays[0])

    def test_snapshot_round_trip(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        run_ensemble(cfg, output_root=tmp_path)
        member = tmp_path / "out/member_0000"
        final = sorted(member.glob("step_*_D_y.f64"))[-1]
        vals, meta = read_snapshot_component(final)
        assert vals.shape == (8, 8, 8)
        assert meta["dims"] == [8, 8, 8]
        assert meta["order"] == "x-fastest"
        # the final snapshot must equal the in-memory final state
        result = run_ensemble(cfg, output_root=tmp_path / "again")
        assert np.array_equal(vals, result.members[0].final_arrays[0][1])

    def test_manifest_lists_all_files(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        run_ensemble(cfg, output_root=tmp_path)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == cfg.sha256()
        assert manifest["members"][0]["stream"] == [0, 0]
        for rel in manifest["files"]:
            assert (out / rel).exists(), rel
        # and conversely: no stray files outside the manifest
        listed = set(manifest["files"]) | {"manifest.json"}
        on_disk = {
            str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
        }
        assert on_disk == listed

    def test_diagnostics_readback(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        run_ensemble(cfg, output_root=tmp_path)
        cols = read_diagnostics_csv(tmp_path / "out/member_0000/diagnostics.csv")
        assert cols["time"][0] == 0.0
        assert cols["time"][-1] == pytest.approx(0.1)
        assert np.all(np.isfinite(cols["energy"]))

    @pytest.mark.parametrize(
        "model,scheme,extra",
        [
            ("maxwell", "rk4", {}),
            (
                "maxwell-stratonovich",
                "heun",
                {"noise": {"modes": [{"type": "harmonic", "k": [0, 0, 1], "a": [0.4, 0, 0]}]}},
            ),
            (
                "bi-ito",
                "euler-maruyama",
                {"noise": {"modes": [{"type": "constant", "a": [0.4, 0, 0]}]}},
            ),
            ("mhd", "rk4", {"initial": {"preset": "helical-orthogonal", "amplitude": 0.1}}),
            (
                "euler-vorticity",
                "heun",
                {
                    "initial": {"preset": "taylor-green", "amplitude": 0.5},
                    "noise": {"modes": [{"type": "constant", "a": [0.3, 0, 0]}]},
                },
            ),
            (
                "maxwell-ito",
                "euler-maruyama",
                {"noise": {"modes": [{"type": "constant", "a": [0.4, 0, 0]}]}},
            ),
        ],
    )
    def test_checkpoint_resume_bit_exact(self, tmp_path, model, scheme, extra):
        over = dict(
            model=model,
            integrator={"scheme": scheme, "dt": 0.02, "t_end": 0.1},
            **extra,
        )
        cfg = load_config(quick_run_config(tmp_path, **over))
        full = run_ensemble(cfg, output_root=tmp_path / "full")
        ck_path = tmp_path / "full/out/member_0000/checkpoint_000002.npz"
        assert ck_path.exists()
        resumed = resume_member(ck_path, output_root=tmp_path / "resumed")
        for a, b in zip(full.members[0].final_arrays, resumed.final_arrays):
            assert a.tobytes() == b.tobytes()
        c1 = (tmp_path / "full/out/member_0000/diagnostics.csv").read_bytes()
        c2 = (tmp_path / "resumed/out/member_0000/diagnostics.csv").read_bytes()
        assert c1 == c2

    def test_checkpoint_contents(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        run_ensemble(cfg, output_root=tmp_path)
        ck = read_checkpoint(tmp_path / "out/member_0000/checkpoint_000004.npz")
        assert ck.step == 4
        assert ck.time == pytest.approx(0.08)
        assert json.loads(ck.config_json) == cfg.to_dict()

    def test_member_stream_separation(self, tmp_path):
        cfg = load_config(
            quick_run_config(
                tmp_path,
                model="maxwell-stratonovich",
                noise={"modes": [{"type": "constant", "a": [0.5, 0, 0]}]},
                integrator={"scheme": "heun", "dt": 0.02, "t_end": 0.1},
                ensemble={"members": 2, "seed": 4},
                output={"diagnostics_interval": 1},
            )
        )
        result = run_ensemble(cfg)
        a, b = result.members
        assert not np.array_equal(a.final_arrays[0], b.final_arrays[0])

    def test_no_noise_matches_deterministic(self, tmp_path):
        stoch = load_config(
            quick_run_config(
                tmp_path,
                model="maxwell-stratonovich",
                integrator={"scheme": "heun", "dt": 0.001, "t_end": 0.05},
                output={"diagnostics_interval": 10},
            )
        )
        det = load_config(
            quick_run_config(
                tmp_path,
                integrator={"scheme": "rk4", "dt": 0.001, "t_end": 0.05},
                output={"diagnostics_interval": 10},
            )
        )
        s = run_ensemble(stoch).members[0].final_arrays
        d = run_ensemble(det).members[0].final_arrays
        assert np.max(np.abs(s[0] - d[0])) < 1e-9  # heun vs rk4 at tiny dt

    def test_noise_model_built_once_per_config(self, tmp_path, monkeypatch):
        # building the noise model costs a divergence check per mode and the
        # harmonic modes' partials; parse_config builds it (to reject bad modes at load
        # time), and the run reuses that build, as does a resume of the run
        # (in a fresh process the resume's own parse_config builds it once)
        _noise_model.cache_clear()
        builds = []
        original = NoiseModel.__init__

        def counting(self, grid, modes=()):
            builds.append(len(modes))
            original(self, grid, modes)

        monkeypatch.setattr(NoiseModel, "__init__", counting)
        cfg = parse_config(
            json.loads(
                quick_run_config(
                    tmp_path,
                    model="maxwell-stratonovich",
                    noise={"modes": [{"type": "harmonic", "k": [0, 0, 1], "a": [0.3, 0, 0]}]},
                    integrator={"scheme": "heun", "dt": 0.02, "t_end": 0.08},
                    ensemble={"members": 2},
                ).read_text()
            )
        )
        run_ensemble(cfg, output_root=tmp_path)
        assert builds == [1]
        checkpoint = tmp_path / "out/member_0001/checkpoint_000002.npz"
        resume_member(checkpoint, tmp_path / "r")
        assert builds == [1]
        _noise_model.cache_clear()
        resume_member(checkpoint, tmp_path / "r2")
        assert builds == [1, 1]

    def test_vorticity_sample_recovers_velocity_once(self, tmp_path, monkeypatch):
        # a sample's diagnostics and its CFL check share one u = curl^-1 w
        calls = []
        for module in (sabi.runner, sabi.diagnostics):
            original = module.curl_inv

            def counting(grid, w, original=original):
                calls.append(w.shape)
                return original(grid, w)

            monkeypatch.setattr(module, "curl_inv", counting)
        cfg = load_config(
            quick_run_config(
                tmp_path,
                model="euler-vorticity",
                initial={"preset": "taylor-green", "amplitude": 0.5},
                integrator={"scheme": "rk4", "dt": 0.02, "t_end": 0.08},
            )
        )
        records = run_ensemble(cfg).members[0].records
        assert len(records) == 5
        assert len(calls) == len(records)

    def test_initial_arrays_deterministic(self, tmp_path):
        cfg = load_config(quick_run_config(tmp_path))
        a = initial_arrays(cfg)
        b = initial_arrays(cfg)
        assert a[0].tobytes() == b[0].tobytes()


class TestCLI:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg_path = quick_run_config(tmp_path)
        code = cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)])
        assert code == 0
        assert "completed maxwell" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path, {"model": "nope", "grid": {"nx": 8, "ny": 8, "nz": 8}})
        assert cli_main(["run", str(bad)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 2

    def test_resume_cli(self, tmp_path):
        cfg_path = quick_run_config(tmp_path)
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 0
        ck = tmp_path / "out/member_0000/checkpoint_000002.npz"
        assert cli_main(["resume", str(ck), "--output-root", str(tmp_path / "r")]) == 0

    def test_verify_unknown_suite(self):
        assert cli_main(["verify", "nonexistent-suite"]) == 2

    def test_verify_failure_exit_code(self, monkeypatch):
        from sabi import verify

        def failing(**_):
            rep = verify.SuiteReport("synthetic")
            rep.check("always", 1.0, 0.5)
            return rep

        monkeypatch.setitem(verify.SUITES, "synthetic", failing)
        assert cli_main(["verify", "synthetic"]) == 4

    def test_cfl_guard_abort_exit_code(self, tmp_path):
        cfg_path = quick_run_config(
            tmp_path, integrator={"scheme": "rk4", "dt": 1.0, "t_end": 2.0}
        )
        assert cli_main(["run", str(cfg_path), "--output-root", str(tmp_path)]) == 3

    def test_member_failure_carries_index(self, tmp_path):
        from sabi.errors import NumericalError

        cfg = load_config(
            quick_run_config(
                tmp_path, integrator={"scheme": "rk4", "dt": 1.0, "t_end": 2.0}
            )
        )
        with pytest.raises(NumericalError, match="member 0"):
            run_ensemble(cfg, output_root=tmp_path)

    def test_verify_quick_suite(self, capsys):
        assert cli_main(["verify", "operators", "--grid", "16"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] operators" in out

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sabi.cli", "verify", "operators", "--grid", "16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout
