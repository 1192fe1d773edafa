"""End-to-end checks of the ``mimodsp`` command line tool."""
import csv
import os
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from mimodsp import SimConfig, run_uplink_ber, table2_cost
from mimodsp.cli import build_experiment, main
from mimodsp.link import sim

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def _write_config(tmp_path, payload):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def _read_csv(path):
    comments = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            comments[key] = val
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


_TINY_BER = {
    "experiment": "ber",
    "m": 8,
    "k": 2,
    "snr_db": [-2.0, 0.0],
    "coded": False,
    "coherence_uses": 128,
    "frames": 4,
    "seed": 7,
}

_TINY_EVM = {"experiment": "evm_vs_m", "m_list": [4, 6], "k": 2,
             "trials": 2, "uses": 8}
_TINY_TABLE = {"experiment": "complexity_table", "m": 16, "k_list": [4],
               "algorithms": ["nsa", "chd"]}
_TINY_CALIBRATION = {"experiment": "calibration", "m": 4, "k": 2, "trials": 2}
_TINY_FXP = dict(_TINY_BER, experiment="fxp_sweep", fraction_bits=[8])
_TINY_OUTAGE = dict(_TINY_BER, experiment="outage", fractions=[0.1],
                    policy="exclude", target_ber=1e-3)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            CONFIG_DIR.glob("*.yaml")))
    def test_validates(self, name, capsys):
        assert main(["validate", "--config", str(CONFIG_DIR / name)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_all_experiments_have_a_shipped_config(self):
        shipped = {yaml.safe_load((CONFIG_DIR / p.name).read_text())["experiment"]
                   for p in CONFIG_DIR.glob("*.yaml")}
        assert shipped == {"ber", "evm_vs_m", "fxp_sweep", "outage",
                           "complexity_table", "interconnect", "hardening",
                           "calibration"}


class TestRunBer:
    def test_csv_round_trip(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _TINY_BER)
        out = str(tmp_path / "ber.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out
        comments, header, rows = _read_csv(out)
        assert comments["version"] == "0.1.0"
        assert comments["experiment"] == "ber"
        assert comments["seed"] == "7"
        assert comments["m"] == "8"
        assert header == ["snr_db", "n_bits", "n_errors", "ber", "stderr"]
        assert len(rows) == 2
        for snr, row in zip((-2.0, 0.0), rows):
            assert float(row[0]) == snr
            assert int(row[1]) == 4 * 2 * 128 * 2
            assert 0.0 <= float(row[3]) < 0.5

    def test_every_sim_config_field_is_a_config_key(self, monkeypatch):
        want = SimConfig(m=8, k=2, snr_db=(-2.0, 0.0), constellation="16qam",
                         detector="mmse", coded=False, coherence_uses=64,
                         frames=3, pilot_snr_db=20.0, signal_fraction_bits=10,
                         operator_fraction_bits=9, adc_bits=6, nsa_order=2,
                         cd_sweeps=4, c_const=0.9, victim_fraction=0.25,
                         victim_mode="stuck_at_value", victim_policy="ignore",
                         seed=5)
        # a key read and then dropped would leave its field at the default
        assert all(getattr(want, f.name) != f.default
                   for f in fields(SimConfig) if f.default is not MISSING)
        payload = {f.name: getattr(want, f.name) for f in fields(SimConfig)
                   if f.name != "seed"}
        payload.update(experiment="ber", snr_db=[-2.0, 0.0], seed=5)
        built = []

        def fake_run(cfg, workers):
            built.append(cfg)
            return SimpleNamespace(points=[])

        monkeypatch.setattr("mimodsp.cli.run_uplink_ber", fake_run)
        _, runner, _, _ = build_experiment(payload)
        runner()
        assert built == [want]

    def test_seed_override_is_echoed_and_applied(self, tmp_path):
        cfg = _write_config(tmp_path, _TINY_BER)
        out = str(tmp_path / "ber.csv")
        assert main(["run", "--config", cfg, "--out", out, "--seed", "123"]) == 0
        comments, _, _ = _read_csv(out)
        assert comments["seed"] == "123"

    def test_workers_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path, dict(_TINY_BER, workers=2))
        out = str(tmp_path / "ber.csv")
        assert main(["run", "--config", cfg, "--out", out,
                     "--workers", "1"]) == 0
        comments, _, _ = _read_csv(out)
        assert comments["workers"] == "1"


class TestRunFxpSweep:
    def test_one_pass_over_every_width(self, tmp_path, monkeypatch):
        # the per-width loop built every frame once per width: 18 calls
        payload = dict(_TINY_BER, experiment="fxp_sweep", detector="chd",
                       include_float=True, fraction_bits=[2, 3, 4, 6, 8],
                       snr_db=[-4.0, 0.0], frames=3)
        calls = []
        frame_data = sim._frame_data

        def counting_frame_data(*args):
            calls.append(args[1])
            return frame_data(*args)

        monkeypatch.setattr(sim, "_frame_data", counting_frame_data)
        out = str(tmp_path / "fxp.csv")
        assert main(["run", "--config", _write_config(tmp_path, payload),
                     "--out", out]) == 0
        assert calls == [0, 1, 2]
        _, header, rows = _read_csv(out)
        assert header == ["fraction_bits", "snr_db", "n_bits", "n_errors",
                          "ber"]
        base = SimConfig(m=8, k=2, snr_db=(-4.0, 0.0), detector="chd",
                         coded=False, coherence_uses=128, frames=3, seed=7)
        want = []
        for n in (None, 2, 3, 4, 6, 8):
            res = run_uplink_ber(replace(base, signal_fraction_bits=n,
                                         operator_fraction_bits=n))
            want.extend(["float" if n is None else str(n), str(p.snr_db),
                         str(p.n_bits), str(p.n_errors), f"{p.ber:.6e}"]
                        for p in res.points)
        assert rows == want
        assert all(int(row[3]) > 0 for row in rows)


class TestRunAnalytic:
    def test_complexity_table_matches_cost_model(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "experiment": "complexity_table",
            "m": 128,
            "k_list": [16],
            "algorithms": ["nsa", "chd"],
            "nsa_order": 3,
            "coherence_uses": 512,
        })
        out = str(tmp_path / "table.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        _, header, rows = _read_csv(out)
        assert header[0] == "algorithm"
        for row in rows:
            cost = table2_cost(row[0], 128, 16, l=3)
            assert int(row[5]) == int(cost.per_realization)
            assert int(row[6]) == int(cost.per_use)
            assert int(row[7]) == int(cost.total(512))

    def test_interconnect_defaults_hit_reference_budget(self, tmp_path):
        out = str(tmp_path / "rates.csv")
        assert main(["run", "--config",
                     str(CONFIG_DIR / "interconnect.yaml"),
                     "--out", out]) == 0
        _, header, rows = _read_csv(out)
        r_ofdm = float(rows[0][header.index("r_ofdm_samples_per_s")])
        r_total = float(rows[0][header.index("r_total_bits_per_s")])
        assert r_ofdm == pytest.approx(16.8e6, rel=1e-3)
        assert r_total == pytest.approx(40.32e9, rel=1e-3)

    def test_calibration_rows_pinned(self, tmp_path):
        # rows of the shipped config, recorded when the Monte-Carlo loop
        # still lived in the CLI
        out = tmp_path / "calibration.csv"
        assert main(["run", "--config", str(CONFIG_DIR / "calibration.yaml"),
                     "--out", str(out)]) == 0
        body = [line for line in out.read_text().splitlines()
                if not line.startswith("# ")]
        assert body == [
            "label,residual_error_db,median_mui_db",
            "uncalibrated,,-19.7655",
            "calibrated,-60.0,-61.0679",
            "calibrated,-50.0,-51.0704",
            "calibrated,-40.0,-41.0785",
            "calibrated,-30.0,-31.0854",
            "calibrated,-20.0,-21.0390",
        ]

    def test_calibration_precoder_name_is_case_insensitive(self, tmp_path,
                                                           capsys):
        # validate matches names as the library does, and the run uses them
        bodies = []
        for name in ("ZF", "zf"):
            cfg = _write_config(tmp_path, dict(_TINY_CALIBRATION,
                                               precoder=name))
            assert main(["validate", "--config", cfg]) == 0
            assert capsys.readouterr().out == "ok\n"
            out = tmp_path / f"calibration-{name}.csv"
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            capsys.readouterr()
            bodies.append([line for line in out.read_text().splitlines()
                           if not line.startswith("# ")])
        assert bodies[0] == bodies[1]

    def test_algorithm_names_are_case_insensitive(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(_TINY_TABLE,
                                           algorithms=["NSA", "chd"]))
        assert main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out == "ok\n"
        out = str(tmp_path / "table.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        _, _, rows = _read_csv(out)
        assert [row[0] for row in rows] == ["nsa", "chd"]

    def test_hardening_run(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "experiment": "hardening",
            "m_list": [10, 50],
            "trials": 2000,
            "seed": 1,
        })
        out = str(tmp_path / "hardening.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        _, header, rows = _read_csv(out)
        assert [row[0] for row in rows] == ["10", "50"]
        for row in rows:
            assert float(row[header.index("ratio")]) == pytest.approx(1.0,
                                                                      abs=0.3)


class TestValidationFailures:
    def _expect_failure(self, tmp_path, capsys, payload, fragment):
        cfg = _write_config(tmp_path, payload)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:")
        assert fragment in err

    def test_unknown_experiment(self, tmp_path, capsys):
        self._expect_failure(tmp_path, capsys,
                             {"experiment": "frobnicate"}, "experiment:")

    def test_missing_required_key(self, tmp_path, capsys):
        payload = dict(_TINY_BER)
        del payload["m"]
        self._expect_failure(tmp_path, capsys, payload, "m: required")

    def test_unknown_key(self, tmp_path, capsys):
        payload = dict(_TINY_BER, bogus=1)
        self._expect_failure(tmp_path, capsys, payload, "bogus: unknown key")

    def test_wrong_type(self, tmp_path, capsys):
        payload = dict(_TINY_BER, m="fish")
        self._expect_failure(tmp_path, capsys, payload, "m: expected int")

    def test_semantic_error_from_sim_config(self, tmp_path, capsys):
        payload = dict(_TINY_BER, k=16)
        self._expect_failure(tmp_path, capsys, payload, "exceed")

    # each of these used to pass validation and then fail at run time,
    # or run on a silently replaced value and write a nonsense CSV
    @pytest.mark.parametrize("payload, fragment", [
        (dict(_TINY_EVM, constellation="8psk"), "constellation: unknown"),
        (dict(_TINY_EVM, uses=0), "uses: must be at least 1"),
        (dict(_TINY_EVM, k=-2), "k: must be at least 1"),
        (dict(_TINY_EVM, k=0), "k: must be at least 1"),
        (dict(_TINY_EVM, m_ref=0), "m_ref: must be at least 1"),
        (dict(_TINY_EVM, m_ref=-4), "m_ref: must be at least 1"),
        (dict(_TINY_EVM, pa={"a_1db": -1.0}), "pa: compression amplitude"),
        (dict(_TINY_TABLE, m=0, k_list=[1]), "m: must be at least 1"),
        (dict(_TINY_TABLE, k_list=[0, 4]), "k_list: entries must be at least"),
        (dict(_TINY_TABLE, nsa_order=0), "nsa_order:"),
        (dict(_TINY_TABLE, nsa_order=0, algorithms=["cd"]), "nsa_order:"),
        (dict(_TINY_TABLE, coherence_uses=0),
         "coherence_uses: must be at least 1"),
        (dict(_TINY_CALIBRATION, m=0, k=1), "m: must be at least 1"),
        (dict(_TINY_CALIBRATION, k=0), "k: must be at least 1"),
        (dict(_TINY_EVM, uses=None), "uses: expected int, got None"),
        ({"experiment": "hardening", "m_list": [4], "trials": None},
         "trials: expected int, got None"),
        (dict(_TINY_BER, frames=None), "frames: expected int, got None"),
        (dict(_TINY_OUTAGE, target_ber=None),
         "target_ber: expected float, got None"),
        (dict(_TINY_BER, coded=None), "coded: expected bool, got None"),
        (dict(_TINY_FXP, include_float="no"),
         "include_float: expected bool, got 'no'"),
        (dict(_TINY_BER, output=7), "output: expected str, got 7"),
        (dict(_TINY_BER, trials=1), "trials: unknown key"),
        (dict(_TINY_OUTAGE, victim_fraction=0.2),
         "victim_fraction: unknown key"),
        (dict(_TINY_OUTAGE, victim_policy="ignore"),
         "victim_policy: unknown key"),
        (dict(_TINY_BER, workers=True), "workers: expected int, got True"),
        (dict(_TINY_FXP, signal_fraction_bits=4, operator_fraction_bits=4),
         "signal_fraction_bits: unknown key"),
        (dict(_TINY_BER, frames=2.5), "frames: expected int, got 2.5"),
        (dict(_TINY_OUTAGE, victim_mode="bogus"),
         "victim_mode: unknown 'bogus'"),
        (dict(_TINY_BER, victim_mode="transient"),
         "victim_mode: unknown 'transient'"),
        (dict(_TINY_EVM, precoder="rzf"), "precoder: 'rzf' not one of"),
        (dict(_TINY_CALIBRATION, precoder="rzf"),
         "precoder: 'rzf' not one of"),
        (dict(_TINY_OUTAGE, m=16, k=2, fractions=[0.25, 0.95]),
         "fractions: 0.95: victim_fraction: exclusion leaves fewer"),
        (dict(_TINY_OUTAGE, fractions=[0.1, 1.5]),
         "fractions: 1.5: victim_fraction: outside [0, 1)"),
        (dict(_TINY_OUTAGE, target_ber=2.0), "target_ber: 2.0 outside"),
        (dict(_TINY_TABLE, algorithms=["NSA", "lu"]),
         "algorithms: ('NSA', 'lu') not one of"),
    ])
    def test_rejected_before_running(self, tmp_path, capsys, payload,
                                     fragment):
        self._expect_failure(tmp_path, capsys, payload, fragment)

    @pytest.mark.parametrize("base", [_TINY_BER, _TINY_FXP, _TINY_OUTAGE,
                                      {"experiment": "interconnect"}])
    def test_bad_key_reported_alone(self, tmp_path, capsys, base):
        # no "unknown key" for the keys read after the bad one
        cfg = _write_config(tmp_path, dict(base, m="fish"))
        assert main(["validate", "--config", cfg]) == 1
        assert (capsys.readouterr().err
                == "validation error: m: expected int, got 'fish'\n")

    # an override below 1 used to pass validation: a ber run then failed
    # at run time (exit 2) and a hardening run wrote "# workers: 0"
    @pytest.mark.parametrize("payload", [
        _TINY_BER, {"experiment": "hardening", "m_list": [4], "trials": 2}])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_override_is_checked(self, tmp_path, capsys, payload,
                                         workers):
        cfg = _write_config(tmp_path, dict(payload, workers=2))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 1
        assert (capsys.readouterr().err
                == "validation error: workers: must be at least 1\n")
        assert not out.exists()

    # an amplifier whose alpha3 computes to zero has no compression point;
    # from_compression_point divides by it, so validation itself raises
    @pytest.mark.parametrize("pa", [{"alpha1": 0.0}, {"alpha1": 5e-324},
                                    {"a_1db": 1e-200},
                                    {"a_1db": float("inf")},
                                    {"a_1db": 1e200}])
    def test_amplifier_without_compression(self, tmp_path, capsys, pa):
        self._expect_failure(tmp_path, capsys, dict(_TINY_EVM, pa=pa), "pa:")

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/no/such/file.yaml"]) == 1
        assert "config:" in capsys.readouterr().err

    def test_validate_subcommand_reports_failure(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"experiment": "frobnicate"})
        assert main(["validate", "--config", cfg]) == 1


class TestRuntimeFailures:
    def test_baseline_that_never_crosses(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {
            "experiment": "outage",
            "m": 12,
            "k": 3,
            "snr_db": [-20.0, -18.0],
            "coded": False,
            "coherence_uses": 128,
            "frames": 3,
            "fractions": [0.1],
            "policy": "exclude",
            "target_ber": 1e-3,
        })
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "runtime error: baseline" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _TINY_BER)
        out = str(tmp_path / "missing" / "dir" / "x.csv")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert "runtime error:" in capsys.readouterr().err


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "mimodsp", "validate",
                           "--config", str(CONFIG_DIR / "interconnect.yaml")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_console_script_entry_point():
    exe = shutil.which("mimodsp")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "validate", "--config",
                           str(CONFIG_DIR / "interconnect.yaml")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
