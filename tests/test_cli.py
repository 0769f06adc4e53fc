import os
import subprocess
import sys
from pathlib import Path

import pytest

from cowsim.alice import DecoyStrategy
from cowsim.cli import ConfigError, main, parse_config


def run_cli(*argv):
    return main(list(argv))


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        config = parse_config(str(path))
        assert config.mu == 0.5
        assert config.t_b == 0.9
        assert config.tau_ns == 2.4

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.25  # lower power\ndecoy_strategy=frame-header\nseed=7\n")
        config = parse_config(str(path))
        assert config.mu == 0.25
        assert config.decoy_strategy is DecoyStrategy.FRAME_HEADER
        assert config.seed == 7

    def test_override_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu=0.25\n")
        assert parse_config(str(path), ["mu=0.75"]).mu == 0.75

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(None, ["bogus=1"])

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="t_b"):
            parse_config(None, ["t_b=1.5"])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu 0.5\n")
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/run.cfg")


class TestCommands:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--out", str(out), "--set", "n_bits=500", "--seed", "3")
        assert code == 0
        assert (out / "stats.log").exists()
        assert (out / "transcript.log").exists()
        assert "sifted_len=" in capsys.readouterr().out

    def test_run_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", "--out", str(out), "--set", "n_bits=500", "--seed", "3") == 0
            outs.append(
                (out / "stats.log").read_bytes() + (out / "transcript.log").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_table1(self, tmp_path, capsys):
        out = tmp_path / "t1"
        assert run_cli("table1", "--out", str(out)) == 0
        text = (out / "table1.csv").read_text()
        assert text.splitlines()[-1] == "verdict,pass"
        assert len(text.splitlines()) == 8  # header + 6 rows + verdict

    def test_sweep_mu(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep-mu", "--out", str(out), "--set", "n_bits=20000", "--mu-grid", "0.1,0.5,1.0"
        )
        assert code == 0
        lines = (out / "sweep_mu.csv").read_text().splitlines()
        assert lines[0] == "mu,detectable,splittable,empirical"
        detectable = [float(l.split(",")[1]) for l in lines[1:]]
        splittable = [float(l.split(",")[2]) for l in lines[1:]]
        assert detectable == sorted(detectable)
        assert splittable == sorted(splittable)

    def test_numeric_precision_roundtrip(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli("sweep-mu", "--out", str(out), "--set", "n_bits=1000", "--mu-grid", "0.5")
        row = (out / "sweep_mu.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.3934693402873666) < 1e-9
        assert abs(float(row[2]) - 0.22925295873160084) < 1e-9

    def test_compare_attack(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli("compare-attack", "--out", str(out), "--set", "n_bits=20000", "--seed", "2")
        assert code == 0
        text = (out / "compare_attack.log").read_text()
        assert "rate_ratio=" in text and "recovery_attack=" in text

    def test_selftest(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_config_error_exit_code(self, capsys):
        assert run_cli("run", "--set", "t_b=1.5") == 1
        assert "t_b" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("no-such-command") == 1

    def test_dead_time_bins_rejected(self, capsys):
        # dead time is always slot-gated; the old knob is an unknown key
        code = run_cli(
            "run", "--set", "dead_time_bins=0", "--set", "n_bits=2000", "--set", "p_dark_data=0.5"
        )
        assert code == 1
        assert "dead_time_bins" in capsys.readouterr().err

    def test_format_flag_rejected(self, capsys):
        assert run_cli("run", "--format", "csv") == 1
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["sweep-mu", "--mu-grid", "0.5,-1"], "--mu-grid"),
            (["run", "--set", "eve_seed=-1"], "eve_seed"),
            (["run", "--set", "seed=-1"], "seed"),
            (["run", "--seed", "-1"], "--seed"),
            (["run", "--set", "mu=inf"], "mu"),
            (["run", "--set", "alarm_threshold=nan"], "alarm_threshold"),
        ],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, argv, key):
        code = run_cli(*argv, "--set", "n_bits=500", "--out", str(tmp_path))
        assert code == 1
        assert key in capsys.readouterr().err


def test_python_dash_m(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cowsim", "table1", "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "verdict,pass"
