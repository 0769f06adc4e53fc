import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim.alice import DecoyStrategy
from cowsim.cli import ConfigError, main, parse_config
from cowsim.engine import SimConfig

ROOT = Path(__file__).resolve().parents[1]


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
            (["run", "--set", "tau_ns=5e-324"], "tau_ns"),
            (["run", "--set", "tau_ns=1e-310"], "tau_ns"),
        ],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, argv, key):
        code = run_cli(*argv, "--set", "n_bits=500", "--out", str(tmp_path))
        assert code == 1
        assert key in capsys.readouterr().err


def test_python_dash_m(tmp_path):
    src = ROOT / "src"
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


@pytest.mark.parametrize(
    "field", [f for f in fields(SimConfig) if f.default is not None], ids=lambda f: f.name
)
def test_default_value_accepted(field):
    default = field.default
    rendered = default.value if isinstance(default, Enum) else default
    config = parse_config(None, [f"{field.name}={rendered}"])
    assert getattr(config, field.name) == field.default


def test_readme_lists_every_key():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"Config keys are the (\d+) `SimConfig` fields[^:]*:(.*?)\.\s", section, re.S)
    names = [f.name for f in fields(SimConfig)]
    assert re.findall(r"`(\w+)`", match.group(2)) == names
    assert int(match.group(1)) == len(names)


_BIG = sys.float_info.max
# the interval SimConfig checks each float key against; ends may be open
_RANGES = {
    "mu": (0.0, _BIG),
    "tau_ns": (sys.float_info.min / 1e-9, _BIG),
    "alarm_threshold": (-_BIG, _BIG),
    **dict.fromkeys(
        ["channel_t", "t_b", "eta_data", "eta_mon", "visibility"]
        + ["p_dark_data", "p_dark_mon", "f_verify", "f_coh"],
        (0.0, 1.0),
    ),
}
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 1e308, -1.0, -1e308, math.inf, -math.inf, math.nan]
_HINTS = typing.get_type_hints(SimConfig)


def _values(name):
    """Values to try for one key: its range ends and their neighbours, edge
    floats, in-range floats and any float."""
    kind = (typing.get_args(_HINTS[name]) or (_HINTS[name],))[0]
    if name == "n_bits":
        return st.integers(1, 300)
    if issubclass(kind, Enum):
        return st.sampled_from([m.value for m in kind])
    if kind is int:
        return st.integers(-3, 2**64)
    lo, hi = _RANGES[name]
    ends = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    return st.sampled_from(ends + _EDGE_FLOATS) | st.floats(lo, hi) | st.floats()


_SETTINGS = st.fixed_dictionaries(
    {"n_bits": _values("n_bits")},
    optional={f.name: _values(f.name) for f in fields(SimConfig) if f.name != "n_bits"},
)


@settings(deadline=None, max_examples=300)
@given(_SETTINGS)
def test_run_finishes_or_names_the_key(values):
    # every accepted config finishes with finite statistics and no
    # floating-point fault; every rejected one exits 1 naming a key that
    # is rejected on its own
    assignments = [f"{key}={value}" for key, value in values.items()]
    argv = ["run"] + [arg for a in assignments for arg in ("--set", a)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                code = main(argv + ["--out", out])
        if code == 0:
            for line in (Path(out) / "stats.log").read_text().splitlines():
                try:
                    number = float(line.partition("=")[2])
                except ValueError:
                    continue  # the verdict
                assert math.isfinite(number), line
            return
    assert code == 1
    named = [a for a in assignments if re.search(rf"\b{a.partition('=')[0]}\b", err.getvalue())]
    assert named, err.getvalue()
    for assignment in named:
        with pytest.raises(ConfigError):
            parse_config(None, [assignment])
