import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cowsim import cli, engine
from cowsim.alice import DECOY, DecoyStrategy, _pack
from cowsim.cli import ConfigError, main, parse_config
from cowsim.engine import Attack, SimConfig, run

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

    def test_not_utf8_names_path(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfemu=0.5\n")
        with pytest.raises(ConfigError, match="binary.cfg"):
            parse_config(str(path))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert str(path) in capsys.readouterr().err

    def test_not_utf8_message(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff\xfemu=0.5\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"cowsim: error: config file {path} is not UTF-8 text: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        # editors on Windows may start a UTF-8 file with a byte order mark
        text = b"n_bits=500\nattack=andmask\nseed=3\n"
        stats = {}
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            path = tmp_path / f"{name}.cfg"
            path.write_bytes(data)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            stats[name] = (tmp_path / name / "stats.log").read_bytes()
        assert stats["bom"] == stats["plain"]
        assert parse_config(str(tmp_path / "bom.cfg")) == parse_config(str(tmp_path / "plain.cfg"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_bits=5\f\nbad", "{path}:2: expected KEY=VALUE, got 'bad'"),
            ("# note\x85more\nbad", "{path}:2: expected KEY=VALUE, got 'bad'"),
            ("n_bits=5\x0bmu=x", "bad value for 'n_bits': '5\\x0bmu=x' (expected integer)"),
            ("n_bits=5\r\nbad", "{path}:2: expected KEY=VALUE, got 'bad'"),
            ("n_bits=5\rbad", "{path}:2: expected KEY=VALUE, got 'bad'"),
        ],
        ids=["form-feed", "next-line-in-comment", "vertical-tab", "crlf", "cr"],
    )
    def test_lines_end_at_line_breaks_only(self, tmp_path, text, message):
        # reading the file turns "\r\n" and "\r" into "\n"; the other breaks
        # that str.splitlines knows are text within a line, as an editor shows it
        path = tmp_path / "run.cfg"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ConfigError) as info:
            parse_config(str(path))
        assert str(info.value) == message.format(path=path)


class TestCommands:
    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--out", str(out), "--set", "n_bits=500", "--seed", "3")
        assert code == 0
        assert (out / "stats.log").exists()
        assert (out / "transcript.log").exists()
        assert "sifted_len=" in capsys.readouterr().out

    def test_run_files_are_the_returned_text(self, tmp_path, capsys):
        # each file is its text encoded as UTF-8, on every platform: no "\r" added
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", "n_bits=500", "--seed", "3") == 0
        stats, transcript, _ = run(SimConfig(n_bits=500, seed=3))
        text = stats.to_lines()
        assert capsys.readouterr().out == text
        assert (out / "stats.log").read_bytes() == text.encode("utf-8")
        assert (out / "transcript.log").read_bytes() == transcript.to_jsonl().encode("utf-8")

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

    def test_compare_attack_without_key_exits_1(self, tmp_path, capsys):
        # one bit sifts no key, so the rate ratio would be 0/0
        code = run_cli("compare-attack", "--out", str(tmp_path), "--set", "n_bits=1")
        err = capsys.readouterr().err
        assert code == 1
        assert "n_bits" in err and "Traceback" not in err
        assert not (tmp_path / "compare_attack.log").exists()

    def test_compare_attack_without_data_clicks_names_the_key(self, tmp_path, capsys):
        # with t_b = 0 and no dark clicks, no n_bits sifts a key
        code = run_cli(
            "compare-attack", "--out", str(tmp_path), "--set", "n_bits=1000", "--set", "t_b=0"
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "t_b=0" in err and "raise n_bits" not in err and "Traceback" not in err
        assert not (tmp_path / "compare_attack.log").exists()

    def test_compare_attack_internal_error_propagates(self, tmp_path, monkeypatch):
        # only the no-key case is a config error; a broken invariant fails loudly
        def broken(config):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(engine, "compare_attack", broken)
        with pytest.raises(ValueError, match="invariant"):
            run_cli("compare-attack", "--out", str(tmp_path))

    @pytest.mark.parametrize("command", ["run", "sweep-mu", "compare-attack"])
    def test_oversized_n_bits_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # rejected by SimConfig before any allocation
        def allocate(*args):
            raise AssertionError("reached the run")

        monkeypatch.setattr(engine.alice, "generate_raw_bits", allocate)
        code = run_cli(command, "--set", "n_bits=100000000000000000000", "--out", str(tmp_path))
        assert code == 1
        assert "n_bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, stage", [("run", "run"), ("sweep-mu", "sweep_mu"), ("compare-attack", "run")]
    )
    def test_out_of_memory_names_n_bits(self, tmp_path, capsys, monkeypatch, command, stage):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(engine, stage, exhausted)
        assert run_cli(command, "--out", str(tmp_path)) == 1
        assert "n_bits" in capsys.readouterr().err

    def test_sweep_mu_internal_error_propagates(self, tmp_path, monkeypatch):
        # only a bad grid value is a config error; a broken invariant fails loudly
        def broken(config, grid):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(engine, "sweep_mu", broken)
        with pytest.raises(ValueError, match="invariant"):
            run_cli("sweep-mu", "--out", str(tmp_path))

    def test_selftest(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_decoy_check_uses_eves_mask(self, monkeypatch, capsys):
        # a mask passing both bins of every slot would leave each decoy intact
        monkeypatch.setattr(cli, "generate_mask", lambda n, rng: _pack([DECOY] * n))
        assert run_cli("selftest") == 2
        assert "FAIL decoy destruction" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("override", ["t_b=0", "mu=1e-6"])
    def test_selftest_ignores_user_physics(self, capsys, override):
        # the perfect-recovery check runs on its own saturated config
        assert run_cli("selftest", "--set", override) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # selftest has no files, so not even the default --out is made
        monkeypatch.chdir(tmp_path)
        assert run_cli("selftest") == 0
        assert run_cli("selftest", "--out", "given") == 0
        assert list(tmp_path.iterdir()) == []

    def test_table1_mismatch_still_writes_csv(self, tmp_path, monkeypatch, capsys):
        rows, _ = engine.table1_rows()
        monkeypatch.setattr(engine, "table1_rows", lambda: (rows, False))
        assert run_cli("table1", "--out", str(tmp_path / "t1")) == 2
        text = (tmp_path / "t1" / "table1.csv").read_text()
        assert text.splitlines()[-1] == "verdict,fail"
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "argv",
        [["compare-attack", "--set", "n_bits=1"], ["sweep-mu", "--mu-grid", "0.5,-1"]],
        ids=["no-key", "bad-mu-grid"],
    )
    def test_rejected_command_makes_no_out(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().out == ""

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        # --out names a file, so the directory cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("table1", "--out", str(blocker)) == 1
        assert capsys.readouterr().err.startswith("cowsim: error:")

    def test_help_lists_each_command_once(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--help")
        assert info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        assert "{run,sweep-mu,table1,compare-attack,selftest}" in out
        for name, help_text in [
            ("run", "one full protocol run; writes stats and the transcript log"),
            ("sweep-mu", "detectability curves vs mean photon number, as CSV"),
            ("table1", "six-slot worked attack example checked against its oracle"),
            ("compare-attack", "same seed with the mask off and on; rate ratio and recovery"),
            ("selftest", "deterministic oracle checks, in-process"),
        ]:
            assert f"{name} {help_text}" in out

    def test_config_error_exit_code(self, capsys):
        assert run_cli("run", "--set", "t_b=1.5") == 1
        assert "t_b" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("no-such-command") == 1
        assert capsys.readouterr().err.startswith("cowsim: error: argument command: invalid choice")

    def test_dead_time_bins_rejected(self, capsys):
        # dead time is always slot-gated; the old knob is an unknown key
        code = run_cli(
            "run", "--set", "dead_time_bins=0", "--set", "n_bits=2000", "--set", "p_dark_data=0.5"
        )
        assert code == 1
        assert "dead_time_bins" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["run", "sweep-mu", "table1", "compare-attack", "selftest"]
    )
    def test_unknown_key_exits_1(self, tmp_path, capsys, command):
        assert run_cli(command, "--set", "bogus=1", "--out", str(tmp_path)) == 1
        assert "bogus" in capsys.readouterr().err

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
            (["run", "--set", "alarm_alpha=nan"], "alarm_alpha"),
            (["run", "--set", "tau_ns=5e-324"], "tau_ns"),
            (["run", "--set", "tau_ns=1e-310"], "tau_ns"),
            (["run", "--set", "alarm_alpha=-1"], "alarm_alpha"),
            (["run", "--set", "alarm_alpha=1"], "alarm_alpha"),
            (["run", "--set", "alarm_alpha=5"], "alarm_alpha"),
            (["sweep-mu", "--mu-grid", ","], "--mu-grid"),
            (["run", "--set", "eve_mode=random"], "eve_mode"),
            (["run", "--set", "detection_mode=deterministic"], "detection_mode"),
            # text that is no value of the key's type at all
            (["run", "--set", "attack=foo"], "'attack': 'foo' (choices: none, andmask)"),
            (["run", "--set", "mu=abc"], "'mu': 'abc' (expected number)"),
            (["run", "--set", "n_bits=1.5"], "'n_bits': '1.5' (expected integer)"),
            (["run", "--set", "alarm_alpha=0"], "alarm_alpha"),
            # the threshold of the 3-sigma rule went with the rule
            (["run", "--set", "alarm_threshold=0.5"], "unknown configuration key: 'alarm_threshold'"),
            # every coherent boundary is checked, so the checked fraction went
            (["run", "--set", "f_coh=0.25"], "unknown configuration key: 'f_coh'"),
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


@pytest.mark.parametrize("field", fields(SimConfig), ids=lambda f: f.name)
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
    **dict.fromkeys(
        ["channel_t", "t_b", "eta_data", "eta_mon", "visibility"]
        + ["p_dark_data", "p_dark_mon", "f_verify", "alarm_alpha"],
        (0.0, 1.0),
    ),
}
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 1e308, -1.0, -1e308, math.inf, -math.inf, math.nan]


def _values(name):
    """Values to try for one key: its range ends and their neighbours, edge
    floats, in-range floats and any float."""
    kind = engine.FIELD_TYPES[name]
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


def _fuzz(command, values, log):
    """Run one command on fuzzed --set values with floating-point faults
    raised, check that an exit 0 logged only finite numbers, and return
    the exit code and stderr."""
    assignments = [f"{key}={value}" for key, value in values.items()]
    argv = [command] + [arg for a in assignments for arg in ("--set", a)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                code = main(argv + ["--out", out])
        if code == 0:
            for line in (Path(out) / log).read_text().splitlines():
                try:
                    number = float(line.partition("=")[2])
                except ValueError:
                    continue  # the verdict
                assert math.isfinite(number), line
    return code, err.getvalue()


def _assert_rejection_names_the_key(values, err):
    # exit 1 names a key whose assignment is rejected on its own
    assignments = [f"{key}={value}" for key, value in values.items()]
    named = [a for a in assignments if re.search(rf"\b{a.partition('=')[0]}\b", err)]
    assert named, err
    for assignment in named:
        with pytest.raises(ConfigError):
            parse_config(None, [assignment])


@settings(deadline=None, max_examples=300)
@given(_SETTINGS)
def test_run_finishes_or_names_the_key(values):
    # every accepted config finishes with finite statistics and no
    # floating-point fault; every rejected one exits 1 naming a key that
    # is rejected on its own
    code, err = _fuzz("run", values, "stats.log")
    if code == 0:
        return
    assert code == 1
    _assert_rejection_names_the_key(values, err)


@settings(deadline=None, max_examples=150)
@given(_SETTINGS)
def test_compare_attack_finishes_or_names_the_key(values):
    # as for run; a valid config whose unattacked run sifts no key exits 1
    # naming n_bits, since its rate ratio is undefined
    code, err = _fuzz("compare-attack", values, "compare_attack.log")
    if code == 0:
        return
    assert code == 1
    try:
        config = parse_config(None, [f"{key}={value}" for key, value in values.items()])
    except ConfigError:
        _assert_rejection_names_the_key(values, err)
        return
    assert "n_bits" in err, err
    assert run(replace(config, attack=Attack.NONE))[0].sifted_len == 0
