"""Command-line front end.

Subcommands: run, sweep-mu, table1, compare-attack, selftest.
Configuration is a key=value text file ('#' starts a comment) plus repeatable
--set KEY=VALUE overrides.  Exit codes: 0 success, 1 usage or config error,
2 oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import engine
from .alice import DecoyStrategy
from .engine import Attack, SimConfig
from .eve import MaskMode
from .optics import detectable_fraction, splittable_fraction

__all__ = ["main", "parse_config", "ConfigError"]

DEFAULT_MU_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))


class ConfigError(ValueError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for oracle
    # mismatches, so route usage errors to exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


# SimConfig field -> the type its value converts to; `float | None` converts as float
_KEY_TYPES = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(SimConfig).items()
}


def _convert(key: str, raw: str):
    raw = raw.strip()
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key: {key!r}")
    if issubclass(kind, Enum):
        try:
            return kind(raw.lower())
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ConfigError(f"bad value for {key!r}: {raw!r} (choices: {choices})")
    try:
        return kind(raw)
    except ValueError:
        expected = "integer" if kind is int else "number"
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {expected})")


def _parse_assignments(lines, origin: str) -> dict:
    values = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected KEY=VALUE, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        values[key] = _convert(key, raw)
    return values


def parse_config(path: str | None, overrides=()) -> SimConfig:
    """Build a SimConfig from an optional key=value file plus overrides.

    Overrides are KEY=VALUE strings and win over the file.  Unknown keys and
    out-of-range values raise ConfigError naming the offending key.
    """
    values = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        values.update(_parse_assignments(p.read_text().splitlines(), str(path)))
    values.update(_parse_assignments(overrides, "--set"))
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cowsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "one full protocol run; writes stats and the transcript log"),
        ("sweep-mu", "detectability curves vs mean photon number, as CSV"),
        ("table1", "six-slot worked attack example checked against its oracle"),
        ("compare-attack", "same seed with the mask off and on; rate ratio and recovery"),
        ("selftest", "deterministic oracle checks, in-process"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="key=value config file")
        cmd.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--out", metavar="DIR", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, help="master seed override")
        if name == "sweep-mu":
            cmd.add_argument(
                "--mu-grid",
                default=",".join(str(m) for m in DEFAULT_MU_GRID),
                help="comma-separated mu values",
            )
    return parser


def _load(args) -> SimConfig:
    config = parse_config(args.config, args.overrides)
    if args.seed is not None:
        try:
            config = replace(config, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"bad --seed: {exc}") from exc
    return config


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    config = _load(args)
    stats, transcript, _ = engine.run(config)
    out = _outdir(args)
    (out / "stats.log").write_text(stats.to_lines())
    (out / "transcript.log").write_text(transcript.to_jsonl())
    sys.stdout.write(stats.to_lines())
    return 0


def _cmd_sweep_mu(args) -> int:
    config = _load(args)
    try:
        grid = [float(v) for v in args.mu_grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --mu-grid: {args.mu_grid!r}")
    try:
        rows = engine.sweep_mu(config, grid)
    except ValueError as exc:
        raise ConfigError(f"bad --mu-grid: {exc}") from exc
    lines = ["mu,detectable,splittable,empirical"]
    for r in rows:
        lines.append(
            f"{_fmt(r.mu)},{_fmt(r.detectable)},{_fmt(r.splittable)},{_fmt(r.empirical)}"
        )
    text = "\n".join(lines) + "\n"
    (_outdir(args) / "sweep_mu.csv").write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_table1(args) -> int:
    rows, ok = engine.table1_rows()
    lines = ["alice_ib,alice_tbs,eve_ib,eve_tbs,received_tbs,bob_ib"]
    lines += [",".join(row) for row in rows]
    lines.append("verdict," + ("pass" if ok else "fail"))
    text = "\n".join(lines) + "\n"
    (_outdir(args) / "table1.csv").write_text(text)
    sys.stdout.write(text)
    return 0 if ok else 2


def _cmd_compare_attack(args) -> int:
    config = _load(args)
    result = engine.compare_attack(config)
    text = (
        f"rate_ratio={_fmt(result.rate_ratio)}\n"
        f"recovery_no_attack={_fmt(result.recovery_no_attack)}\n"
        f"recovery_attack={_fmt(result.recovery_attack)}\n"
    )
    (_outdir(args) / "compare_attack.log").write_text(text)
    sys.stdout.write(text)
    return 0


def _selftest_checks(config: SimConfig):
    yield "table1 oracle", engine.table1_rows()[1]

    det_ok = abs(detectable_fraction(0.5) - 0.3934693402873666) < 1e-9
    spl_ok = abs(splittable_fraction(0.5) - 0.22925295873160084) < 1e-9
    yield "closed-form curves", det_ok and spl_ok

    small = replace(config, n_bits=2000, attack=Attack.AND_MASK)
    a = engine.run(small)
    b = engine.run(small)
    yield "determinism", (
        a[1].to_jsonl() == b[1].to_jsonl() and a[0].to_lines() == b[0].to_lines()
    )

    ideal = replace(
        small,
        channel_t=1.0,
        eta_data=1.0,
        eta_mon=1.0,
        p_dark_data=0.0,
        p_dark_mon=0.0,
    )
    stats, _, record = engine.run(ideal)
    yield "perfect key recovery under attack", (
        stats.sifted_len > 0
        and stats.eve_recovery_fraction == 1.0
        and stats.qber == 0.0
    )

    from . import alice as alice_mod
    from . import eve as eve_mod

    rng = np.random.default_rng(7)
    destroyed = True
    for _ in range(20):
        bits = alice_mod.generate_raw_bits(200, rng)
        slot_map = alice_mod.insert_decoys(bits, DecoyStrategy.FRAME_HEADER)
        mask = eve_mod.generate_mask(slot_map.n_slots, MaskMode.RANDOM, rng)
        occupied = eve_mod.apply_and_mask(alice_mod.encode(slot_map), mask).reshape(-1, 2)
        destroyed &= not np.any(occupied.all(axis=1))
    yield "decoy destruction", destroyed


def _cmd_selftest(args) -> int:
    config = _load(args)
    failed = 0
    for name, ok in _selftest_checks(config):
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        failed += not ok
    return 2 if failed else 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep-mu": _cmd_sweep_mu,
    "table1": _cmd_table1,
    "compare-attack": _cmd_compare_attack,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"cowsim: error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"cowsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
