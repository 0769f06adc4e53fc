"""Command-line front end.

Each command in _COMMANDS returns its files (name under --out to text, in
order), its stdout text and its exit code.  main alone builds the config (a
key=value file where '#' starts a comment, then each --set KEY=VALUE, then
--seed), makes --out only when there are files, writes them, echoes the text
and maps errors to exit codes: 0 success, 1 usage or config error (n_bits of
2**62 or more included), no key for a rate ratio, or a run that does not fit
in memory, 2 oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import engine
from .alice import _DATA, DECOY, _pack, _pattern
from .engine import Attack, SimConfig
from .eve import apply_and_mask, generate_mask
from .optics import detectable_fraction, splittable_fraction

__all__ = ["main", "parse_config", "ConfigError"]

DEFAULT_MU_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for oracle
    # mismatches, so route usage errors to exit code 1 instead
    def error(self, message):
        raise ConfigError(message)


def _convert(key: str, raw: str):
    raw = raw.strip()
    kind = engine.FIELD_TYPES.get(key)
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
        try:
            text = p.read_text(encoding="utf-8-sig")  # a leading byte order mark is dropped
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        values.update(_parse_assignments(text.split("\n"), str(path)))
    values.update(_parse_assignments(overrides, "--set"))
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="cowsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, help_text) in _COMMANDS.items():
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
        if command is _cmd_sweep_mu:
            cmd.add_argument(
                "--mu-grid",
                default=",".join(str(m) for m in DEFAULT_MU_GRID),
                help="comma-separated mu values",
            )
    return parser


def _cmd_run(config: SimConfig, args):
    stats, transcript, _ = engine.run(config)
    text = stats.to_lines()
    return {"stats.log": text, "transcript.log": transcript.to_jsonl()}, text, 0


def _cmd_sweep_mu(config: SimConfig, args):
    try:
        # each point's config applies SimConfig's own mu rule
        grid = [replace(config, mu=float(v)).mu for v in args.mu_grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --mu-grid: {exc}") from exc
    if not grid:
        raise ConfigError(f"bad --mu-grid: no mu values in {args.mu_grid!r}")
    rows = engine.sweep_mu(config, grid)
    names = [f.name for f in fields(engine.SweepRow)]
    lines = [names] + [[engine.format_value(getattr(r, name)) for name in names] for r in rows]
    text = "".join(",".join(line) + "\n" for line in lines)
    return {"sweep_mu.csv": text}, text, 0


def _cmd_table1(config: SimConfig, args):
    # the example's inputs are fixed; main has still checked every flag
    rows, ok = engine.table1_rows()
    lines = ["alice_ib,alice_tbs,eve_ib,eve_tbs,received_tbs,bob_ib"]
    lines += [",".join(row) for row in rows]
    lines.append("verdict," + ("pass" if ok else "fail"))
    text = "\n".join(lines) + "\n"
    return {"table1.csv": text}, text, 0 if ok else 2


def _cmd_compare_attack(config: SimConfig, args):
    text = engine.compare_attack(config).to_lines()
    return {"compare_attack.log": text}, text, 0


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

    # t_b = 1 leaves the monitor dark: saturated, it would click beside
    # every lit slot and so take every slot out of the key
    ideal = SimConfig(n_bits=2000, attack=Attack.AND_MASK, seed=config.seed, t_b=1.0, **engine._SATURATED)
    stats, _, _ = engine.run(ideal)
    yield "perfect key recovery under attack", (
        stats.sifted_len > 0 and stats.eve_recovery_fraction == 1.0 and stats.qber == 0.0
    )

    # every slot pattern many times over: Eve's mask leaves no decoy intact
    train = _pack([*_DATA, DECOY] * 1000)
    sent = apply_and_mask(train, generate_mask(train.n, np.random.default_rng(7)))
    yield "decoy destruction", not np.any(_pattern(sent, np.arange(sent.n)) == DECOY)


def _cmd_selftest(config: SimConfig, args):
    results = list(_selftest_checks(config))
    text = "".join(f"{'PASS' if ok else 'FAIL'} {name}\n" for name, ok in results)
    return {}, text, 0 if all(ok for _, ok in results) else 2


_COMMANDS = {
    "run": (_cmd_run, "one full protocol run; writes stats and the transcript log"),
    "sweep-mu": (_cmd_sweep_mu, "detectability curves vs mean photon number, as CSV"),
    "table1": (_cmd_table1, "six-slot worked attack example checked against its oracle"),
    "compare-attack": (
        _cmd_compare_attack,
        "same seed with the mask off and on; rate ratio and recovery",
    ),
    "selftest": (_cmd_selftest, "deterministic oracle checks, in-process"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = parse_config(args.config, args.overrides)
        if args.seed is not None:
            try:
                config = replace(config, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"bad --seed: {exc}") from exc
        files, text, code = _COMMANDS[args.command][0](config, args)
        if files:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                (out / name).write_text(content, encoding="utf-8", newline="")  # no "\r" added
        sys.stdout.write(text)
        return code
    except (ConfigError, engine.NoKeyError, OSError) as exc:
        print(f"cowsim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("cowsim: error: the run does not fit in memory; lower n_bits", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
