"""Golden-output gate: byte-identical transcripts, stats, sweep rows and Table 1.

Each digest is the SHA-256 of the exact text a run produces.  A refactor
must keep every digest; a change that means to alter the output says so and
records the new digests.

Grid: seeds {1, 2} x 3 decoy strategies x attack {none, andmask} x
detectors {sampled, deterministic} at n_bits=2000, each run both clean and
noisy.  Noisy runs add dark counts (p_dark_data=p_dark_mon=1e-3) and
visibility 0.98.  "deterministic" runs then saturate the detectors
(engine._SATURATED: mu=1e6, unit efficiencies and transmittance, no dark
counts), so every click probability is 0 or 1 and the clicks follow the
light alone; their noisy runs keep V=0.98 with darks of 0.  Eve's mask is
random in every run; names say "random".  A saturated monitor clicks at
every lit boundary, so every detected slot sits beside a click and the
deterministic runs sift no key: they pin the dialog, not the key path.

Six key runs pin the key path with saturated detectors: n_bits=2000, seed
1, 3 decoy strategies x attack {none, andmask}, with t_b=1 so that no light
reaches the monitor.  Each sifts a key with no errors, and under the mask
Eve recovers all of it.

One noisy substitute-pattern AND-mask run and one noisy sweep at
n_bits=100_000 also carry digests, so output that differs only on long
trains shows too.  Alice's raw bits and Eve's mask come 64 to a raw word,
and three noisy sampled AND-mask runs at n_bits=2003, one per decoy
strategy, pin another cut of the last word than the grid's.  One noisy
substitute-pattern AND-mask run at n_bits=600_000, whose monitor clicks
reach 1.2M, pins the transcript's seven-digit numbers.

Every run above is also read back by Transcript.from_jsonl, and the
replay must write its recorded transcript again, with each list in one
message only: the verification slots in VerificationRequest, Bob's monitor
clicks in MonitorReport.  Every array in the transcripts of the grid and the
wide run holds strictly increasing indices or bits, so the formatter's
unsigned layout writes them all, and the reader reads every line in place,
each list by its numpy integer-list reader, with no json.loads.

Three noisy compare_attack runs at n_bits=20_000, one per decoy strategy,
pin the mask-off/mask-on comparison.  Five command-line runs, made
in-process through cli.main, pin every file each writes and its stdout.
"""

import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from cowsim import Attack, DecoyStrategy, SimConfig, Transcript, bob, compare_attack, run, sweep_mu
from cowsim.alice import _pack
from cowsim.cli import main
from cowsim.engine import _SATURATED, table1_rows
from cowsim.optics import click_probability

DETECTORS = {"sampled": {}, "deterministic": _SATURATED}
FACTORS = (
    (1, 2),
    tuple(DecoyStrategy),
    tuple(Attack),
    tuple(DETECTORS),
    (False, True),
)
NOISE = dict(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)


def _grid():
    for seed, strategy, attack, detectors, noisy in itertools.product(*FACTORS):
        config = SimConfig(
            n_bits=2000,
            seed=seed,
            decoy_strategy=strategy,
            attack=attack,
            # saturation comes after the noise, so it zeroes the darks
            **{**(NOISE if noisy else {}), **DETECTORS[detectors]},
        )
        name = "-".join(
            [str(seed), strategy.value, attack.value, "random", detectors]
            + (["noisy"] if noisy else [])
        )
        yield name, config


GRID = dict(_grid())

# saturated detectors with a dark monitor: the key path, error-free
KEY_RUNS = {
    f"{strategy.value}-{attack.value}": SimConfig(
        n_bits=2000, seed=1, decoy_strategy=strategy, attack=attack, t_b=1.0, **_SATURATED
    )
    for strategy, attack in itertools.product(DecoyStrategy, Attack)
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digests(config):
    stats, transcript, _ = run(config)
    return _sha(transcript.to_jsonl()), _sha(stats.to_lines())


SWEEP_GRID = (0.1, 0.5, 1.3)
SWEEP_CONFIGS = {
    "clean": SimConfig(n_bits=2000, seed=1),
    "noisy": SimConfig(n_bits=2000, seed=2, **NOISE),
}


def sweep_digest(config):
    rows = sweep_mu(config, SWEEP_GRID)
    text = "".join(f"{r.mu!r},{r.detectable!r},{r.splittable!r},{r.empirical!r}\n" for r in rows)
    return _sha(text)


# trains of 2 * 100_000 bins
LONG_RUN = SimConfig(
    n_bits=100_000,
    seed=5,
    decoy_strategy=DecoyStrategy.SUBSTITUTE_PATTERN,
    attack=Attack.AND_MASK,
    **NOISE,
)
LONG_SWEEP = SimConfig(n_bits=100_000, seed=6, **NOISE)

# boundaries up to 2 * 600_000 - 1: seven-digit numbers in the transcript
WIDE_RUN = SimConfig(
    n_bits=600_000,
    seed=7,
    decoy_strategy=DecoyStrategy.SUBSTITUTE_PATTERN,
    attack=Attack.AND_MASK,
    **NOISE,
)

# 2003 bits (and 2671 frame-header slots) end 19 (and 47) bits into a raw word
TAIL_RUNS = {
    strategy.value: SimConfig(
        n_bits=2003, seed=3, decoy_strategy=strategy, attack=Attack.AND_MASK, **NOISE
    )
    for strategy in DecoyStrategy
}


COMPARE_RUNS = {
    strategy.value: SimConfig(n_bits=20_000, seed=12, decoy_strategy=strategy, **NOISE)
    for strategy in DecoyStrategy
}


def compare_digest(config):
    return _sha(compare_attack(config).to_lines())


def table1_digest():
    return _sha(repr(table1_rows()))


CLI_COMMANDS = {
    "run": ["run", "--set", "n_bits=20000", "--set", "attack=andmask", "--seed", "7"],
    "sweep-mu": ["sweep-mu", "--set", "n_bits=20000", "--mu-grid", "0.1,0.5,1.3"],
    "table1": ["table1"],
    "compare-attack": ["compare-attack", "--set", "n_bits=20000", "--seed", "2"],
    "selftest": ["selftest"],
}


def cli_digests(argv, out, capsys):
    """Exit code, then the sha256 of stdout and of every file written to out."""
    code = main(argv + ["--out", str(out)])
    digests = {"stdout": _sha(capsys.readouterr().out)}
    digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in sorted(out.iterdir()))
    return code, digests


# (to_jsonl sha256, to_lines sha256) per grid point
GOLDEN_RUNS = {
    "1-frame-header-andmask-random-deterministic": (
        "01da281a9dc60f588ec54616031803fe0081d40c962fe4fd873df3c0969813bb",
        "afb3279f255d85ba20a552f02db99254f7f6105d45551181ed69e3d52b723c53",
    ),
    "1-frame-header-andmask-random-deterministic-noisy": (
        "93e7c71ae9f59e3f6ebf19b0ba7dc93db038bf1d00c1c88c04675ee7111bd697",
        "11bdb8a11559c8a1bb369df899df6a596de04df112567020c38f61a9a59c2199",
    ),
    "1-frame-header-andmask-random-sampled": (
        "15dd0b2ac2334395609c2c4218bedb989fdcd03f04c7ea9cc9d524efb5e29e46",
        "899c1998c796583447ada771e25c10eb726206ddd54709b58129a35ee4ef3c11",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "3616910645fd0c6f6ef8020f96586c752de47ae9275a7f97efaafaa9d5cba1ec",
        "105f255ad5be875008e7dae260a1f08fa66bd09b820854ff179e07ebd86e5fc3",
    ),
    "1-frame-header-none-random-deterministic": (
        "28ae30daae669714c73fab2cc16c4ef69503f820a008b8ba647e368928e43c61",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "1-frame-header-none-random-deterministic-noisy": (
        "f6005da03ace7829ccf35cc33284f9e2f3c5c6b09ca843abe037922dba0e0d2f",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "1-frame-header-none-random-sampled": (
        "bf86c041c54ba4d5d2ed93d6bb9fb14ac76afd35ff0dcb71edbc2ee3c3c98cb9",
        "5c679099a38ceec5d002593937ac6286a8b97f793b0d0e8031157a01e58e54c3",
    ),
    "1-frame-header-none-random-sampled-noisy": (
        "af2e6f6ee7c0b8b7cb0252b3b2faf512092faa1f483135fbc2914c5c8b2911b2",
        "8370838fa8e2903dd73cb7f1256cc551bdb045cea579c0c71e62779a941ffc9c",
    ),
    "1-none-andmask-random-deterministic": (
        "a0857f252a5e4c0b051cbebd5d988cc3fb57f02188903152fa0632c075ed381a",
        "5bbec2a2307849c82d658e8579b6246a952afba943292ea4c62270b9dc1df2d9",
    ),
    "1-none-andmask-random-deterministic-noisy": (
        "519c30a4430efa101eaceb2eb9ccecfdeafd6ba8b8f61a93b27143c46c4c639e",
        "ed928508bdb35f6301b5d0e612ae827cbdba0326c024f94597477d4291f57350",
    ),
    "1-none-andmask-random-sampled": (
        "ef397f06ae18ea2db4101e4b929bcb45ce3b2fa1a9e162dca50a06cb2283c1be",
        "ea5156b42889956362b243667d7c74421a30e44c6b72b8f1ef400efabf8e471c",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "51693af51a69ed12d4909cc1d0bae74bc62667b20c68bb58ff716d81a2b373b1",
        "76c9a85b8ecf1a987ddab666f1d7c26f87fbf53b83101816226decd59d4826a6",
    ),
    "1-none-none-random-deterministic": (
        "6aa3bbd37e1feff672a0be30b2dc5d9255ee39e399b2dde061217db5f9224c1d",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "1-none-none-random-deterministic-noisy": (
        "f8290a4a2e5cc965eb409418d44953ed6039b9c828268091d9f154ea748e21f2",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "1-none-none-random-sampled": (
        "3fcc6509b674b755f533badc2d7eefab71aa28f50baf21afacb4691c508e157e",
        "1a22a6a2c853057ca48ea04cd80b89916031808ec90a8015c4a88f87279da484",
    ),
    "1-none-none-random-sampled-noisy": (
        "dccfaab57a2b6d87ee13718c488e3de5d721a1ae7ed0055c3cbc5f662fa6a831",
        "8036fd32b7f096f1a71cf44a1cabb14c831574606e246f23865c054ffcd735b7",
    ),
    "1-substitute-pattern-andmask-random-deterministic": (
        "ff32e7e49ed55ab2da61499c3a24442221a7db3c085c64582cf51e13bb6de789",
        "b5bd1128cf5174f6f12d3dc6d2ac107756c6dcdae8bcdae8bdd76878f06bb8e4",
    ),
    "1-substitute-pattern-andmask-random-deterministic-noisy": (
        "6fc9b409c6283a7c8b87d886f601e1347978743aed66fcb30a6436253021770c",
        "09b5dc7df59e3ae1c75947714f42ca2ef11167f2204c53f734beda419a17fdaa",
    ),
    "1-substitute-pattern-andmask-random-sampled": (
        "0b73d83900b7ba92bb6a83077099b4769f5b56f40de968e992769ca189d23cab",
        "802949379b1a7b61764194bee29e1d01bb087f4e7100ca674d3e35e318fe92db",
    ),
    "1-substitute-pattern-andmask-random-sampled-noisy": (
        "96a5d9ccf502fd425dfb338dd7132dacb17b8fa73d050fa042790201c10d387a",
        "37a059d64c48156cf45ec21ce486ac25838a04c19644db20a9df4e3fcfb9740d",
    ),
    "1-substitute-pattern-none-random-deterministic": (
        "183ceff4098b4250f02aaee8e7cbe5326fe41a24b2827e57c76261e09bd008e7",
        "2546cc47f1e318a768b4516ad0c770c1ba2f4c3a59a32558a04fb7633ef70a8c",
    ),
    "1-substitute-pattern-none-random-deterministic-noisy": (
        "66410e81d21086b3d30f94689073ab4c27219fbb7a57e0cdf984948bf9925f3b",
        "3d86d3a7b17d06fed7e3890d7c752c1eda776e5fa5df57ff8caa2dd39114080a",
    ),
    "1-substitute-pattern-none-random-sampled": (
        "9ad5861a5f0d8db70520053a3c36db2c4d72dee6dd613f9ce7d5ae86632d77cd",
        "b690c50dff8c2189fe55dddd9874322807cde9b6ccb45f9ae44d837e09f2bf12",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "bf61da151cef9337dd674e3abb8a49fd9cf9891523f15120bdddbe610ca07ad1",
        "3f03a7ab6ea0ed7f74c0037e324b5cd7bb76ff4027d9452259aaa2ab6fd171eb",
    ),
    "2-frame-header-andmask-random-deterministic": (
        "5420f5dca1f23847430bda2717b52de98842e03c379c31bcea5624bd4aefe8c5",
        "1acee02cd7aa30b748802962e889e2d6466f1c9701b47b17fed62dfd27c30dad",
    ),
    "2-frame-header-andmask-random-deterministic-noisy": (
        "e34424798162471f1ec38cbc65b3d28986cfd699c5c8efaad87df6ce33cebbb9",
        "4e21856e986da00f42e5d1bae1d1091e2ce42e020107936f20d4a088ca07a58f",
    ),
    "2-frame-header-andmask-random-sampled": (
        "43908dc1569e6bbd59a44b02cf7a429fed341123ba2f2c6b57883d1fd2b28f8e",
        "0cf41f41161a59e55a4a993a9796f4291bc0ebf72215ba6690f6768ce24b0cac",
    ),
    "2-frame-header-andmask-random-sampled-noisy": (
        "d9de9b963488dcbc4c8b499e4990ed1566272ccc3d801537f99d065c4a9cf55f",
        "a8eec001dabcecac5da5e05c87d1ba536ba07d53900a0516f7282b7cc1e2913c",
    ),
    "2-frame-header-none-random-deterministic": (
        "2f3966a20f899529cffbfc8f527da515418fc0bbdab0b214c1c8692d05137eae",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "2-frame-header-none-random-deterministic-noisy": (
        "9452449ba24c18346f56b1618478cc935943da0d42552cbf4e25aca225df7986",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "2-frame-header-none-random-sampled": (
        "42253f505782d978786ee8b5abadff06ed805b2487e1c091b09e6b4249aeb3e0",
        "463ab1e89dc3df2411a57af8a4cc833687f63c356dab8fa1a7f12a56416becee",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "e73cdf30d5b725087ae8294e8ba3a2904cbb2ce960812e49c721793366c14e17",
        "a1d316f836b5f5e08f8514e92f47666f9f46202ccb893c9d117961d8638e1eb5",
    ),
    "2-none-andmask-random-deterministic": (
        "a0f7b1bae5d6f47c4d1a1572c109acf7db7bad972c22598f2b1b18b89e9a56f0",
        "ebea3affb0e8ed7700669feecb8979804021c21928dd8c230606485c71e01ab9",
    ),
    "2-none-andmask-random-deterministic-noisy": (
        "26ad40bdc6962f8b8c8cca04c4e0d9c07f54cfa7053dd2b8193b36b5ee6d269d",
        "866971d69e45fa48464874f39d4a44a617fdfadaddc8fa5c229dc8cf3cfcb3c0",
    ),
    "2-none-andmask-random-sampled": (
        "abd8010ede5f1bd97c121f8c2566e4f651e5a60436681bcca007db9b16cec2dc",
        "996b9e0a95305a59b3cf76dbf85c04530a2cd6e6e965a335ec78bcce391af1ab",
    ),
    "2-none-andmask-random-sampled-noisy": (
        "0501e58da149e9602cfb5e5f2ed37e5d84ce0180194f82d70457cf7c335a2c4b",
        "b596275827c1d0408433f3c908899bf6ddafc0d3ea7a67dc67f6a3ccf19c6bf4",
    ),
    "2-none-none-random-deterministic": (
        "c8319b0714fad508a382fa678eee5f682ed133d5d3fe2ed0d8ab122322f4425f",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "2-none-none-random-deterministic-noisy": (
        "3e611ed9f9b62cff3a32b9a72986c36f250b7e9c230120607040a6349645b3e9",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "2-none-none-random-sampled": (
        "67d673b8d76446f1c5f81f3f5e44b7774319930e7a96a176b22e10be9117b8c6",
        "2ce9d849d22b27164fb024993a2cb391cf13cc2b611ee7714811e34ec06cdc09",
    ),
    "2-none-none-random-sampled-noisy": (
        "d5d023d924549495472f5e9e81da03361ac50f9df416e54b1fe1185ebd42705f",
        "7393063c112cc104fc5cd4dae1f96bff82e608c88bc91dc2e19b825caaaebe73",
    ),
    "2-substitute-pattern-andmask-random-deterministic": (
        "a83eef50eb6206ca2ddaeed28d497174a0049b0a7e3d608a71ece1d95aeb15b2",
        "776cec30efc7b26839374e2fa47289ab9786360b4ab7548a6b60a4ee578711d3",
    ),
    "2-substitute-pattern-andmask-random-deterministic-noisy": (
        "17670cd49034d5a21fe0421fdf3acb0c1e25abc42e96fd4a36af43c6f4a943c8",
        "95fbebca44a377e3320b20345f516a1aa84235ef489d22b843f887392a663a76",
    ),
    "2-substitute-pattern-andmask-random-sampled": (
        "5be3ff60422afebb4fcdd923967cac6cbc3b02deac1ee936317c4127cb7dda81",
        "a2d9a6a365cfbb7475d6f0c51541b528467d4d27c9b7b7925be784e7ff5e75c8",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "33256f0dae00923363f36ffa0e9f72b95fa497ddbd8cf3d003d010f2052babeb",
        "071687e8cae421bd5e21605277bc31bb14040fc40a3fae116155d2f6b526e68d",
    ),
    "2-substitute-pattern-none-random-deterministic": (
        "74acd3125512522fdfb7a61e4a4e0eab63b55b1b7cb5d1901ca161784962632e",
        "e45566b200164975778a46361234e6478297e253ad4bc02a790dc919c6472aa1",
    ),
    "2-substitute-pattern-none-random-deterministic-noisy": (
        "117bbbafb7b30e1e6f766000fb9429b9723b3635e30a19c97a02306d960e13c1",
        "5ca4138d34cc1fc8324f9af8414c9469b0a25081839107e378e29821b736fa3c",
    ),
    "2-substitute-pattern-none-random-sampled": (
        "d70a8e371140c5a15252ba2e2b0c9da8f5aeda2e19f7dcb861a4c7e8d4d33339",
        "d7ed23d9ed6241e407ef22add95a6adb7fbaa956b5c884e47da069ec7bdde3ea",
    ),
    "2-substitute-pattern-none-random-sampled-noisy": (
        "f4fa204ccbf817c0b18f05ab6379f4acd22d176420d84c3bff873dca15b3f04d",
        "98410ca53153497ec8b1dcd30bdc3f46fc85e45a622ba6cc2b5c3fa548599afb",
    ),
}

GOLDEN_KEY_RUNS = {
    "frame-header-andmask": (
        "7e92f945a9b5e189ee483a54f97e76537e6e5fc470ffd9ae13aa80b791450c32",
        "47829f156325c6b359f18ad536623650b540a04b564dd6fefec5db497b2b21e6",
    ),
    "frame-header-none": (
        "5644cfe9c4fed765ae6aaee0d310f2ae4a808597c95e3fee32d3962a27f18f00",
        "1f90087ba1c47fa3ec9b1c20e607edf5d285e3661a117e782dfaf9882a128576",
    ),
    "none-andmask": (
        "fbf5fd5cf0e6dbf4f137bdaab25384940ad810effdc02112f346140f57c11e00",
        "b40e765524ef8e891b37a3237a405eedbb9255c56f74d17e959ae1fca370e682",
    ),
    "none-none": (
        "d20dd1f48f87988520864c51c1b8bfe87f7b5c8a7f1b4ff6c518ec451aec3054",
        "d37b22ba7f37a08c749c90103845200e4cdb37785d14316553ff3f6025287172",
    ),
    "substitute-pattern-andmask": (
        "066dcf8fe8e86cca393480f94e1c328cdaae866fece39a32baf2e6584e560138",
        "5f8508872a9f83e4ffee6a710c06d2a3faf5b5666bed12d661fd3c70076517dd",
    ),
    "substitute-pattern-none": (
        "13dfd76a785142d0ffca278975cb01353fcbda83b4d4d316122b8fa71e6e010b",
        "b3092e29fac0b8998b413ccdb6a7d73836722f1fcba498f744d8c2f35cdd572a",
    ),
}

GOLDEN_SWEEPS = {
    "clean": "fb9405f8307fa1f495cb32aad504c6e4f6f4aff5163035b9374ef0670f50d25e",
    "noisy": "5374a4a27eafaaab3cbe15cfe196a701f004c98e5e6521f26b278766b6cc5c99",
}

GOLDEN_LONG_RUN = (
    "2213d87c0e4afcae1dc2a47196e1c8a496a2895ed22130d32e5de6426d09657d",
    "6fcfd0ba29a4f2ef807240e6db2970cf9ad6749f14ecdbf8107dacc8522aa33d",
)

GOLDEN_WIDE_RUN = (
    "f3db66ce9ea19af311d8e14b10772eabe28eccfa615465306e72bfe5da370ae7",
    "b692b4fdc3cb7c3e1bb80c8b906e43038f60953a3b0e94f98d894b7932d829b1",
)

GOLDEN_TAIL_RUNS = {
    "none": (
        "46e2d23e8837a28c028828a1dd21e629193fc6611290fba70613ede0abd0f4cb",
        "ceaed6af5de914ab5cd9b633b7e1c339853ae1ba8ba2b0879179ae1eb9db5dd9",
    ),
    "substitute-pattern": (
        "b2cc7d335dfad267bae888d5cf09333fd069da12ea1918c703fe4c1246318ed0",
        "6cfd41571f9611935d18ff202d4d425addbda7324f5ae80cb6772c8f911ba0ac",
    ),
    "frame-header": (
        "5470f55a2bd6efad5de1b52cbef21e2d33581b4710eb252ec66ddf53051b2848",
        "42c655abc2d13c2424b456c07f263a11c8081d5880875dcafdd820f875074516",
    ),
}

GOLDEN_LONG_SWEEP = "3716768e1b4fcc2a82358421b86c9191721f538262c70b4f94cf3fb1f353545f"

# rate ratio and recoveries, mask off then on, per decoy strategy
GOLDEN_COMPARE = {
    "none": "c8fc3e0eed58233466cc5a7f5b455f9f07759e842e44c99193a26bb5e495dfc1",
    "substitute-pattern": "bacdeaaf483d782e0dbd2720939a559b485567d0210d616752f1b231155631f4",
    "frame-header": "8dff2402bf217c85be5b2ff61769bf908c3e64b638c99af4964d0b03acb2ea1f",
}

GOLDEN_TABLE1 = "f3f943e6026c22d2782dec4b7eb9acddcc0215aa42acf663ac7f1eaab33d15b0"

# command -> (exit code, sha256 of stdout and of each file written)
GOLDEN_CLI = {
    "run": (0, {
        "stdout": "edcb2f79ac2240be4a365be08a2f909c9fe0e836dcaee2f351b482ccc339f5d2",
        "stats.log": "edcb2f79ac2240be4a365be08a2f909c9fe0e836dcaee2f351b482ccc339f5d2",
        "transcript.log": "43ad45a371cb27cd34f3c6de7115e6a5e72fb3b9da683206055e8bdca2445c57",
    }),
    "sweep-mu": (0, {
        "stdout": "e26c25a6f3d5db6e3e674848b2a4dcbfa8396360d1aee53805678f8764b62d88",
        "sweep_mu.csv": "e26c25a6f3d5db6e3e674848b2a4dcbfa8396360d1aee53805678f8764b62d88",
    }),
    "table1": (0, {
        "stdout": "d1ae28eec05af02b3cb2179adb3d92fa2194501b3ec5d78b304e410d9a1d9e6a",
        "table1.csv": "d1ae28eec05af02b3cb2179adb3d92fa2194501b3ec5d78b304e410d9a1d9e6a",
    }),
    "compare-attack": (0, {
        "stdout": "62548209cb1f2d87daeeceb19c6ccd12733a233f40f1cb57322b1f9b0dcaf44d",
        "compare_attack.log": "62548209cb1f2d87daeeceb19c6ccd12733a233f40f1cb57322b1f9b0dcaf44d",
    }),
    "selftest": (0, {
        "stdout": "25ca432d3b224e68ea1527baa9c621c26e840981bb845d76394657fd654e3da5",
    }),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_digests(name):
    assert run_digests(GRID[name]) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(KEY_RUNS))
def test_key_run_digests(name):
    config = KEY_RUNS[name]
    stats, transcript, _ = run(config)
    assert (_sha(transcript.to_jsonl()), _sha(stats.to_lines())) == GOLDEN_KEY_RUNS[name]
    assert stats.sifted_len > 0 and stats.qber == 0
    if config.attack is Attack.AND_MASK:
        assert stats.eve_recovery_fraction == 1.0


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_sweep_digests(name):
    assert sweep_digest(SWEEP_CONFIGS[name]) == GOLDEN_SWEEPS[name]


def test_long_run_digests():
    assert run_digests(LONG_RUN) == GOLDEN_LONG_RUN


def test_wide_run_digests():
    assert run_digests(WIDE_RUN) == GOLDEN_WIDE_RUN


@pytest.mark.parametrize("name", sorted(TAIL_RUNS))
def test_tail_run_digests(name):
    assert run_digests(TAIL_RUNS[name]) == GOLDEN_TAIL_RUNS[name]


def test_long_sweep_digest():
    assert sweep_digest(LONG_SWEEP) == GOLDEN_LONG_SWEEP


@pytest.mark.parametrize("name", sorted(COMPARE_RUNS))
def test_compare_digests(name):
    assert compare_digest(COMPARE_RUNS[name]) == GOLDEN_COMPARE[name]


def test_table1_digest():
    assert table1_digest() == GOLDEN_TABLE1


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_digests(command, tmp_path, capsys):
    assert cli_digests(CLI_COMMANDS[command], tmp_path, capsys) == GOLDEN_CLI[command]


# every run above with its recorded to_jsonl digest
REPLAY_RUNS = {
    **{name: (GRID[name], GOLDEN_RUNS[name][0]) for name in GRID},
    "long": (LONG_RUN, GOLDEN_LONG_RUN[0]),
    "wide": (WIDE_RUN, GOLDEN_WIDE_RUN[0]),
    **{f"tail-{name}": (TAIL_RUNS[name], GOLDEN_TAIL_RUNS[name][0]) for name in TAIL_RUNS},
    **{f"key-{name}": (KEY_RUNS[name], GOLDEN_KEY_RUNS[name][0]) for name in KEY_RUNS},
}


@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_replayed_digests(name):
    config, digest = REPLAY_RUNS[name]
    # a transcript read back from its own text writes the recorded text again
    _, transcript, _ = run(config)
    replay = Transcript.from_jsonl(transcript.to_jsonl())
    assert _sha(replay.to_jsonl()) == digest
    messages = replay.messages
    # no list is sent twice: the verification slots only in the request,
    # Bob's monitor clicks only in the monitor report
    assert set(messages["VerificationReveal"]) == {"alice_bits", "bob_bits"}
    assert "CoherenceCheck" not in messages
    # every integer list came back as an array, so no line fell back to json.loads
    lists = [v for payload in messages.values() for v in payload.values() if not isinstance(v, (str, int))]
    assert all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in lists)


@pytest.mark.parametrize("name", [*sorted(GRID), "wide"])
def test_payload_arrays_unsigned(name):
    config = WIDE_RUN if name == "wide" else GRID[name]
    _, transcript, _ = run(config)
    payloads = transcript.messages.values()
    arrays = [v for payload in payloads for v in payload.values() if isinstance(v, np.ndarray)]
    # every payload value but the verdict and the coherent count
    assert len(arrays) == 8
    for a in arrays:
        assert a.ndim == 1 and a.dtype.kind in "iu"
        assert a.size == 0 or a.min() >= 0
        # the traffic from_jsonl reads on its fast path: sorted indices, or bits
        if a.dtype == np.int64:
            assert np.all(np.diff(a) > 0)
        else:
            assert a.dtype == np.uint8 and np.all(a <= 1)


@pytest.mark.parametrize("name", [*sorted(GRID), "wide"])
def test_replay_needs_no_json_loads(name):
    # every line of a run's transcript is read in place, its lists by the numpy
    # reader: json.loads would keep every digest but cost the replay its time
    config = WIDE_RUN if name == "wide" else GRID[name]
    _, transcript, _ = run(config)
    text = transcript.to_jsonl()
    with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
        replay = Transcript.from_jsonl(text)
    assert replay.to_jsonl() == text
    assert "CoherenceCheck" not in replay.messages


def test_grid_shape():
    assert len(GRID) == 48
    noisy = {name: c for name, c in GRID.items() if name.endswith("-noisy")}
    assert len(noisy) == 24
    for name, c in noisy.items():
        # noisy sampled runs keep their darks; saturation zeroes them
        dark = 0.0 if "-deterministic" in name else 1e-3
        assert c.visibility == 0.98 and c.p_dark_data == c.p_dark_mon == dark, name
    saturated = [c for name, c in GRID.items() if "-deterministic" in name]
    assert len(saturated) == 24
    assert all(getattr(c, k) == v for c in saturated for k, v in _SATURATED.items())


def test_saturation_bound():
    # 1 - exp(-x) rounds to exactly 1.0 only from x = 54 ln 2 ~ 37.4 on
    assert click_probability(37.3, 1.0, 0.0) < 1.0 == click_probability(37.5, 1.0, 0.0)
    # every saturated golden setting (clean, and noisy at V=0.98) and Table 1's
    configs = [c for name, c in GRID.items() if "-deterministic" in name]
    configs.append(SimConfig(**_SATURATED))
    for config in configs:
        # the means receive hands click_probability: data bins, then monitor ports
        with mock.patch.object(bob, "click_probability", wraps=click_probability) as spy:
            bob.receive(_pack([1, 2, 3]), config, np.random.default_rng(0))
        calls = [c.args for c in spy.call_args_list]
        (data_mean, *_), (port, *_) = calls
        # only an empty bin, and an intact pair at V = 1, carry no light
        assert (data_mean > 0).tolist() == [False, True]
        assert (port > 0).tolist() == [False, True, config.visibility < 1.0]
        for mean, eta, p_dark in calls:
            lit = mean > 0
            assert np.all(eta * mean[lit] >= 54 * math.log(2))
            p = click_probability(mean, eta, p_dark)
            assert np.all(p[lit] == 1.0) and np.all(p[~lit] == 0.0)
