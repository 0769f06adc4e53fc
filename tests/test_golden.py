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
replay must write its recorded transcript again, with each list that two
messages repeat (the verification slots, Bob's monitor clicks) read back
as two equal arrays.  Every array in the transcripts of the grid and the
wide run holds strictly increasing indices or bits, so the formatter's
unsigned layout writes them all, and the reader reads every line field by
field, with no json.loads.

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
        "0d84740ed8a5d235ee8ad2d8c783e61f2e39c74990b4b987b2e5aece6e5ebf48",
        "afb3279f255d85ba20a552f02db99254f7f6105d45551181ed69e3d52b723c53",
    ),
    "1-frame-header-andmask-random-deterministic-noisy": (
        "32a409c07e2f9afdcf5e64028558222ca65fdfc59316d003bf14d1590f5bafed",
        "11bdb8a11559c8a1bb369df899df6a596de04df112567020c38f61a9a59c2199",
    ),
    "1-frame-header-andmask-random-sampled": (
        "24f5b81623369d3d4fed32c9f379afe8818e677bf25012cf254de4ea10413b2a",
        "899c1998c796583447ada771e25c10eb726206ddd54709b58129a35ee4ef3c11",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "3169d85827b46b09274fefde35c23a87ed9e59995a5a771f6b2eb901117ea2ef",
        "105f255ad5be875008e7dae260a1f08fa66bd09b820854ff179e07ebd86e5fc3",
    ),
    "1-frame-header-none-random-deterministic": (
        "dfa9023542a23c04e3b1cd4aa61cfed9d1bc42e2910c2baa7b94060ec6468a76",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "1-frame-header-none-random-deterministic-noisy": (
        "c8830837001b1ada31ffc83040c51fe4f84d91b974cbaaa5873a192798e4c153",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "1-frame-header-none-random-sampled": (
        "f791ee506acd9b449503c7f27b4f9f228fc76e38802f822afdaad3392d735d53",
        "5c679099a38ceec5d002593937ac6286a8b97f793b0d0e8031157a01e58e54c3",
    ),
    "1-frame-header-none-random-sampled-noisy": (
        "f88d56f44715dacbc1ddb1d05cc3f40e6ed116dcbd4ce691c6a9f89f14b9bb08",
        "8370838fa8e2903dd73cb7f1256cc551bdb045cea579c0c71e62779a941ffc9c",
    ),
    "1-none-andmask-random-deterministic": (
        "4fe30301ee9af453b202aed310e9aa991507cb9093e2e98d7fea431df211ca09",
        "5bbec2a2307849c82d658e8579b6246a952afba943292ea4c62270b9dc1df2d9",
    ),
    "1-none-andmask-random-deterministic-noisy": (
        "87f39ec209d9e71c742dab6680c20180acf5179700b01311363f25fe17d995e0",
        "ed928508bdb35f6301b5d0e612ae827cbdba0326c024f94597477d4291f57350",
    ),
    "1-none-andmask-random-sampled": (
        "9813b82b84dc28b679ff62fd12e3a96ca6a67a929d14906c487b9503a5c60b4a",
        "ea5156b42889956362b243667d7c74421a30e44c6b72b8f1ef400efabf8e471c",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "0f1b2ed72302f0c083e875c9a37fef20887d1e26182021e49ae9f276b2864fa2",
        "76c9a85b8ecf1a987ddab666f1d7c26f87fbf53b83101816226decd59d4826a6",
    ),
    "1-none-none-random-deterministic": (
        "0c270c6483a41add276fbbfc6472a3afb90355f712d938cf93cbc68257934a12",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "1-none-none-random-deterministic-noisy": (
        "39fd9a41c5f6e82487b84ad6a6aad7d80a728626d62bcc525a54ea5d90e01ff3",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "1-none-none-random-sampled": (
        "5d89d57ecd25f8f30a955df70c6b577155ffaed1477dd4bb4787b1b2dda470cd",
        "1a22a6a2c853057ca48ea04cd80b89916031808ec90a8015c4a88f87279da484",
    ),
    "1-none-none-random-sampled-noisy": (
        "7438e3007537ee5562722e362a4f5b50495490369270abd43b66f03cbad6c3aa",
        "8036fd32b7f096f1a71cf44a1cabb14c831574606e246f23865c054ffcd735b7",
    ),
    "1-substitute-pattern-andmask-random-deterministic": (
        "dbacb76c41cf9645c042c3748b8594073ddc3f077744f8df914fc15c72f242cb",
        "b5bd1128cf5174f6f12d3dc6d2ac107756c6dcdae8bcdae8bdd76878f06bb8e4",
    ),
    "1-substitute-pattern-andmask-random-deterministic-noisy": (
        "1a148f6334df5cd6a6bddb7559ebeae37ea7357316bdb7940d0220d9bb463772",
        "09b5dc7df59e3ae1c75947714f42ca2ef11167f2204c53f734beda419a17fdaa",
    ),
    "1-substitute-pattern-andmask-random-sampled": (
        "f30faae37d4598e795f043530198c9031818f93d742c611bb177523b61bb92fe",
        "802949379b1a7b61764194bee29e1d01bb087f4e7100ca674d3e35e318fe92db",
    ),
    "1-substitute-pattern-andmask-random-sampled-noisy": (
        "4a2d0a8407482fa2bd4d9f343e4e5e88c2a6de91b6fc000ca442f1edd44ea12b",
        "37a059d64c48156cf45ec21ce486ac25838a04c19644db20a9df4e3fcfb9740d",
    ),
    "1-substitute-pattern-none-random-deterministic": (
        "6a0efe9afe0a78808f221b97782627c9948f7574a74caa77787cba8c532945ea",
        "2546cc47f1e318a768b4516ad0c770c1ba2f4c3a59a32558a04fb7633ef70a8c",
    ),
    "1-substitute-pattern-none-random-deterministic-noisy": (
        "47ac0843d8bec6e66fc2ad9f2d14546f6ed44c17c6e6b84f58cfbc5bf3329d89",
        "3d86d3a7b17d06fed7e3890d7c752c1eda776e5fa5df57ff8caa2dd39114080a",
    ),
    "1-substitute-pattern-none-random-sampled": (
        "7c1b00b148debde7de8177a3b67c6360beb79dbf7eb9364a69abb272c4716406",
        "b690c50dff8c2189fe55dddd9874322807cde9b6ccb45f9ae44d837e09f2bf12",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "18ab931f6d1348b9b50304046e1e95138fd2b48fde6e216cbb98a117c3a91e9c",
        "3f03a7ab6ea0ed7f74c0037e324b5cd7bb76ff4027d9452259aaa2ab6fd171eb",
    ),
    "2-frame-header-andmask-random-deterministic": (
        "190370568840c4a736f4b563d7cdad830f1d740dc38ba31e21a66456f7f8d680",
        "1acee02cd7aa30b748802962e889e2d6466f1c9701b47b17fed62dfd27c30dad",
    ),
    "2-frame-header-andmask-random-deterministic-noisy": (
        "6ef183767f507f4a122e244e7a11b4e7b285cbef047df28b32c794acb99a4474",
        "4e21856e986da00f42e5d1bae1d1091e2ce42e020107936f20d4a088ca07a58f",
    ),
    "2-frame-header-andmask-random-sampled": (
        "a3918e75c0d5ac64797ecd4319d3bcca59f1e5a2742971a5e58dc1cf420586b8",
        "0cf41f41161a59e55a4a993a9796f4291bc0ebf72215ba6690f6768ce24b0cac",
    ),
    "2-frame-header-andmask-random-sampled-noisy": (
        "140c1088a2d5539e88fca01219cedaf207abd5607fe51ca6183d522ccd928045",
        "a8eec001dabcecac5da5e05c87d1ba536ba07d53900a0516f7282b7cc1e2913c",
    ),
    "2-frame-header-none-random-deterministic": (
        "1133df8d8f81bbbe8b3001893e196571304d19e6c42b4f1257fc73dcdcceffad",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "2-frame-header-none-random-deterministic-noisy": (
        "6e3848bfdbeafe1b13db7c95ff23b5000f6b5245d6c5836f1c61bbff86d1a022",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "2-frame-header-none-random-sampled": (
        "5a63685cdfc0667a131b3b2d0718b1c18790f9f841928f6b1f2f0e0bcfecab48",
        "463ab1e89dc3df2411a57af8a4cc833687f63c356dab8fa1a7f12a56416becee",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "64ebbec20012c176d4be84714f840ea37de6fb56866837dd5837afdc6c4dcdb3",
        "a1d316f836b5f5e08f8514e92f47666f9f46202ccb893c9d117961d8638e1eb5",
    ),
    "2-none-andmask-random-deterministic": (
        "29947cde46e54e9c7caa63bdda34f8bd9aeee472c46c33f7a1d0adca08628c2a",
        "ebea3affb0e8ed7700669feecb8979804021c21928dd8c230606485c71e01ab9",
    ),
    "2-none-andmask-random-deterministic-noisy": (
        "86ce98cd291dabb0f677783637f7e1eb2d7ba0e60b8ed9afe7b10a49e72991f4",
        "866971d69e45fa48464874f39d4a44a617fdfadaddc8fa5c229dc8cf3cfcb3c0",
    ),
    "2-none-andmask-random-sampled": (
        "7de5c3873d466d2813a709df8453c4fbc5c9aaeb67e04f345b23cf91f93c7b68",
        "996b9e0a95305a59b3cf76dbf85c04530a2cd6e6e965a335ec78bcce391af1ab",
    ),
    "2-none-andmask-random-sampled-noisy": (
        "cbcb761dbcd4ba37bb4a84657005d8715e815dec1bbe4a20b001da4fa588c471",
        "b596275827c1d0408433f3c908899bf6ddafc0d3ea7a67dc67f6a3ccf19c6bf4",
    ),
    "2-none-none-random-deterministic": (
        "90a7181dd800a0d71d386941c528e7ed9e998b51bcc1042fd62974eecf54e6c7",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "2-none-none-random-deterministic-noisy": (
        "f88748c3e43c2065508edd937a6e5d3c41007764c81c168a6236c40bdc6f81d5",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "2-none-none-random-sampled": (
        "773c3682d1e5208dc07b4917fc50c5cb9ca1fbd5311b907d24d4d5ed417a9e01",
        "2ce9d849d22b27164fb024993a2cb391cf13cc2b611ee7714811e34ec06cdc09",
    ),
    "2-none-none-random-sampled-noisy": (
        "84d95b57ef69221c373c34efb1b57c3c1499585d66ebabcfb07ee798a718a858",
        "7393063c112cc104fc5cd4dae1f96bff82e608c88bc91dc2e19b825caaaebe73",
    ),
    "2-substitute-pattern-andmask-random-deterministic": (
        "39dee7796c6827f88181e220058ebebae4967cddfdc4211a9defa8cd79826921",
        "776cec30efc7b26839374e2fa47289ab9786360b4ab7548a6b60a4ee578711d3",
    ),
    "2-substitute-pattern-andmask-random-deterministic-noisy": (
        "c314ca04bb9fb6958f06e965d0a9b1f493cd661d9ca99408529354e8f1959b69",
        "95fbebca44a377e3320b20345f516a1aa84235ef489d22b843f887392a663a76",
    ),
    "2-substitute-pattern-andmask-random-sampled": (
        "f9e1d7a086d4047ef196d3360478a8d3347f820456cb2540a484415628c13c7f",
        "a2d9a6a365cfbb7475d6f0c51541b528467d4d27c9b7b7925be784e7ff5e75c8",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "57eaec604cb5aae86cf50e651a52fd74a0f74349f2afcac6f0ab0e27728ab918",
        "071687e8cae421bd5e21605277bc31bb14040fc40a3fae116155d2f6b526e68d",
    ),
    "2-substitute-pattern-none-random-deterministic": (
        "761d44cc64f681048b0b1a47ea048f6205a9a6fb683f95c8079282be4467365f",
        "e45566b200164975778a46361234e6478297e253ad4bc02a790dc919c6472aa1",
    ),
    "2-substitute-pattern-none-random-deterministic-noisy": (
        "38149d2e7bf86dabe3e16dcfb2742c6166201e585d5a84ef03dbadc4307c00e9",
        "5ca4138d34cc1fc8324f9af8414c9469b0a25081839107e378e29821b736fa3c",
    ),
    "2-substitute-pattern-none-random-sampled": (
        "530d2d41ea0c1a766d8468e609732109d59672c93585a2e300f9396fa6608a9f",
        "d7ed23d9ed6241e407ef22add95a6adb7fbaa956b5c884e47da069ec7bdde3ea",
    ),
    "2-substitute-pattern-none-random-sampled-noisy": (
        "2f772a529726c24729b1d1fd5890af9f29b926579787b66e4e2a3a79a7fbefa6",
        "98410ca53153497ec8b1dcd30bdc3f46fc85e45a622ba6cc2b5c3fa548599afb",
    ),
}

GOLDEN_KEY_RUNS = {
    "frame-header-andmask": (
        "bbd7651fc0a1fe1974a923cbce8c49cb23bc75d617eaef8123f7226bed8afdd8",
        "47829f156325c6b359f18ad536623650b540a04b564dd6fefec5db497b2b21e6",
    ),
    "frame-header-none": (
        "8b9c4bfffe1d8c8765c533126ee9bd93754cfab3fb2d1df41fc8660c81284628",
        "1f90087ba1c47fa3ec9b1c20e607edf5d285e3661a117e782dfaf9882a128576",
    ),
    "none-andmask": (
        "a851661267204701be53d8722a4d793f932605f55c0b634867267395fef6c28d",
        "b40e765524ef8e891b37a3237a405eedbb9255c56f74d17e959ae1fca370e682",
    ),
    "none-none": (
        "01be0a1f3db81df86401c2057e24976032819f050efd22d640e196046c07a58c",
        "d37b22ba7f37a08c749c90103845200e4cdb37785d14316553ff3f6025287172",
    ),
    "substitute-pattern-andmask": (
        "9785bf8c27a5cf1baea1935cdd68647ef1bf387627c41b2a783d9a2f73dfdab0",
        "5f8508872a9f83e4ffee6a710c06d2a3faf5b5666bed12d661fd3c70076517dd",
    ),
    "substitute-pattern-none": (
        "1fb09277dab494d0dc78bbc079b69075cb49ee1eca83a4dbf98dd446b59e8602",
        "b3092e29fac0b8998b413ccdb6a7d73836722f1fcba498f744d8c2f35cdd572a",
    ),
}

GOLDEN_SWEEPS = {
    "clean": "fb9405f8307fa1f495cb32aad504c6e4f6f4aff5163035b9374ef0670f50d25e",
    "noisy": "5374a4a27eafaaab3cbe15cfe196a701f004c98e5e6521f26b278766b6cc5c99",
}

GOLDEN_LONG_RUN = (
    "d7a4c0bd3313ab235b709504f051f501318242a0daba29526971aeeb50a1c3c8",
    "6fcfd0ba29a4f2ef807240e6db2970cf9ad6749f14ecdbf8107dacc8522aa33d",
)

GOLDEN_WIDE_RUN = (
    "08b0c896301789b698e5d67e4baa919d5366fba9f721cd64bb46dd4151af60e5",
    "b692b4fdc3cb7c3e1bb80c8b906e43038f60953a3b0e94f98d894b7932d829b1",
)

GOLDEN_TAIL_RUNS = {
    "none": (
        "1781a7bd83913c3e8fec5c2828e1c612bd8cbb5506813aa2f0283ba27975ed89",
        "ceaed6af5de914ab5cd9b633b7e1c339853ae1ba8ba2b0879179ae1eb9db5dd9",
    ),
    "substitute-pattern": (
        "dfa598514694ab955b2b9fb2c60c40641c7a944d72ca25733c9e5be7c83ea896",
        "6cfd41571f9611935d18ff202d4d425addbda7324f5ae80cb6772c8f911ba0ac",
    ),
    "frame-header": (
        "38b92242f6037b9e0ac5d66c14c7516b98c8a6f2ec6bc35e66bb4c9b0b1f864d",
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
        "transcript.log": "693eb954eaa80e076e76b85cba4a2d9321ee32cf7b572c567682ec171a707602",
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
    assert np.array_equal(messages["VerificationRequest"]["slots"], messages["VerificationReveal"]["slots"])
    assert np.array_equal(messages["CoherenceCheck"]["boundaries"], messages["MonitorReport"]["boundaries"])
    # every integer list came back as an array, so no line fell back to json.loads
    lists = [v for payload in messages.values() for v in payload.values() if not isinstance(v, (str, int))]
    assert all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in lists)


@pytest.mark.parametrize("name", [*sorted(GRID), "wide"])
def test_payload_arrays_unsigned(name):
    config = WIDE_RUN if name == "wide" else GRID[name]
    _, transcript, _ = run(config)
    payloads = transcript.messages.values()
    arrays = [v for payload in payloads for v in payload.values() if isinstance(v, np.ndarray)]
    # every payload value but the verdict and the coherent count, shared
    # arrays once per message
    assert len(arrays) == 10
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
    # every line of a run's transcript is read field by field: falling back
    # to json.loads would keep every digest but cost the replay its time
    config = WIDE_RUN if name == "wide" else GRID[name]
    _, transcript, _ = run(config)
    text = transcript.to_jsonl()
    with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
        replay = Transcript.from_jsonl(text)
    assert replay.to_jsonl() == text
    messages = replay.messages
    assert np.array_equal(messages["CoherenceCheck"]["boundaries"], messages["MonitorReport"]["boundaries"])


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
