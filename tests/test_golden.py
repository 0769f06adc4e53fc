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
trains shows too.  Every grid size is a multiple of 8, so three noisy
sampled AND-mask runs at n_bits=2003, one per decoy strategy, pin the
last partial byte of Alice's raw bits and of Eve's mask.  One noisy
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

# 2003 bits (and 2671 frame-header slots) end in a partial byte
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
        "b7d95f94b6a4ee4e562db062af2f4c2993c610ba950652ebd0121b39055e4144",
        "0c0d47e4f6708ce9fc8bc8e6afc1e3040b82adf9b63f4523f7660f9c87049061",
    ),
    "1-frame-header-andmask-random-deterministic-noisy": (
        "3d4332decefbfa2951038aca2a21e6ab583d2e8c7f458a8388e431fdf157df02",
        "fb85a1b3fe218d9ce1234ac6c820629b68aecf42b936641cf2583aee28c75a40",
    ),
    "1-frame-header-andmask-random-sampled": (
        "06d73256a2aa2e75674260380959ea42144148d455aed0d5a4231927b9258587",
        "606d890338003252a58930040b322d23269ff29a1aac3530add0548d0f9f4351",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "f063b65f291f72949ee0e7c942219721385074897979a64d6d8b0c2a5313fd56",
        "26134d69db999262e8f6c835f0df5ff6e8200207f3790d8f3373cf09871006c9",
    ),
    "1-frame-header-none-random-deterministic": (
        "97794d071e43a10aaeca03d37eb8c72aa0fe06d3925e70001dfd47c5e1bd0bcf",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "1-frame-header-none-random-deterministic-noisy": (
        "e5e100dd4766ac060fcc7995979d820e78b9866c4b05ce336efcd9b54879136d",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "1-frame-header-none-random-sampled": (
        "edbb1a26ed7f94dc0cc8c67e87b02c51383ee193239ea27fc91d2ab1d385c398",
        "e22eeb71c7aa70a1d130a473731e269e568e62d463fa03bdb16aa4320dc1f252",
    ),
    "1-frame-header-none-random-sampled-noisy": (
        "235f60edfc5fbcf98af10327fc4151bf5ebea098cef3d76e2da45db2f8d40577",
        "d6035dd755f1b1610069a78456ccbe6b225f77767ad1e01ff6a7ac23101680ae",
    ),
    "1-none-andmask-random-deterministic": (
        "f92816591d54830782d8c9a2684ad2832f8b1ec0e293a9e40f667fce58e0b806",
        "0c3abaeaac49d49531dd3acccdc4a6a6ab9c0cde1a6d13c2e479a7f7db66e3e0",
    ),
    "1-none-andmask-random-deterministic-noisy": (
        "e5e357716f9a346a15abaf5534e755f36dc553524fe4cb6e57e40ab72fa68dde",
        "f5e0751a276040db9f6648cfcd57ab1c0c6ccc199b6a8269db670b3e51b57542",
    ),
    "1-none-andmask-random-sampled": (
        "3f494f794e4de8360a4d00b32a4173c6f56127a6ad21a9d8d732a9b6c69ef4be",
        "12c0addbc4b92438295711c4ae57873fee9b945c6a85bb75d3c4206581289684",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "23d662a513a2b8a5ec8ab90261a59999d4e5ffc0b46bf00f4cd86b507d07f187",
        "39d1d8481e943600000958aba2a6e7c4b44ce3f859b44acc405590d45e64f661",
    ),
    "1-none-none-random-deterministic": (
        "57c0937b774db5ee2df4389f429e827d75f749d7f924a68829c90488553d4bd5",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "1-none-none-random-deterministic-noisy": (
        "0ec286a8c6cb49d623e945a6201f64edf3b11a65e579d20ea407e6f02228e294",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "1-none-none-random-sampled": (
        "cd392675611a173e051aebcaad2039886407076aba1135fb4017bc265fe7b35d",
        "ee964de27bb423e72c4bd93e115e44f989ac57d183c3907416b30e799b48a996",
    ),
    "1-none-none-random-sampled-noisy": (
        "ffefd00fda2b5c6ef1c772c9bbac5d53c795d7303a14eaf01a781593c4d1aaf7",
        "de8a25b6f0f31d49a73900db723844d180fda4b34b5643140a3e44a27cb791ce",
    ),
    "1-substitute-pattern-andmask-random-deterministic": (
        "46f6ae639d103c430886b39c526338bcaedbe9b17a151a132c364ecc1139ab4b",
        "d7c772618fcaf4d14057c54353cd1f5083ecbad7e0d33c2efa8d3a5b9040a9fb",
    ),
    "1-substitute-pattern-andmask-random-deterministic-noisy": (
        "974a6a6169ca2ac9df285f3e1136494c04273c7c2eb8cf6dc8f147ad7a19069f",
        "57a4e89003c4a88228d738e7a68e89c95df22a11e0e0c241fa6062504640fb1c",
    ),
    "1-substitute-pattern-andmask-random-sampled": (
        "060c4282c217540aecee1de7d77e39bde39fe4cab35842aea9f74608577bbb69",
        "b0f27d978fdf276fb4ca0420b0cc82bd2600493eda7db5803eb64a7f03b7b4ab",
    ),
    "1-substitute-pattern-andmask-random-sampled-noisy": (
        "e2bcb8fcb6b90c0c29605aeb21df38fbed1a41d367a7d21297e9590e2046f47b",
        "f223d6aa41c14aa91ba62d9ed596dd05f6d96217441163c686c4baa8a6ee891a",
    ),
    "1-substitute-pattern-none-random-deterministic": (
        "bc3b05f39cd7c14a66fe193be6d6aa3a9d8c55872ea3baa5504b8252feb8ac4b",
        "b30774034cd1a11cfd7af9a42a59eee5369ad1f767c803a962f1f2f53155a406",
    ),
    "1-substitute-pattern-none-random-deterministic-noisy": (
        "2d9fa50d2bf36c3d5cfb54e265072e4ed6cc126e1382663a00417676dd70bcec",
        "978a629f9538d01cac9d9fcc1ceef331ebde88371177995d97b167ba4b394295",
    ),
    "1-substitute-pattern-none-random-sampled": (
        "b43a506ccf4cfd22a388e0282f5f0955d8daee3b75e39337e434cf792056f16f",
        "3de3eea3a19b2abde29ee7583359c2d723685092481bc171061a97a3d221c572",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "b5e5fa100f2a339a06e29af7bdd7c98d8ad199e30ea73705bc2438776a859517",
        "6100ace648c1ff0e3852a12064d10401bc429ab93835eb0a50fbd1c837de094d",
    ),
    "2-frame-header-andmask-random-deterministic": (
        "4ff4036f13b0904826737d09079609ddc70d562c0ab924e5076207a0dd700e3b",
        "69a764c78200a96337a143eb89abf99848c5d1833110952a6d5c871b897c9778",
    ),
    "2-frame-header-andmask-random-deterministic-noisy": (
        "94d5488366606d52732c373151ac2b8b12ac21915dfa82384833cc5889229ce2",
        "0050720161e4dee26f0f869a7f956924ac54baadb9620578fb4457d3d5f9e04d",
    ),
    "2-frame-header-andmask-random-sampled": (
        "92e7398736bb57ef9803b86076c4676b2bd86e2aa057410ef3edd66079321e9a",
        "bf20dd9726a6adf608382a679b519c58a9ca04177d68083a32844155ec6d2599",
    ),
    "2-frame-header-andmask-random-sampled-noisy": (
        "196488cfe475ca4a730aa98b978ee7d5584c0034812cac74134a9091638c0a46",
        "363db40bf7b2967abf5a9bdb8f824a7cc807b8dec517776e3c8f792520f0f971",
    ),
    "2-frame-header-none-random-deterministic": (
        "8fb47180c6ac7dba8a675a4059c3941d5583ae6777423acb2d782d9d4fd6c0b9",
        "cecf721a1849bbaaff870d739b674ba68c93afa2397e61f87c1c912c91d3adcd",
    ),
    "2-frame-header-none-random-deterministic-noisy": (
        "46c73fc35c0bdada4ebbf91cfdc5b71e0523ed335cc49c2fa3de96b03454f8c2",
        "dfb52eae72e39eb2063be93a4c660d1466b06fd16860bf8e366e01342fcbe622",
    ),
    "2-frame-header-none-random-sampled": (
        "89fafaf53056a44845b5b41dde409e0c236a7328177b0fb685b2e1c8698814ed",
        "1187d6c28fa8fb057b0bba522887ecacbed93394cc1e8482dfec2c27246763d1",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "7199ae1bb6f03a29709c618d3aadd7bc08d80c153a2e1bc1597e2324077ce9ce",
        "d8dfae4ed45e84924aeb9ee8c9b2b79d9375b1bcb2afa85f0451f9507d443ca3",
    ),
    "2-none-andmask-random-deterministic": (
        "e4ed3b43d19d355fbebb2c8a6f1e74abdb6433b7572a217ce68004c55227c06e",
        "86178f82ce92be7d1ed897fd847147400ab923f0a37c242317308c26f5248c51",
    ),
    "2-none-andmask-random-deterministic-noisy": (
        "799bc683a31efaf2ed2c7b82bba572c24cf5783c1ee6edef5f25c4db1d72c5cb",
        "1c9b0744872348680b65f85495b880c0e873dfbdb88d7e0be05a5b276f5756a0",
    ),
    "2-none-andmask-random-sampled": (
        "54b4f9754ccf40e827e6a2bbfa273fecc2433b8778bd997ac893a3fb3ec3c043",
        "3ee51276a07eee0d4566afdf4b14142772f284a28444f6461bf0f406732300ad",
    ),
    "2-none-andmask-random-sampled-noisy": (
        "ff838e371076a97e79428aeb56379c0411634746ca5fe169b74417aa7af0f8d5",
        "5c9e92a11c3bc2506385844ddb6c5e894b013209f02e05675b857cc87a19e463",
    ),
    "2-none-none-random-deterministic": (
        "c2f2c66865ff41405ea2e77b7020d639cbfbe714270100faf8e6988ad363c700",
        "4fd224e708235a6c03e2722fcdea4a2b3082da418dfb636920a6054f55e76589",
    ),
    "2-none-none-random-deterministic-noisy": (
        "98d8781b4c111c072f6fdb15c3c18aeed1cf830857deaf727b095fddd5719dac",
        "cb398dcce92fed1848597bada59b8d30ec2c61afc8ab9fe8ca1500ff409fe740",
    ),
    "2-none-none-random-sampled": (
        "0894501f2c80273456c889fcfa4102b9226db17e381c29dbd5c19f6cee47d6c2",
        "ddb01a19858e880ce9ff3c1ce02e2865e814f875394cc255b9a4205e245122ff",
    ),
    "2-none-none-random-sampled-noisy": (
        "414d21d75c7baa78e107efaeb5a4aafaa88bd82c9d737bc2b1ea8ad5e3626ae9",
        "571c83ab9c27d844614072867ddaf2beaf95adfbf14118675aacb23264aee541",
    ),
    "2-substitute-pattern-andmask-random-deterministic": (
        "180ccbddef28b2d4fb699b83d72224a2c4df373a038db8d089a57a0df9d80268",
        "c8fe2c1d2bb1c897f8cc3003dbb852ef26fb00ae0ed1a297fb9b7da2c34c1d8a",
    ),
    "2-substitute-pattern-andmask-random-deterministic-noisy": (
        "9050f9360faaba8171f966c8d41d2c0eed5f12f556a7f967a0709603c3884e20",
        "d91fba0a8eda450c32a7d8d382d0b21c15008ec66e776905f008522d06e746ad",
    ),
    "2-substitute-pattern-andmask-random-sampled": (
        "59b37ac42a9be710254a763859abdac206255a309d8f81885a69cd4fced958a2",
        "e3007859693311474c3253d9d999ee949b67b0d8e67d4a854e1be76ec8e180c1",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "4395bd18d97a8352bf3a4bc7210ffabb1baf598c5311846c63d1125737fc42f1",
        "362046b15f4fc98786c23293c5010d93aa19990987efde5f7513d5ace35091d3",
    ),
    "2-substitute-pattern-none-random-deterministic": (
        "5319ef7c47918d4fab28de6bef896988c28b0b0265d04a99f0f5e04dc85a1698",
        "e45566b200164975778a46361234e6478297e253ad4bc02a790dc919c6472aa1",
    ),
    "2-substitute-pattern-none-random-deterministic-noisy": (
        "c1d72ae58aeab934f0749d9e65ad758ff8e9ae762a94fc07d2606d96dcbff7a3",
        "5ca4138d34cc1fc8324f9af8414c9469b0a25081839107e378e29821b736fa3c",
    ),
    "2-substitute-pattern-none-random-sampled": (
        "50612d204f6e210903c237b8abe87f3ba655bf8d13f8e89496d002b63fac26a6",
        "a24b42709d2805a71a28dad2e2c33d7166e70465d79965730c9cc4c169018586",
    ),
    "2-substitute-pattern-none-random-sampled-noisy": (
        "dc3db8caa52a25f8b1c4af0f50b85a7cae87b87022249a559a99d0cb89057c68",
        "72e0a757b70c436a8fd8a208399c0cddfa411a7d2b82f50e355090618d1e3f6f",
    ),
}

GOLDEN_KEY_RUNS = {
    "frame-header-andmask": (
        "9b80c54f49a44a00594e3327f594087edc7004677576ea30e2f8ebb4051d54ca",
        "cc51a8a243ce1fdb139c49816008322f9ecb5042c6ba965f055d780d660dde52",
    ),
    "frame-header-none": (
        "37acbe636d942500bf3622c5bf8ed9095c5d3230c5d7aa915349500be1eba634",
        "807ab88937124ff881e4a3e4ed82b02f0f7924272e42a7b76cf723221f0f2db0",
    ),
    "none-andmask": (
        "ce2359efdb85c9681518cc71f5b9966f9af7a7765e70c9c8d4ff490c2988f297",
        "141a5af4257e4cacff0ab930a7997449640f2915f1f8acd1b2e45a54e5f7c389",
    ),
    "none-none": (
        "29b5e471b0a97d5bd102e29779ad94c99e8fa89fd5f270f3166bc4f1ea4658c3",
        "c87bfc7832bb75ea04821115bc69494bb9d1ce5fac7d8f28ddff33488e9e7feb",
    ),
    "substitute-pattern-andmask": (
        "f6705c3cb94d565a0b09a7da968df605c644ca64ae42acd78190e045c0c0dc8b",
        "12d81df1c17ac7e683f80cf1b55246808f951bf620f6ca1e7fde6253f5872d35",
    ),
    "substitute-pattern-none": (
        "6a0f34d063bead627de7bbfd4836391fdefcd1a8e3a220535231739bb14b5c11",
        "ff00de80470ddfd40418ba1bfd1150af3d8992296baa25f2f25f95746c06b121",
    ),
}

GOLDEN_SWEEPS = {
    "clean": "34aeaf709a5620b4c2dd424cbb785ce0f08b29176d65bdd8abc3a72d3cae9d5c",
    "noisy": "2b588a46538a7dbcb8c93c60b19e8e9cfc057df92c04c3bbc4805b4a68a3cd09",
}

GOLDEN_LONG_RUN = (
    "496847d242e708a526aa6ba17a65ecc502c62002a31fccca266c8153f77b1cf8",
    "e00f087bfa873b0b3618e8821a9df1c27bc947f517be70ad9dc6a03203f0c5a6",
)

GOLDEN_WIDE_RUN = (
    "be86e6752683638fbdf403de6cd63079e7f44d6083875305bf935bbdd58e884c",
    "15f61f91d231bdb963093f285f7742187bcbcccdc8dd412157e1b40a2b6a8202",
)

GOLDEN_TAIL_RUNS = {
    "none": (
        "9748bc090f644f36593d81a3bba41f677d9f5f4680c81eff164cba6bbb319b58",
        "b3246f0e5206430ef18668ad9b51d05db396cddda8ea5ee2a305763d84739525",
    ),
    "substitute-pattern": (
        "91beb1ad9e7485589c8b44482ccd8692e6de948fcdfff4fb2634471db32b1a8d",
        "186c87e5a4d0b321991b9db8085c7c803d5dc0a44197d36302e8af29eba0ea30",
    ),
    "frame-header": (
        "540540310b9ecf48c6cee3426461ddb737f0ba9c983eb9e35e43371dadd55dbd",
        "1472a26fffffd1aead983a0be14b753e22a8bc8d161071f8a8dba7706de43623",
    ),
}

GOLDEN_LONG_SWEEP = "00c263e8d05eeaaa3993495c92ee535bd4ef9108c838667f29813fa579863604"

# rate ratio and recoveries, mask off then on, per decoy strategy
GOLDEN_COMPARE = {
    "none": "97cda9465a39e5af9d9603dd45ef54a40a0d05b7fe7a0e96b568a40cf9ca3ca7",
    "substitute-pattern": "73c7001f0d99bef3ed19efed7abfaf781626764d2542fff95d15b2048e62f9e3",
    "frame-header": "f260aca1f63f0f7802aa4a3a22422b98a8295758567e80e727f01c3d592a6ae9",
}

GOLDEN_TABLE1 = "f3f943e6026c22d2782dec4b7eb9acddcc0215aa42acf663ac7f1eaab33d15b0"

# command -> (exit code, sha256 of stdout and of each file written)
GOLDEN_CLI = {
    "run": (0, {
        "stdout": "d5c51ca5761521eae9fb6dbecbf2ae57920004c8c8418c4b776574d41a30fc16",
        "stats.log": "d5c51ca5761521eae9fb6dbecbf2ae57920004c8c8418c4b776574d41a30fc16",
        "transcript.log": "c50239cbd328eee4cc189f590303c60319281a92621ea219b7065023c2283851",
    }),
    "sweep-mu": (0, {
        "stdout": "8c8d7f8133cfbbeb6a2aff099162c3757ae8eeed7a65f9176881e0e5341aaca1",
        "sweep_mu.csv": "8c8d7f8133cfbbeb6a2aff099162c3757ae8eeed7a65f9176881e0e5341aaca1",
    }),
    "table1": (0, {
        "stdout": "d1ae28eec05af02b3cb2179adb3d92fa2194501b3ec5d78b304e410d9a1d9e6a",
        "table1.csv": "d1ae28eec05af02b3cb2179adb3d92fa2194501b3ec5d78b304e410d9a1d9e6a",
    }),
    "compare-attack": (0, {
        "stdout": "99ab57e687deb06cb57bc1451b7dcabdf771ab46aef701111c3bf741c8a678a5",
        "compare_attack.log": "99ab57e687deb06cb57bc1451b7dcabdf771ab46aef701111c3bf741c8a678a5",
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
            bob.receive(np.array([1, 2, 3], dtype=np.uint8), config, np.random.default_rng(0))
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
