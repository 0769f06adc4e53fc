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
random in every run; names say "random".

One noisy substitute-pattern AND-mask run and one noisy sweep at
n_bits=100_000 also carry digests, so output that differs only on long
trains shows too.  Every grid size is a multiple of 8, so three noisy
sampled AND-mask runs at n_bits=2003, one per decoy strategy, pin the
last partial byte of Alice's raw bits and of Eve's mask.  One noisy
substitute-pattern AND-mask run at n_bits=600_000, whose checked boundaries
reach 1.2M, pins the transcript's seven-digit numbers.

Every run above is also read back by Transcript.from_jsonl, and the
replay must write its recorded transcript again.  Every array in the
transcripts of the grid and the wide run holds strictly increasing indices
or bits, so the formatter's unsigned layout writes them all, and the
reader reads every line field by field, with no json.loads.

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
        "60f7517a517227385c3c91170c8a2276b1d25d0a6755d3751d5e72ddda1ecb88",
        "7ac1c022ca90b6308b41d69c14ce2268249c74fdacea8cf90b7a008f522a3d16",
    ),
    "1-frame-header-andmask-random-deterministic-noisy": (
        "0601e4f6792c0d7b33616471d2566f8d7a7a780d899421de171a9ecce2d47efe",
        "92ffb365ef898e291beef2f0ef69a4daa36f4d5728bf995bd809f3291501e11a",
    ),
    "1-frame-header-andmask-random-sampled": (
        "8b569d1c0a2d8f259f5f6cc494407170f86841d4cb23c6c6dcbfe81544ddb311",
        "606d890338003252a58930040b322d23269ff29a1aac3530add0548d0f9f4351",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "b79904f40a2df4fbc8381f7f33611eb3b5475e3c090ea4490d311a384559202c",
        "10f7c466c4729f205e59bd2e4fb787003a9bdaa60004061666cb9ab5d541c019",
    ),
    "1-frame-header-none-random-deterministic": (
        "1141125194e05b05c639d3ce068107818b2762c5943d0b73f7a3cf37e81d121d",
        "8273db166cf0cd233e972cfc28f2393eda3adcc03837ebdca806aa9876140310",
    ),
    "1-frame-header-none-random-deterministic-noisy": (
        "4ee2a293ba1638185535f5cd403cc05121868fe9998974710bba2c1a8d2f3975",
        "708f539910b6839a5e71edd4df68e90bbda0e5224e628e8851d186048a36953c",
    ),
    "1-frame-header-none-random-sampled": (
        "639d2de5fd3cd5309852fa6d1253881d7d346cc84d4303590e8edef41b151216",
        "3815727842e841ce89ef081d67c47d17d5e1331109ff705cd47c62ef05fa90ff",
    ),
    "1-frame-header-none-random-sampled-noisy": (
        "a67210d46a9dcdc24032a1fc46dd12351d446e158b69022f2a42702995cbd005",
        "9bee4f09df766998d60457d8db8a583b8fd258c645cbe2a832f3eb5636af5e4a",
    ),
    "1-none-andmask-random-deterministic": (
        "07a2940368f32405cc4e57fdd7616ff242f0868de91d22c6d641929764737e3f",
        "6b0f69466ba99c6068200c83e36e387c9114544c417e2ad3d76049b8e52b340e",
    ),
    "1-none-andmask-random-deterministic-noisy": (
        "baa97f56f849f536e3ac0f9b4b19e72adcdb1343f1f5819ad769c926aeae084b",
        "535123bc9de9a6575cf2510e5e29589a24933ab99fb259b7039d233a6a7083c9",
    ),
    "1-none-andmask-random-sampled": (
        "6732907b1e2c6deb7712e3d64c97c08295cb0412b7619137dbb21aabdae8dd56",
        "deffb484e98584608f72e98b7c8d8fba80ad4e9e16a3159b6586ab39fc8149b1",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "91f5001fd4d47fb50430cb99056804b2a79650b5dd02cf0780f4ef8a9d142d8c",
        "549eab152ad812b2eaa7ba7fcc6479aff12bb3dd4272c46a1e541d36a2b3852e",
    ),
    "1-none-none-random-deterministic": (
        "f77dbe45d8ccc9e3109140b74daa3ec95a993148dd615457c383a2a3aadce281",
        "5c0c8e5f0c70b6eaa675c7c1acde3b0c1f1df5e6dd358015c334cd1df045c827",
    ),
    "1-none-none-random-deterministic-noisy": (
        "a10e957e751a3844a68f50af51d4b7435030112454ac23726144be643cdeb122",
        "e394169a29930d3b3e1cf3b0c59c77491fea3b92c2611cd097c973c6807caa92",
    ),
    "1-none-none-random-sampled": (
        "45a601317ea2f945bf3bda6a13a94de7c02e5ef4d3eec8da18e8be14ed86a6a5",
        "4977bd571396999afed08be5c1d549d13ceae42735dfb207575012ea40b69248",
    ),
    "1-none-none-random-sampled-noisy": (
        "938b670c47017edcd7e9a3d792055275d9d3f951383884297bb008eb4aaff84f",
        "bbf37efa572c6be380f75f990db1ceddd610423e3f26f150287b0b995e803666",
    ),
    "1-substitute-pattern-andmask-random-deterministic": (
        "dd8f3077af1b1c9762acda842b91c5681d2eebb36253e7e994cc4e671970d89a",
        "e4d82ba6bf9d205f08a73cd0f7a8e79144b73fd975818c3b3fa865c932b7e2f8",
    ),
    "1-substitute-pattern-andmask-random-deterministic-noisy": (
        "0ac75a73ba4f22d3beafe33f1065959a13609bd57e88046bb5ffca3461625d76",
        "f57d4d68509c14c30dd9ad14e1fe144e1aae329996afff886ca1f04ed0299212",
    ),
    "1-substitute-pattern-andmask-random-sampled": (
        "11ca696c471176188c71dabeacb516eafa013cfb43a86d3acc135bbbfc7ade11",
        "b1fac33cccd2064f2a4fdc42256e88f0f9d1bb4d53a5adff6898a4ea7817275e",
    ),
    "1-substitute-pattern-andmask-random-sampled-noisy": (
        "41887054dd3e18c61487bdf9d6250a7ee3be561b61ec0849d2926608f633334b",
        "09238e571eb3c8d971a2a588f7efdca6af9079e1d672f0d9ccad7bfb9af94e85",
    ),
    "1-substitute-pattern-none-random-deterministic": (
        "6542a82bf8c37e16636c2ac9129b5bbb0f197cd1ea0066f13c22efc4060613c4",
        "3e458356120b1517d78650d9fbc04e9b9caf63260402f491693f604206f322ff",
    ),
    "1-substitute-pattern-none-random-deterministic-noisy": (
        "3f4236860e67b0f593cddad939aaf0465bc8d89a0c40c4424972cd90de23e5f2",
        "93b41ad331def46e838d01450258dc6b9abe86d97c69ccd8004643f22ad4dcaa",
    ),
    "1-substitute-pattern-none-random-sampled": (
        "60424d824b89c6bb7e599797a0cd438dbee88b6ea7bc80f8b5643fb1e4a2fce5",
        "cbfaccc5123b0003ae8e8ba39bed389d516a972669940466792c1430368e6bc7",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "3d7ea82fc0580131d051e6a24f6090c964ca4079975d8c4b88fe6b9f8340a0b9",
        "4f06b07d9102be043584191823b702dab5cdac201b741dfedb1d66c89a25b2ac",
    ),
    "2-frame-header-andmask-random-deterministic": (
        "47e6b2dc43be180d369f09fa255c74a62a7f1643db09ab1b3f9087e9e994ddc7",
        "8036a7cd480634fef525b743bf72594826b34b04699bd5b4c19c7997d3353f0d",
    ),
    "2-frame-header-andmask-random-deterministic-noisy": (
        "9b8a3d84a54985ba00a3fc445d306aa7b6033704782312e0da5c0d3ae4dc8efc",
        "33404f738b83374666932ac4946495580464ba394118185b8d32732caefc4a5c",
    ),
    "2-frame-header-andmask-random-sampled": (
        "8ee67c4f73467c5bcad66fff2ea384fedab7daccc4f3c2ca1473f2afb3628f50",
        "bf20dd9726a6adf608382a679b519c58a9ca04177d68083a32844155ec6d2599",
    ),
    "2-frame-header-andmask-random-sampled-noisy": (
        "3815c8927341af8105f19cb3d1004b78cbf906b6e9a58a7b2a5e727852e35054",
        "363db40bf7b2967abf5a9bdb8f824a7cc807b8dec517776e3c8f792520f0f971",
    ),
    "2-frame-header-none-random-deterministic": (
        "7e9ed8f44dc693aa447e87707b5ad39448332577f4fce16437984425e3349ec8",
        "a8ae0976fdf8757bf5495f5a714d5d7a36966342af95d056c193e646bb30a8f8",
    ),
    "2-frame-header-none-random-deterministic-noisy": (
        "27e56d7bfcd957a884bfc4c3358d1f6177ef70e5c4bbc31bb50eb20f310259fd",
        "11b8f7d46e7b7006aae0e0a5523c21d8a0a75cbd1f7af6d4db631b583ac9de29",
    ),
    "2-frame-header-none-random-sampled": (
        "a8955d09e75c0ba1bf79bb2b7dd86fafab2f52a89c831d1d0d94b5f5fb6e09f7",
        "8439e10d74dc5ddcb1639676cd5314102ae91e7ee9a3b859d65e70c51cd6d0bc",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "b1dbfb0a8442077a30f5ee926cfe6aaad41aed2121f95939095e5ef9872f719a",
        "08c6eaf8efa0f418b8a046ab2f7ba55b6955e7b41bce986edcbcd7392bddc678",
    ),
    "2-none-andmask-random-deterministic": (
        "7cc50c1f9934ac24febe8513ec79b80bf1c2631db552cd1f89a3210b209e90ab",
        "dff906b828c9c908c3f30487d4b17c47de7f5d186c24322c2e01220e615c66cd",
    ),
    "2-none-andmask-random-deterministic-noisy": (
        "27e48f2bb89565b9245606046c411d6c23f8e0aec3750a6de4a89959baf8faf5",
        "d4171039ff1f7aa7a18e93e33043647e972960565b26d5e4ac9cc5569661f2c7",
    ),
    "2-none-andmask-random-sampled": (
        "ceb10ed665cf1c3c4ccd1d27741d8d31557fd6b595429a9cbd952ad052b6946b",
        "7c2d89ae8acb3b59f3076a3407bb449436f79fce17f12609d305223d81c8a0f0",
    ),
    "2-none-andmask-random-sampled-noisy": (
        "54508df6e2371fc010fed74b5c7859161c9214d8148da5426d7ccfe7e4c31ae2",
        "1b4d71a9762c50fd06325fd1808a31682ce3ab95d1c81a8c818ebc318bcc443b",
    ),
    "2-none-none-random-deterministic": (
        "8066e89b7e0118f6b8c449ae31ed9a34503b921563b5da8e7a2f3ecba8f75cfc",
        "2bd130f61128e097b3c984bdf2bb7c6d0e1b7538168e40d84adf940dbdc328d2",
    ),
    "2-none-none-random-deterministic-noisy": (
        "8f81622085b3503c97f08dc8e3b8c4b1e3827bcb3cd00b8192c5744afeeb1755",
        "02ca7f23a82bc9b0b38f5fbe5826ca8d59ea208ac574dfaafd11c6f821eae004",
    ),
    "2-none-none-random-sampled": (
        "48aacfe3c2388696d69209bbe788f5ceeeabbdbb9975bfbf86f533ca3afcb7ab",
        "eed0d95752fa0728430d4f0709597abd33c1b6d3dd7145fb49ed60c1ccbb61c4",
    ),
    "2-none-none-random-sampled-noisy": (
        "8b84899afd529b46ae3bc8d543960738a698782decd6ee66b01881bdcc707a08",
        "5262f5bae629a862b8007d40dde30427b0a02446000f8945f4a7c57746c30ba6",
    ),
    "2-substitute-pattern-andmask-random-deterministic": (
        "48336f0ffa7967cc7ffbcba2b6ee2db28bf73dae878d51535a5459cfc350d4bc",
        "6b20701a9183c6c26246e693cdf50c6e3d255b80dfbc6fcdc2717d122abfe711",
    ),
    "2-substitute-pattern-andmask-random-deterministic-noisy": (
        "b85c7c3afae1b619f73651b1bb7034ab8be5188ce0a9334b362366a76859d595",
        "386ea41a566b3554a8f247e2b1c90eb75373b4c2569a7fd66909a06b08c31176",
    ),
    "2-substitute-pattern-andmask-random-sampled": (
        "bc906130e6be7005098db949daaf0e526ea42b8ab3a80b052f5de84a39d15098",
        "939c735c63107afe2f2eff8b33ddc6bbe42d42224eb98bb4a25b8665dbaac5fd",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "22b4b3fbc004e4c8243d1a69f6e57f7b6e99c8c279f151db33fb1b41d12a4fa2",
        "8c81ad753e21756eb338d374090dabebb78c1943629bf9d8cefc76a1ff2dbfb5",
    ),
    "2-substitute-pattern-none-random-deterministic": (
        "ab6113f10a3621b218bda7ead7b94efa6dbc221d34e26b0075af6f64bd2b15e2",
        "b1560f944c9e56a559b7f203f003170c21d703ea56900059f2b3ad688c7598fd",
    ),
    "2-substitute-pattern-none-random-deterministic-noisy": (
        "bfeac882264026353db488c8c7a7833cb456d67adc76ff675830969be5cc9126",
        "d4a3ad34cab5aa0ecdabacc8ac9d86d8dd12d9a21a288cd5e0e4485ad4fdb9ca",
    ),
    "2-substitute-pattern-none-random-sampled": (
        "033875568e6b33073b46562c60747d85a60e6da362b546bbbccd32a30577bedc",
        "570c34f6e98e8e736764a664324e0bb25298851e7099f1d81daa366c4b253149",
    ),
    "2-substitute-pattern-none-random-sampled-noisy": (
        "ef6fcd5e02db544fe4b28a38a6ffca0c1e7c16eebd8049d592ba2aca98f463bb",
        "c1532131b54bd273f1b504ea350ce5ad2b4ad38a26afde1a0d5dba3797aee292",
    ),
}

GOLDEN_SWEEPS = {
    "clean": "34aeaf709a5620b4c2dd424cbb785ce0f08b29176d65bdd8abc3a72d3cae9d5c",
    "noisy": "2b588a46538a7dbcb8c93c60b19e8e9cfc057df92c04c3bbc4805b4a68a3cd09",
}

GOLDEN_LONG_RUN = (
    "bcdd2cb6529380bc32d0649650a50afd9f538b0eb91b1184cb131c0dfb21fc08",
    "d6e74f1cfce848214e706eea4510fef015ef04e77e4f87672f1bef360ab95ac4",
)

GOLDEN_WIDE_RUN = (
    "f6cd4668a186ef28352c37d104db359c4841590045f7d27be078e9c6da239915",
    "004e95079f345c880bb88973716fe73b248042bdcc2928068313dfbcfea9a744",
)

GOLDEN_TAIL_RUNS = {
    "none": (
        "0c64e3867ab0840f4eced215ce01b4dd69c3036494d0d73deae1309da289336a",
        "b3246f0e5206430ef18668ad9b51d05db396cddda8ea5ee2a305763d84739525",
    ),
    "substitute-pattern": (
        "c1bc9416257065d98277d096a016d0fa3c159d10ae4a51f56beefe70ffbbdf57",
        "c55fceef936173349f9a4a2151273d48268bd21f3de6118dbdb7c3ac6bb303db",
    ),
    "frame-header": (
        "27a6c16c26dc65ad987fabce3a81d0940203d2408fa197fd462cc6c1731c5021",
        "cbd5c329dfc83ec0eba47c86a5e02e8ba53b6aac64409fa33f475f32b57d8b59",
    ),
}

GOLDEN_LONG_SWEEP = "00c263e8d05eeaaa3993495c92ee535bd4ef9108c838667f29813fa579863604"

# rate ratio and recoveries, mask off then on, per decoy strategy
GOLDEN_COMPARE = {
    "none": "8e137161586a18cebaaafd17518c4c9c93ad732dc807410639f9a8d899f1cde6",
    "substitute-pattern": "d6d1006dfc68f5a62a94d4627259cacb6935c79b994084deade3bca2afa097cd",
    "frame-header": "b9e67106e59547eafddb1829ada5d74478dfcbf9fce5207d5a6c8b2082790e22",
}

GOLDEN_TABLE1 = "f3f943e6026c22d2782dec4b7eb9acddcc0215aa42acf663ac7f1eaab33d15b0"

# command -> (exit code, sha256 of stdout and of each file written)
GOLDEN_CLI = {
    "run": (0, {
        "stdout": "6ebbaa0c82ce5f840ddb31a1db7fa438900d0695f0f7b07c59938c15e9d5f632",
        "stats.log": "6ebbaa0c82ce5f840ddb31a1db7fa438900d0695f0f7b07c59938c15e9d5f632",
        "transcript.log": "ef4c373c4f911106d1f01c883a189b18fb1fffb70436f44dc3e831c25cb5e21d",
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
        "stdout": "fb0912e764b72a3b7bd0468d79ae37bdf6bb9c5b704e300d6bc3ae31e885c301",
        "compare_attack.log": "fb0912e764b72a3b7bd0468d79ae37bdf6bb9c5b704e300d6bc3ae31e885c301",
    }),
    "selftest": (0, {
        "stdout": "25ca432d3b224e68ea1527baa9c621c26e840981bb845d76394657fd654e3da5",
    }),
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_digests(name):
    assert run_digests(GRID[name]) == GOLDEN_RUNS[name]


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
}


@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_replayed_digests(name):
    config, digest = REPLAY_RUNS[name]
    # a transcript read back from its own text writes the recorded text again
    _, transcript, _ = run(config)
    replay = Transcript.from_jsonl(transcript.to_jsonl())
    assert _sha(replay.to_jsonl()) == digest
    messages = replay.messages
    assert messages["CoherenceCheck"]["boundaries"] is messages["MonitorReport"]["boundaries"]
    # every integer list came back as an array, so no line fell back to json.loads
    lists = [v for payload in messages.values() for v in payload.values() if not isinstance(v, str)]
    assert all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in lists)


@pytest.mark.parametrize("name", [*sorted(GRID), "wide"])
def test_payload_arrays_unsigned(name):
    config = WIDE_RUN if name == "wide" else GRID[name]
    _, transcript, _ = run(config)
    payloads = transcript.messages.values()
    arrays = [v for payload in payloads for v in payload.values() if isinstance(v, np.ndarray)]
    # every payload value but the verdict, shared arrays once per message
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
    assert messages["CoherenceCheck"]["boundaries"] is messages["MonitorReport"]["boundaries"]


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
