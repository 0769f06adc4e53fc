"""Golden-output gate: byte-identical transcripts, stats, sweep rows and Table 1.

Each digest is the SHA-256 of the exact text a run produces.  A refactor
must keep every digest; a change that means to alter the output says so and
records the new digests.

Grid: seeds {1, 2} x 3 decoy strategies x attack {none, andmask} x
detection_mode {sampled, deterministic} at n_bits=2000, each run both clean
and noisy.  Noisy runs add dark counts (p_dark_data=p_dark_mon=1e-3) and
visibility 0.98.  Eve's mask is random in every run; names say "random".

One noisy substitute-pattern AND-mask run and one noisy sweep at
n_bits=100_000 also carry digests, so output that differs only on long
trains shows too.  Every grid size is a multiple of 8, so three noisy
sampled AND-mask runs at n_bits=2003, one per decoy strategy, pin the
last partial byte of Alice's raw bits and of Eve's mask.  One noisy
substitute-pattern AND-mask run at n_bits=600_000, whose checked boundaries
reach 1.2M, pins the transcript's seven-digit numbers.
"""

import hashlib
import itertools

import pytest

from cowsim import Attack, DecoyStrategy, DetectionMode, SimConfig, run, sweep_mu
from cowsim.engine import table1_rows

FACTORS = (
    (1, 2),
    tuple(DecoyStrategy),
    tuple(Attack),
    tuple(DetectionMode),
    (False, True),
)
NOISE = dict(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)


def _grid():
    for seed, strategy, attack, mode, noisy in itertools.product(*FACTORS):
        config = SimConfig(
            n_bits=2000,
            seed=seed,
            decoy_strategy=strategy,
            attack=attack,
            detection_mode=mode,
            **(NOISE if noisy else {}),
        )
        name = "-".join(
            [str(seed), strategy.value, attack.value, "random", mode.value]
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
    "deterministic": SimConfig(n_bits=2000, seed=3, detection_mode=DetectionMode.DETERMINISTIC),
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


def table1_digest():
    return _sha(repr(table1_rows()))


# (to_jsonl sha256, to_lines sha256) per grid point
GOLDEN_RUNS = {
    "1-frame-header-andmask-random-deterministic": (
        "60f7517a517227385c3c91170c8a2276b1d25d0a6755d3751d5e72ddda1ecb88",
        "7ac1c022ca90b6308b41d69c14ce2268249c74fdacea8cf90b7a008f522a3d16",
    ),
    "1-frame-header-andmask-random-deterministic-noisy": (
        "fc60b305f77c63fa61ad825644dd6710784054a454003f59f37ef4389f132f2a",
        "c91bf1088c230fe83e4a6f8712092a205787a428ca8d33ab684609f4647e0329",
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
        "bee5fed89a0eeaf4541954a5a832e0245e66218239e43a4c78844fe92aeb9ad1",
        "f848d5a40b945e5ceb59856e169a624a9ad28b32212122f1087ad716230c85ef",
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
        "d8dcc815d9dfa0bcb81b7b100dbf643eb6beb16b8dc3226785c4ca6b9b2b1cf3",
        "2dff82fdb1c1e0e2ff7f0ffc3877ec0de3c95ff4ec7f779a29e9b041d3790a91",
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
        "f84396b206d5a4100d559c25897be8b1343f0f8d704149833adb497056b4545b",
        "ff86d6da34beda3211d8557e57fec558b2c1b3a9c1df177cf331ff04855008c2",
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
        "2e8f875ede7cb946c784bfa5059d355dc4d0f884f1ad5e14b6a0f6a694fd55d3",
        "3bf468643a7f3de01bb81aa16b6c7f3af43c5e9291f76f3586341b45a2955d76",
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
        "0cc188b1bade8b1ce6ad17201d810d29011037ad01e0677065b37a90df195f34",
        "cae1571469dc7c00df0f24f841f828c8f622aae3f4e49666484853fc456a8ab8",
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
        "47befc80ddd73c857cc90f7d194c1d0b04719d6b4e9d27f50034540b3f3cd3af",
        "b60bda1e5a89c1ccc06160ee8a41799c43917fd4504f929f95bc569b4abca6be",
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
        "0f4439d602ec053472a29df3e2063f242d6e3dd1b7f417e8dfbcaed030e29335",
        "99f7d92b5b001cf8622df8a49c379c03fbafc13bfa6163633dc6c93dcefa4770",
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
        "a8a70364b3f6662754274ab193b2059392e186b29e59bf00d82dd38499dd2c68",
        "336e8097ae3a4d971bd3ed2dc531a141163a27c0d8f204d26da321e6cc68ab2e",
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
        "c78b06cc31663f111c0ba271f455cf3d24eda3a0ceb89caad768dfa7fd385014",
        "318a76680f3929babd5852b216392ebd8578a7fbf9da6ae8b36d068ab9d5fedc",
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
        "26630f3a9379ce61d6cc27fcc7bac30fda7ab09b3e4b024f8f04cbd74e8a932f",
        "24c3b900b44d326c6b5fd3e9f30f26555b7684ebec32ac565d22664044144ac0",
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
        "39a487113acaaaf33edc7ab901ce4b28e21a864d6b5d96089e12ca7369e62b8f",
        "671bba3d812844ddf452a880cc74b3bb917962fc239bbb0fe9762413182195a3",
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
    "deterministic": "623d5b22d1a48f0d4f67af4fcff44c890e9da8ccd46e5035af411e0de012f802",
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
        "1f3e51825cca0db6c63caca515ed0070f0d81e982dc0132b1db28ebd2223523e",
        "dd21b9af287eccd26f214bc871047b25a336bedf053eca55fd7fecb7ca639103",
    ),
    "frame-header": (
        "27a6c16c26dc65ad987fabce3a81d0940203d2408fa197fd462cc6c1731c5021",
        "cbd5c329dfc83ec0eba47c86a5e02e8ba53b6aac64409fa33f475f32b57d8b59",
    ),
}

GOLDEN_LONG_SWEEP = "00c263e8d05eeaaa3993495c92ee535bd4ef9108c838667f29813fa579863604"

GOLDEN_TABLE1 = "f3f943e6026c22d2782dec4b7eb9acddcc0215aa42acf663ac7f1eaab33d15b0"


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


def test_table1_digest():
    assert table1_digest() == GOLDEN_TABLE1


def test_grid_shape():
    assert len(GRID) == 48
    noisy = [c for c in GRID.values() if c.visibility == 0.98]
    assert len(noisy) == 24
    assert all(c.p_dark_data == c.p_dark_mon == 1e-3 for c in noisy)
