"""Golden-output gate: byte-identical transcripts, stats, sweep rows and Table 1.

Each digest is the SHA-256 of the exact text a run produces.  A refactor
must keep every digest; a change that means to alter the output says so and
records the new digests.

Grid: seeds {1, 2} x 3 decoy strategies x attack {none, andmask} x
detection_mode {sampled, deterministic} at n_bits=2000, each run both clean
and noisy.  Noisy runs add dark counts (p_dark_data=p_dark_mon=1e-3) and
visibility 0.98.  Eve's mask is random in every run; names say "random".

Those runs are shorter than one of Bob's draw blocks, so one noisy
substitute-pattern AND-mask run and one noisy sweep at n_bits=100_000 also
carry digests; their trains span several blocks.
"""

import hashlib
import itertools

import pytest

from cowsim import Attack, DecoyStrategy, DetectionMode, SimConfig, run, sweep_mu
from cowsim.bob import _DRAW_BLOCK
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


# trains of 2 * 100_000 bins and more, past several draw blocks
LONG_RUN = SimConfig(
    n_bits=100_000,
    seed=5,
    decoy_strategy=DecoyStrategy.SUBSTITUTE_PATTERN,
    attack=Attack.AND_MASK,
    **NOISE,
)
LONG_SWEEP = SimConfig(n_bits=100_000, seed=6, **NOISE)


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
        "69d15ba9eac54a99bc43c3d184df86abe9c71c6c106c43f14866bfe23eded48e",
        "70699125be324d6d61408681186686e75452b084e1c48c463c30ce73e1e237c4",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "15511db642ad95bfcd13074759138dc2356366286ffca1d941d5b120c6bedf92",
        "f7867d5df5beee92e91ab013367b48fcd775c286e0c301cd493ac428d869f39a",
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
        "bdd901090f3ea9a62279f5bfc9625c5424ec08b34dcfd384005a83c05d57c0ad",
        "e7abe5136d07568d009b6e7b18cd7f9f0f76f9a3860a20bbe35816306ea8db85",
    ),
    "1-frame-header-none-random-sampled-noisy": (
        "3daf601e45e96c62fcef0beb557afd5a732a1bd3516e93fc6b87e9813ea78a12",
        "8ff964442eda96d9f0bc1f7a4ae770476b77fd2955eac3bfadaefcbe57410599",
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
        "054330e4b18fb7470f877498d815e0a36b006e12608d215cea6971d756456cbb",
        "deffb484e98584608f72e98b7c8d8fba80ad4e9e16a3159b6586ab39fc8149b1",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "bacb11d91330a555f2b44cb3c11aa8ea967fd0bea188a8b94a8e93abedab8592",
        "6b2d36679950ecd79668023e1f5969c12fa3e4ada912d24b62768a34a7b17f6e",
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
        "52bcbf5fbf7b788860dbc430df594b4c9ffe058ded8f0a9ca96de2753613388e",
        "09ad3a8e3cffc24619af2e3305a3097e47c4e5e8796dce395d35a02ed449d0f9",
    ),
    "1-none-none-random-sampled-noisy": (
        "722e81fea06ec87c4edd61ef1453a0c3409e568509ce862a90778cd6ed35c9b5",
        "c6ccbc65e38ee0b14adc6cb5e2549670e0ff7becb78719236afdbbede31adcb1",
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
        "c6d56546dc09264ff44c2703c14e5098b7dc7800011b2fe90b3dad39c9525716",
        "e04ba943723359d2e9c1a9f8484085cb7a74086af45bd9fbc48fd3516600f96b",
    ),
    "1-substitute-pattern-andmask-random-sampled-noisy": (
        "4e1165e8eb9fbae668f2d06dcfead462a8da23b27839e8bfa124b711eabab6b9",
        "61056dec586957683ea7c0b57675f75bf405d690bd363935b71ee8d8cad099f0",
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
        "d2d2e70706778ce0bd63096b05c6c1bb57b580938614df3d2bc4bcd3eca1347d",
        "e896d443e0806e19541013ba6911ccdef9e4736913a42130e87e9e0123265a6c",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "cdc7b0c4723726bdbc1fc1798c01a7f8135c8a99fb52901bb028e0711f35277a",
        "c405532c29741c8cc13c63d0fd393cca8742ff6d01324ba4219163b54d8e489b",
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
        "abb7533f32baf32a7d92e81b34ed668902a9432a8e8aa7bb6ab7bdccbf6bff6a",
        "919c099ab2173f6cd0abc88c005213c0cb8e4a0def2b256d07f03e485aea7614",
    ),
    "2-frame-header-andmask-random-sampled-noisy": (
        "b81a7a7400dbd3beeef06a0a79dadb23960c2d0abd4da39164b106fb6b138540",
        "fe293359d46e0fef5549d575c0cda73133ff4797602534497cfccc539f086a47",
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
        "10017ab5cc5d1b2be9bc6f67efbabe9a249ffb066a193e612f2b63475e819465",
        "a0243c805e19da9133049e81925b145faeabeb82e18711e774cabc3b3658d8f0",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "5b929820a839ac3f3d703bcc86ee10c100b4d2aab80af149012bf7a07062f223",
        "567c1e67e9e16ceefcdb2d77fe49d65d6be35d81b54d31716e80e6cce23ac422",
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
        "d55b2aaa4566f405959489b6b633da4516c753d5355b327ecb35319ecda6d353",
        "7d609e6245f6ecd510c82ab07dc6392900de3415c02cb78858219ba0f140c726",
    ),
    "2-none-andmask-random-sampled-noisy": (
        "8ef236a7596caccf8205f9818a47ec141c8814184c4161650eb23dab7b8c7b0e",
        "cfa21b9811854953c90bba63d1c0f0d09445ab8c78f131668ab96b182e0b18f0",
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
        "8f43955161f6286ac9f5c81805805d3916aff9f0415254d5bab3f423aa64dc52",
        "06eba3d19596ad5c9ef7ff56c573f1caf2b343f8c4b3cf6294305901a7193677",
    ),
    "2-none-none-random-sampled-noisy": (
        "a9fc5a2846d26cbfaa2143a6ca8ba005f7d6fbf8065b32ebd51a490d61e41e72",
        "21bcb840e46e55f8228719a7426b3f2384aabe6f79d590f635a02c340c0c2bd5",
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
        "d242fefc6025e42eada0ae46341f435d3532077f0de686a083767843cd6fc638",
        "823cf664f42f661cc77ae50952b4764668a5f0807a10916de3f4600fedc39a60",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "7ac0c0aa0c854704c6368b03384e13c4bde365ca2151ebd197a6598ec6d6a168",
        "24076b3c86664539dc4bea114bb4d42c88c4d2be230485c7fcc75a7c7b1eb779",
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
        "16f0c1869d1212eee08c7e410217a79c5250c2440c8766f4693351a489099e03",
        "73b70db4ce2fc782ad4c0d1241c3d35d51cb6d2b11ddc2cfed4564940d78a3ae",
    ),
    "2-substitute-pattern-none-random-sampled-noisy": (
        "84e628a8b0f16f5ba0505c050962582fc615c4407bceea266c77107b9864fbae",
        "7f99272693e2987649b4bd9cbb0f5247078aad21220ae9f3282717ec53159863",
    ),
}

GOLDEN_SWEEPS = {
    "clean": "c28e6daa2bbd0e88400d406f466b41e7f1bbba0d4959beaad2b3fcdea832c4cd",
    "deterministic": "623d5b22d1a48f0d4f67af4fcff44c890e9da8ccd46e5035af411e0de012f802",
    "noisy": "6de26b1aec568d8db23c3491fc1e31225f08ae3648ddb47d9911ba81ff491073",
}

GOLDEN_LONG_RUN = (
    "ff17fd3e1e6685cac6087cddc7e6a7d677028c9f2903d435cdafeaa95e4e08d0",
    "6007568df31172dc9c2bf2b4b80abd3264976e5b7f1241b171951350034adfd6",
)

GOLDEN_LONG_SWEEP = "c44f9c499ae8c2dc69c4e3a13ac5d93ce208fa76789ca6efa659705b8163caed"

GOLDEN_TABLE1 = "f3f943e6026c22d2782dec4b7eb9acddcc0215aa42acf663ac7f1eaab33d15b0"


@pytest.mark.parametrize("name", sorted(GRID))
def test_run_digests(name):
    assert run_digests(GRID[name]) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_sweep_digests(name):
    assert sweep_digest(SWEEP_CONFIGS[name]) == GOLDEN_SWEEPS[name]


def test_long_run_digests():
    assert 2 * LONG_RUN.n_bits > 3 * _DRAW_BLOCK
    assert run_digests(LONG_RUN) == GOLDEN_LONG_RUN


def test_long_sweep_digest():
    assert 2 * LONG_SWEEP.n_bits > 3 * _DRAW_BLOCK
    assert sweep_digest(LONG_SWEEP) == GOLDEN_LONG_SWEEP


def test_table1_digest():
    assert table1_digest() == GOLDEN_TABLE1


def test_grid_shape():
    assert len(GRID) == 48
    noisy = [c for c in GRID.values() if c.visibility == 0.98]
    assert len(noisy) == 24
    assert all(c.p_dark_data == c.p_dark_mon == 1e-3 for c in noisy)
