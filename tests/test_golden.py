"""Golden-output gate: byte-identical transcripts, stats, sweep rows and Table 1.

Each digest is the SHA-256 of the exact text a run produces.  A refactor
must keep every digest; a change that means to alter the output says so and
records the new digests.

Grid: seeds {1, 2} x 3 decoy strategies x attack {none, andmask} x eve_mode
{random, alternating} x detection_mode {sampled, deterministic} at
n_bits=2000.  Half of it, chosen so every level of every factor appears in
both halves, adds dark counts (p_dark_data=p_dark_mon=1e-3) and
visibility 0.98.

Those runs are shorter than one of Bob's draw blocks, so one noisy
substitute-pattern AND-mask run and one noisy sweep at n_bits=100_000 also
carry digests; their trains span several blocks.
"""

import hashlib
import itertools

import pytest

from cowsim import Attack, DecoyStrategy, DetectionMode, MaskMode, SimConfig, run, sweep_mu
from cowsim.bob import _DRAW_BLOCK
from cowsim.engine import table1_rows

FACTORS = (
    (1, 2),
    tuple(DecoyStrategy),
    tuple(Attack),
    tuple(MaskMode),
    tuple(DetectionMode),
)
NOISE = dict(p_dark_data=1e-3, p_dark_mon=1e-3, visibility=0.98)


def _grid():
    for levels in itertools.product(*(range(len(f)) for f in FACTORS)):
        seed, strategy, attack, eve_mode, mode = (f[i] for f, i in zip(FACTORS, levels))
        noisy = sum(levels) % 2 == 1
        config = SimConfig(
            n_bits=2000,
            seed=seed,
            decoy_strategy=strategy,
            attack=attack,
            eve_mode=eve_mode,
            detection_mode=mode,
            **(NOISE if noisy else {}),
        )
        name = "-".join(
            [str(seed), strategy.value, attack.value, eve_mode.value, mode.value]
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
    "1-frame-header-andmask-alternating-deterministic-noisy": (
        "7dab7a5c4850218bc95e667aa0a78067b85feaca19816892baaf05b8855d841e",
        "3e455200f049713bf03fe1a82b20bea9f0324d003f6078b9095d1e4964b53309",
    ),
    "1-frame-header-andmask-alternating-sampled": (
        "7a72e9237dca3617e53eb803e95815df6ddd209eed583d65ed980c5b92664154",
        "3686958f992ab0610fcc8b0282fb5d18e98a5ebeb2fe9e320f0bebcd4c0fe94a",
    ),
    "1-frame-header-andmask-random-deterministic": (
        "60f7517a517227385c3c91170c8a2276b1d25d0a6755d3751d5e72ddda1ecb88",
        "7ac1c022ca90b6308b41d69c14ce2268249c74fdacea8cf90b7a008f522a3d16",
    ),
    "1-frame-header-andmask-random-sampled-noisy": (
        "15511db642ad95bfcd13074759138dc2356366286ffca1d941d5b120c6bedf92",
        "f7867d5df5beee92e91ab013367b48fcd775c286e0c301cd493ac428d869f39a",
    ),
    "1-frame-header-none-alternating-deterministic": (
        "1141125194e05b05c639d3ce068107818b2762c5943d0b73f7a3cf37e81d121d",
        "308007ba2bae3b39289215eedf8bfb867c7b2daa98387b8715d452af63be9718",
    ),
    "1-frame-header-none-alternating-sampled-noisy": (
        "3daf601e45e96c62fcef0beb557afd5a732a1bd3516e93fc6b87e9813ea78a12",
        "6f03e28ebf2113b59035ae4235a02b79b6071c802ea4a44ebec3e4030882518b",
    ),
    "1-frame-header-none-random-deterministic-noisy": (
        "bee5fed89a0eeaf4541954a5a832e0245e66218239e43a4c78844fe92aeb9ad1",
        "f848d5a40b945e5ceb59856e169a624a9ad28b32212122f1087ad716230c85ef",
    ),
    "1-frame-header-none-random-sampled": (
        "bdd901090f3ea9a62279f5bfc9625c5424ec08b34dcfd384005a83c05d57c0ad",
        "e7abe5136d07568d009b6e7b18cd7f9f0f76f9a3860a20bbe35816306ea8db85",
    ),
    "1-none-andmask-alternating-deterministic-noisy": (
        "9b0770b6551d4523d8535651cefb0951588c7ea9f7da4383b38322a05197b764",
        "6ecb3785dac8ee91b52b17803381652b06694a2db4a47fa59cc39639e24a9902",
    ),
    "1-none-andmask-alternating-sampled": (
        "edc5b62a21eae54820d08e6256b9ef4d711af0a3d7a2d763e9cb1eb0a8fcd89c",
        "deffb484e98584608f72e98b7c8d8fba80ad4e9e16a3159b6586ab39fc8149b1",
    ),
    "1-none-andmask-random-deterministic": (
        "07a2940368f32405cc4e57fdd7616ff242f0868de91d22c6d641929764737e3f",
        "6b0f69466ba99c6068200c83e36e387c9114544c417e2ad3d76049b8e52b340e",
    ),
    "1-none-andmask-random-sampled-noisy": (
        "bacb11d91330a555f2b44cb3c11aa8ea967fd0bea188a8b94a8e93abedab8592",
        "6b2d36679950ecd79668023e1f5969c12fa3e4ada912d24b62768a34a7b17f6e",
    ),
    "1-none-none-alternating-deterministic": (
        "f77dbe45d8ccc9e3109140b74daa3ec95a993148dd615457c383a2a3aadce281",
        "036ae1c31388071fba159a787116cc0b54693bd8cf21c0f9e864251a5ed72c75",
    ),
    "1-none-none-alternating-sampled-noisy": (
        "722e81fea06ec87c4edd61ef1453a0c3409e568509ce862a90778cd6ed35c9b5",
        "779ed5d2d03cc18e0158b8ffb0e871b9ac3757f9c96fb9444da25b2c7d99de1e",
    ),
    "1-none-none-random-deterministic-noisy": (
        "f84396b206d5a4100d559c25897be8b1343f0f8d704149833adb497056b4545b",
        "ff86d6da34beda3211d8557e57fec558b2c1b3a9c1df177cf331ff04855008c2",
    ),
    "1-none-none-random-sampled": (
        "52bcbf5fbf7b788860dbc430df594b4c9ffe058ded8f0a9ca96de2753613388e",
        "09ad3a8e3cffc24619af2e3305a3097e47c4e5e8796dce395d35a02ed449d0f9",
    ),
    "1-substitute-pattern-andmask-alternating-deterministic": (
        "242f8494878214717b35879c6e32f1926256d06591cb19afb36bfd8ec9a7a2b4",
        "f891dd4b1a98778a952c6591bbba095a47a02ad31e6e4577fcb262a91142abb1",
    ),
    "1-substitute-pattern-andmask-alternating-sampled-noisy": (
        "4254afb8bf23030eb28048e123fffd6cf6d2395a111e49294b9d93c74988641d",
        "f61cc061852f6fb72a793d5c6149c80d2a320554f9fde72f391f2ef274d90fd9",
    ),
    "1-substitute-pattern-andmask-random-deterministic-noisy": (
        "2e8f875ede7cb946c784bfa5059d355dc4d0f884f1ad5e14b6a0f6a694fd55d3",
        "3bf468643a7f3de01bb81aa16b6c7f3af43c5e9291f76f3586341b45a2955d76",
    ),
    "1-substitute-pattern-andmask-random-sampled": (
        "c6d56546dc09264ff44c2703c14e5098b7dc7800011b2fe90b3dad39c9525716",
        "e04ba943723359d2e9c1a9f8484085cb7a74086af45bd9fbc48fd3516600f96b",
    ),
    "1-substitute-pattern-none-alternating-deterministic-noisy": (
        "0cc188b1bade8b1ce6ad17201d810d29011037ad01e0677065b37a90df195f34",
        "46720ee02db627ac8dd0391bc834b9b1ec082dbe63470baebead1be2c7982742",
    ),
    "1-substitute-pattern-none-alternating-sampled": (
        "d2d2e70706778ce0bd63096b05c6c1bb57b580938614df3d2bc4bcd3eca1347d",
        "0ffebcb6ed5711791648c808ad7b591eae8a27f6e1d94f3da49eb18c76c527e1",
    ),
    "1-substitute-pattern-none-random-deterministic": (
        "6542a82bf8c37e16636c2ac9129b5bbb0f197cd1ea0066f13c22efc4060613c4",
        "3e458356120b1517d78650d9fbc04e9b9caf63260402f491693f604206f322ff",
    ),
    "1-substitute-pattern-none-random-sampled-noisy": (
        "cdc7b0c4723726bdbc1fc1798c01a7f8135c8a99fb52901bb028e0711f35277a",
        "c405532c29741c8cc13c63d0fd393cca8742ff6d01324ba4219163b54d8e489b",
    ),
    "2-frame-header-andmask-alternating-deterministic": (
        "d60eb5cefeca4878fba490156d0bb0f32ae26c3832709c3c1c455c8edccdf896",
        "4f2d6fd30afdf556fa12288a0e2834807f9665a84b14783d8500457228560f54",
    ),
    "2-frame-header-andmask-alternating-sampled-noisy": (
        "70f480f3ff352b095b31726302f74665b43df0861018b34da82584394c8dd48b",
        "6da4126ad219a216e05645f2396a2cf1d50ece5b15e314a3d43b2e1b8a260f86",
    ),
    "2-frame-header-andmask-random-deterministic-noisy": (
        "47befc80ddd73c857cc90f7d194c1d0b04719d6b4e9d27f50034540b3f3cd3af",
        "b60bda1e5a89c1ccc06160ee8a41799c43917fd4504f929f95bc569b4abca6be",
    ),
    "2-frame-header-andmask-random-sampled": (
        "abb7533f32baf32a7d92e81b34ed668902a9432a8e8aa7bb6ab7bdccbf6bff6a",
        "919c099ab2173f6cd0abc88c005213c0cb8e4a0def2b256d07f03e485aea7614",
    ),
    "2-frame-header-none-alternating-deterministic-noisy": (
        "0f4439d602ec053472a29df3e2063f242d6e3dd1b7f417e8dfbcaed030e29335",
        "7dbb87e830df981c7e046ae24e6f84afb06adff39629661569b3423542cb6026",
    ),
    "2-frame-header-none-alternating-sampled": (
        "10017ab5cc5d1b2be9bc6f67efbabe9a249ffb066a193e612f2b63475e819465",
        "054a8dce747ba14ab5e3a7f15da494058d4df332ce5f5903ff982abc5aea1627",
    ),
    "2-frame-header-none-random-deterministic": (
        "7e9ed8f44dc693aa447e87707b5ad39448332577f4fce16437984425e3349ec8",
        "a8ae0976fdf8757bf5495f5a714d5d7a36966342af95d056c193e646bb30a8f8",
    ),
    "2-frame-header-none-random-sampled-noisy": (
        "5b929820a839ac3f3d703bcc86ee10c100b4d2aab80af149012bf7a07062f223",
        "567c1e67e9e16ceefcdb2d77fe49d65d6be35d81b54d31716e80e6cce23ac422",
    ),
    "2-none-andmask-alternating-deterministic": (
        "60041857d314a7f5ab9f593fdeccd41740d7e8036701092ed6d6816cb69dc94a",
        "6059191811336dec9d762e561031b9bbe6665ab0e427e4041b2a5ae907ac22d7",
    ),
    "2-none-andmask-alternating-sampled-noisy": (
        "f478eec08371f86f71b056b63917ae3c53f566e1e25115b2963a269a07085bc7",
        "3c1c2cad4c28b8e4baa36f53869a63cf8b581f881b4507b8687b28c037bbdba8",
    ),
    "2-none-andmask-random-deterministic-noisy": (
        "a8a70364b3f6662754274ab193b2059392e186b29e59bf00d82dd38499dd2c68",
        "336e8097ae3a4d971bd3ed2dc531a141163a27c0d8f204d26da321e6cc68ab2e",
    ),
    "2-none-andmask-random-sampled": (
        "d55b2aaa4566f405959489b6b633da4516c753d5355b327ecb35319ecda6d353",
        "7d609e6245f6ecd510c82ab07dc6392900de3415c02cb78858219ba0f140c726",
    ),
    "2-none-none-alternating-deterministic-noisy": (
        "c78b06cc31663f111c0ba271f455cf3d24eda3a0ceb89caad768dfa7fd385014",
        "4d4e49e9044c3159c8b732e39ddc6c0a1c40e0886b522607b5e354e924f43b32",
    ),
    "2-none-none-alternating-sampled": (
        "8f43955161f6286ac9f5c81805805d3916aff9f0415254d5bab3f423aa64dc52",
        "94f019df6d2e50b134f7b3084d4b64820d457253c758b89b717aa70b50993d7e",
    ),
    "2-none-none-random-deterministic": (
        "8066e89b7e0118f6b8c449ae31ed9a34503b921563b5da8e7a2f3ecba8f75cfc",
        "2bd130f61128e097b3c984bdf2bb7c6d0e1b7538168e40d84adf940dbdc328d2",
    ),
    "2-none-none-random-sampled-noisy": (
        "a9fc5a2846d26cbfaa2143a6ca8ba005f7d6fbf8065b32ebd51a490d61e41e72",
        "21bcb840e46e55f8228719a7426b3f2384aabe6f79d590f635a02c340c0c2bd5",
    ),
    "2-substitute-pattern-andmask-alternating-deterministic-noisy": (
        "03cfb7d55525a0d95a8c2b69f978562370d4ae7ba03f40e9f1015f266fec6c15",
        "868944d996f52578de57566097e23f4c71b352504bee118666c5bef62e66a419",
    ),
    "2-substitute-pattern-andmask-alternating-sampled": (
        "54cde90d950abb1c0fcf10d39e59f6d337aacd6432431a8dd9368877798986aa",
        "e00fc120b288d8cf12689561c5f16b218fe22575a89d75ef84a58fd952ed1922",
    ),
    "2-substitute-pattern-andmask-random-deterministic": (
        "48336f0ffa7967cc7ffbcba2b6ee2db28bf73dae878d51535a5459cfc350d4bc",
        "6b20701a9183c6c26246e693cdf50c6e3d255b80dfbc6fcdc2717d122abfe711",
    ),
    "2-substitute-pattern-andmask-random-sampled-noisy": (
        "7ac0c0aa0c854704c6368b03384e13c4bde365ca2151ebd197a6598ec6d6a168",
        "24076b3c86664539dc4bea114bb4d42c88c4d2be230485c7fcc75a7c7b1eb779",
    ),
    "2-substitute-pattern-none-alternating-deterministic": (
        "ab6113f10a3621b218bda7ead7b94efa6dbc221d34e26b0075af6f64bd2b15e2",
        "f0e8b9f60e28e5e4e1ea159cb17fdde52fc0e2daf8f974adf54d101daff1b4de",
    ),
    "2-substitute-pattern-none-alternating-sampled-noisy": (
        "84e628a8b0f16f5ba0505c050962582fc615c4407bceea266c77107b9864fbae",
        "f21301e1960e7fccb7538ae048d9ae0a9f50c9a743b3877e2af58279bb704ac0",
    ),
    "2-substitute-pattern-none-random-deterministic-noisy": (
        "39a487113acaaaf33edc7ab901ce4b28e21a864d6b5d96089e12ca7369e62b8f",
        "671bba3d812844ddf452a880cc74b3bb917962fc239bbb0fe9762413182195a3",
    ),
    "2-substitute-pattern-none-random-sampled": (
        "16f0c1869d1212eee08c7e410217a79c5250c2440c8766f4693351a489099e03",
        "73b70db4ce2fc782ad4c0d1241c3d35d51cb6d2b11ddc2cfed4564940d78a3ae",
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
