"""Byte-level regression pins: SHA-256 of every catalogue on two to five
players and of the exact-conjecture catalogue on six, in JSON and text,
of every ``enumerate --players 4`` output, of the ``enumerate
--players 5`` outputs on the full carrier, of the system listings on the
5-player carriers of six players, of the 6-player type listing
and system listings in JSON and text, of the 6-player balanced and
totally-balanced catalogues, and of ``check --certificate`` on seeded
games in every cone.  The exact-conjecture catalogues on five and six players classify
systems on proper carriers.
A change that keeps the mathematics keeps every byte; one that means to
change an output updates its digest here."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from minbal import cli
from minbal.catalogue import generate, serialize
from minbal.cli import main
from minbal.games import Game, game_to_json, letters, random_game

#: (players, cone, format) -> SHA-256 of ``serialize(generate(...), format)``
CATALOGUE_DIGESTS = {
    (2, "balanced", "json"): "3b3dc99d016496cab3a658067c49c7b0b4cf9ab8ca3885743ce8b91b5684242b",
    (2, "balanced", "text"): "73b18fe2abcdcf93d6e5d334208b5bc2501983b66d380b947505419fe833a435",
    (2, "totally-balanced", "json"): "36f1a5a02703d93f1fe1612653cb048503e41ee5cd0d817d64f4e8d7b726ddc8",
    (2, "totally-balanced", "text"): "c7aa5c9d9cf296c1992a2a9140de491004c8fa0c4e0391fda72b3f8e362d39ea",
    (3, "balanced", "json"): "9cffa796ff838073bf4acd7b2956e0cb6a56f319da84994a6b669f60b484162b",
    (3, "balanced", "text"): "a21dd04f6c538b4a6ac7f5893eb0f29da41ba6ba42c11607fdd54b861102393a",
    (3, "totally-balanced", "json"): "9dc89d14502e343d9f8036a0c10916da9baa79fdc9a2ac96d2752a7b56cf5829",
    (3, "totally-balanced", "text"): "8e20b8c94796ddbceb12b2a890c7bbb33024a8faf857604090f737f97b1991c0",
    (3, "exact-conjecture", "json"): "66ad5aa2ddc29110df9e49537ff704820bebfb8abfe1f2e56514cfcd380d17e4",
    (3, "exact-conjecture", "text"): "fa21bcfcad88997fd49ec1b7c608c276afe68007bb0dd0c2e79d7065c48119f4",
    (4, "balanced", "json"): "19c9a9bb3ebae2eee908c0114cac6284e2e124520869a08fe9a554f397692e13",
    (4, "balanced", "text"): "1f90e168454091149e98a89c02609b95f1da04b6bf11efa37f25a9c0b6d77652",
    (4, "totally-balanced", "json"): "4b2ac11e5e28a71ce042ea0c10d744f4cebf6aa942df27cba877bf873ea6b732",
    (4, "totally-balanced", "text"): "777a42f1fed745a434f11c4a7e8046912b804833194acd3ccbb8599a4ea50d70",
    (4, "exact-conjecture", "json"): "c9cc2014d5c44f9a9b174ccb97323b85d637a01e14a23b53c2b62378fc037618",
    (4, "exact-conjecture", "text"): "983901160c178e705ec0896f6d9b3adef93ebf63203de44a90284e123f3681a1",
    (5, "balanced", "json"): "90f5f4624751bcc46206d75983400cdc811098269436696980ee7dda04f5fd0a",
    (5, "balanced", "text"): "922a7161fe73df047c4c8dc3d70702994849f6a0f5ecda782761acb10fdfd4b1",
    (5, "totally-balanced", "json"): "2ee28bd184b6c8783aa3df2c5c544493881dd7e0e66a26961c689ca74c0b2681",
    (5, "totally-balanced", "text"): "20ea61b24ac6a1b3b5daab121e67db59f6fd2897e0e18a4b2f11e5b6b8996ba9",
    (5, "exact-conjecture", "json"): "0b5ab8ed4292f3f2ade26ba62f65961491109a971b66a593e40717ca33015edc",
    (5, "exact-conjecture", "text"): "7729b6b6a543de0132fd6290c7cd379da6ec2a9700f079728a0a9090df4cbc31",
    (6, "exact-conjecture", "json"): "d1d6d9bfab55b3c9fa09607709ba31fe52544df413bed475e91b8a4fedff48cd",
    (6, "exact-conjecture", "text"): "49bdd6cdd6e21e732cfb115808cd0fdc41540e26b67a0af84cf085a69e03595f",
}

#: format -> SHA-256 of the 6-player ``totally-balanced`` catalogue
#: (38,178,604 bytes of JSON).  It takes about 3 s to generate, so CI
#: checks it through the installed ``minbal`` command instead of tier-1.
TOTALLY_BALANCED_6_DIGESTS = {
    "json": "227c5b8e7f8472f69ac7f9fc41efbae832fd21928fc2c5def96b69444adcb72a",
    "text": "de619a2655d60e134c4459f55e6249b1e627e3879a4599cbc4acfdacff49a183",
}

#: format -> SHA-256 of the 6-player ``balanced`` catalogue (208,916,244
#: bytes of JSON, 100,167 of text), the one output that writes all 582
#: complement links.  It takes about 7 s to generate, so CI checks it
#: through the installed ``minbal`` command instead of tier-1.
BALANCED_6_DIGESTS = {
    "json": "d2591a4da2ceb1fddd45f98b226d8b9d173873af307773444a1640f38d65e651",
    "text": "92e9bf4533852bff137d44d42da7b50fca796866408d8233e1cb6d1325026aa0",
}

#: SHA-256 of the stdout of ``enumerate --players 6 --types-only --format
#: json``: the 582 6-player types with their orbit sizes and irreducibility
#: flags.  It takes about 2 s; tier-1 checks the search's 582 types and
#: their orbit sizes (``test_balance.py``), and CI checks these bytes
#: through the installed ``minbal`` command.
ENUMERATE_6_TYPES_DIGEST = "b56185e65d861711d8a0e3d8b6023c75cfeb5f88c55b79541f278f30f6b30150"

#: SHA-256 of the stdout of ``enumerate --players 6 --format json``: the
#: 200,213 systems on the full carrier (124,337,265 bytes), written item by
#: item.  It takes about 6 s, so CI checks it through the installed
#: ``minbal`` command instead of tier-1.
ENUMERATE_6_JSON_DIGEST = "5c9be92245a421fe753d2bd96d89e3cb8e62f60b679cf81406236e9a72a79d91"

#: SHA-256 of the stdout of ``enumerate --players 6``: the same 200,213
#: systems as text lines (22,795,289 bytes).  CI checks it through the
#: installed ``minbal`` command instead of tier-1.
ENUMERATE_6_TEXT_DIGEST = "81b2e0f34a4bc5e99fe50bcb54adbea32000fa0974a0db361efc3ed4421beb39"

#: format -> SHA-256 of the stdout of ``enumerate --players 6
#: --carrier-size 5``: 7,746 systems, 1,291 on each of six carriers
#: (720,336 bytes of text, 3,776,289 of JSON), so each carrier fills many
#: pieces' worth of systems and pieces span carriers
ENUMERATE_6_CARRIER_5_DIGESTS = {
    "text": "e318246c334d2e29273f2d26fcefe55d34a485976d29bdd954b2b8a6e0f473c4",
    "json": "00c66b6e8e3119f93f598aa2e0f4decf4d8f6421a403394a2c62026368d0afcf",
}

#: (carrier size, format, --types-only, --irreducible-only) -> SHA-256 of
#: the stdout of ``enumerate --players 4``, or ``--players 5`` for carrier
#: size 5
ENUMERATE_DIGESTS = {
    (1, "text", False, False): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, "text", True, False): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, "text", False, True): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, "text", True, True): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, "json", False, False): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (1, "json", True, False): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (1, "json", False, True): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (1, "json", True, True): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    (2, "text", False, False): "600c36bd72aa2fef91ed3863478ae0be135966c0cebdcf3f83b256148ddd5fdf",
    (2, "text", True, False): "7e339a4f8d2a31f4bc2a11b1f79ec7f605513cdd8016556b4a5389ad9f22cd3f",
    (2, "text", False, True): "600c36bd72aa2fef91ed3863478ae0be135966c0cebdcf3f83b256148ddd5fdf",
    (2, "text", True, True): "7e339a4f8d2a31f4bc2a11b1f79ec7f605513cdd8016556b4a5389ad9f22cd3f",
    (2, "json", False, False): "d21baef715640ca2c520e7f4bfa47df75dcd5537af337d13efd949e725c5b71e",
    (2, "json", True, False): "7bd564e8288af511c547cbeab29df8d16eeccc9f776684d9e388e6e46b79a3a4",
    (2, "json", False, True): "d21baef715640ca2c520e7f4bfa47df75dcd5537af337d13efd949e725c5b71e",
    (2, "json", True, True): "7bd564e8288af511c547cbeab29df8d16eeccc9f776684d9e388e6e46b79a3a4",
    (3, "text", False, False): "0ddac0616004638e8fa792f449a153d326c6e450992771bbddb197e6779c30d3",
    (3, "text", True, False): "4d27b0607307ab137909724e4a3c02526ce6f2b9ad959d64713a799251160617",
    (3, "text", False, True): "c55b338b554dbcfef09a6ae43103db77d93ed5feefa61398e5bd34e95d574c19",
    (3, "text", True, True): "234c9c8626293645aa59578e7d47f250c2b1b114dec308bbb3e356329bf81ea7",
    (3, "json", False, False): "836c19f4b0e06ba4e5458186bd35ba30cbacebbf2708a6858711fc6876a7d6df",
    (3, "json", True, False): "8e26458aa16152b6ab1e9763bae42dde7d2a4a33eeb65f370cf32d507fbf9f0c",
    (3, "json", False, True): "6c5f86a49e1e6191207bc956b1a362d4859a51767b562a8b15e793a590bb1f24",
    (3, "json", True, True): "d1225c24def6425a542f07a3d654f1de404f6539993d448df6605e88f44a9b6b",
    (4, "text", False, False): "0ba09a6a4349bb48af70548c82e4d48ecfd487976850547b54ff48e4acfb2618",
    (4, "text", True, False): "b041c545e67c546b0e2612e30e2fa58f635e9f3abce7b37bc6ff4fc1666f58b8",
    (4, "text", False, True): "6f0e8b6dd2cca479e2bc88f18c672ada993d0acb74f0bc5e033b07f4f7d54646",
    (4, "text", True, True): "37b544bc3ec07dd94a05957d0a45bd60c3e2e792cff82452eb0cde0430809e07",
    (4, "json", False, False): "fd6df1016df550455f9a3e61474a4fe175f391ffe5f9cb70254dae479dd0fc4b",
    (4, "json", True, False): "5f151f7d534649e1af4aff9f3c4fcef97fd13a84003462e54106970c79061d6b",
    (4, "json", False, True): "4de2569878b06ed1d84c4bde303679ad0d08c32b135063ed1b35d01a9edd34cb",
    (4, "json", True, True): "949da35449c7972dae6620fd60b8c32a5e11fd9b757c7336754fc24cd8819d45",
    (5, "text", False, False): "07ba3b30101dad581965a1b584171d7c21ba5bdab293410e7d12c81062b085fb",
    (5, "text", True, False): "14bdced9f720df92bd077250e7cf6ab8df2078166c26c93eb07b47f935d26f7c",
    (5, "text", False, True): "ad9f1f73066195ccb0e6bab11331fc866786b5397449f6710b244a7b17087662",
    (5, "text", True, True): "0fe9e693dbb8f58ee14df203e5b2763cb4e2c0fe00f7de255f3e74f3104456b3",
    (5, "json", False, False): "ed54a989582e6e8becfbbcc2076fd238696232ddd350bcfc06899494dd1d35ea",
    (5, "json", True, False): "a3662ff2062649290fd4516c9eb2005f78e4b4a2e50a6196458f2c329e444fc6",
    (5, "json", False, True): "6709d968bdb5d2f4cb8e46fa3799e7e3b9d81e759bd437e6da9fc6c605150695",
    (5, "json", True, True): "f041a3d52402851fb9ed86f66612a47bfac43334a1e4ff398344d6b33b7fce78",
}

#: (game kind, players, cone) -> (exit code, SHA-256 of the stdout of
#: ``check --certificate``) for the games of :func:`_check_game`
CHECK_DIGESTS = {
    ("convex", 5, "balanced"): (0, "31743127c85d305f9e84589b0033f5f286e5d272c3a094e5df28131308502ed8"),
    ("convex", 5, "totally-balanced"): (0, "acd81dce086d67a168f3761115cc53c5d6495c91e92a7ef795908cc223359a0d"),
    ("convex", 5, "exact"): (0, "a0cdcf5d34cfcdcfe0dedeb7c0a4b7a3381856798e601e83150a119687d355f8"),
    ("convex", 6, "balanced"): (0, "68243f009a1353f0db32816b272aa650fca426b38893ba601bb3797ab16e0827"),
    ("convex", 6, "totally-balanced"): (0, "1ad4085b94c490d328a85bb5d20e41fcae7d6d3d137abe14b42ba1d9fd7bc7db"),
    ("convex", 6, "exact"): (0, "ab109e757b73b03e0cedf022785a51f243f336cafcddfb6aa40480534ba223aa"),
    ("convex", 7, "balanced"): (0, "089d7f003e65c4ebd7567d04d1ae4202b96e053b4cae882bc94b279430c1ab99"),
    ("convex", 7, "totally-balanced"): (0, "baaa2922b69b5b432460a4f06e43cbeba6778ef46a5e9749796dcc20e5da9cb2"),
    ("convex", 7, "exact"): (0, "1518a261f2022f24010c8e0246bdfc386f91bce566fdc69120081e1b14f91429"),
    ("cut", 5, "balanced"): (1, "0a43d3f771dc34515207781246ac7ce7aeac660a8b1e6e2165a1616c4eadb0b4"),
    ("cut", 5, "totally-balanced"): (1, "337916728b582709fdba6803715bfd5e9e3244c59447a7541106989c3c72a93b"),
    ("cut", 5, "exact"): (1, "6a020afabf07dd71846c9ca6083542aec45ecec4a55659479e278d83bdafab44"),
    ("cut", 6, "balanced"): (1, "2754787ccdb19c5326196ac4b8d3032b81744b7966831b90b49e5d863cda0e0a"),
    ("cut", 6, "totally-balanced"): (1, "3502afc19e148577112c0464b77876f4fcd8696504fbd0af34837d56f839a03d"),
    ("cut", 6, "exact"): (1, "74449d932849cefe90c3c7fc8733aef10083bbec3a043573377808fb0d5f8c71"),
    ("cut", 7, "balanced"): (1, "7f7ebf5360bad93d70f1b3a372b6adb0d1db8c6049f04adfe5f1c59ac95301d8"),
    ("cut", 7, "totally-balanced"): (1, "2f58a8f44ff54f44bf8a16cc0d9f439a7a3dce072058b80eb25be2e519da459e"),
    ("cut", 7, "exact"): (1, "ee17811ca28fcb10193a79e5f6543072f354da0d5c7b0433fe2f3274c1cdda75"),
    ("random", 5, "balanced"): (1, "3b31395110ce7f6587fad4dc9947ea7836b3f6bc762b84248c307bb0c2ee07ae"),
    ("random", 5, "totally-balanced"): (1, "75d38dff9b41b98b05f9c87c36a56655a67afa500054b75e3f4f69635b7dbbd2"),
    ("random", 5, "exact"): (1, "f0cae89e2e8128eb0580f0897d270df2ab00904153c5d86de580c3127e32364f"),
    ("random", 6, "balanced"): (1, "09ce024d41e1ead722633fe0a786c1def22a2a413687437ed70348a53dfa4f58"),
    ("random", 6, "totally-balanced"): (1, "4f8157562d4590f856c8af262bfaddcfa1d46da5c52f735f807960b922574a0d"),
    ("random", 6, "exact"): (1, "74449d932849cefe90c3c7fc8733aef10083bbec3a043573377808fb0d5f8c71"),
    ("random", 7, "balanced"): (1, "619d28df8fb674ac71835dd08a486a05c615d1a509c2d7c231b0111aa81ea15e"),
    ("random", 7, "totally-balanced"): (1, "a6d045c1cbf473f3f1f314535e89100c0d4c61553150297cf9ec0d238924f969"),
    ("random", 7, "exact"): (1, "cba74cd2125519d1da079776265c13175f8cc4e932d7a0de73b94caa4e393963"),
    ("shifted", 6, "balanced"): (0, "2ae4315d5fa51cbbdb0f77323f3e302fcb2958878118094f43a0099b82d46128"),
    ("shifted", 6, "totally-balanced"): (0, "5879a3686e072eed28f4a4896cfb326749bb831fb44ffec06df5de35ee513f02"),
    ("shifted", 6, "exact"): (0, "31f12e1fcad3dd488fe7cdf2d38be3c3dce46245cc1da9466237893aeae9b415"),
}


def _check_game(kind: str, n: int) -> Game:
    """A seeded game.  ``convex`` is a positive sum of unanimity games (a
    member of every cone); ``cut`` lowers its grand coalition's worth
    below the singletons' sum (an empty core, convex proper subgames);
    ``random`` is :func:`minbal.games.random_game`; ``shifted`` adds to
    a convex game an additive one with payoffs in halves and thirds, a
    member whose table has several denominators."""
    rng = Random(f"check:{kind}:{n}")
    players = letters(n)
    if kind == "random":
        return random_game(players, rng)
    full = players.full_mask
    dividends = [(t, rng.randint(1, 9)) for t in range(1, full + 1)]
    values = [Fraction(sum(c for t, c in dividends if t & s == t)) for s in range(full + 1)]
    if kind == "cut":
        values[full] = sum(values[1 << i] for i in range(n)) - rng.randint(1, 5)
    elif kind == "shifted":
        payoffs = [Fraction(rng.randint(-9, 9), rng.choice((2, 3))) for _ in range(n)]
        values = [v + sum(p for i, p in enumerate(payoffs) if s >> i & 1) for s, v in enumerate(values)]
    return Game(players, tuple(values))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n, cone, fmt", sorted(CATALOGUE_DIGESTS))
def test_catalogue_bytes(n, cone, fmt):
    assert _sha256(serialize(generate(letters(n), cone), fmt)) == CATALOGUE_DIGESTS[n, cone, fmt]


@pytest.mark.parametrize("size, fmt, types_only, irreducible_only", sorted(ENUMERATE_DIGESTS))
def test_enumerate_bytes(capsys, size, fmt, types_only, irreducible_only):
    argv = ["enumerate", "--players", str(max(size, 4)), "--carrier-size", str(size), "--format", fmt]
    argv += ["--types-only"] * types_only + ["--irreducible-only"] * irreducible_only
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert _sha256(out) == ENUMERATE_DIGESTS[size, fmt, types_only, irreducible_only]


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_6_CARRIER_5_DIGESTS))
def test_enumerate_six_players_on_five_player_carriers(capsysbinary, fmt):
    assert main(["enumerate", "--players", "6", "--carrier-size", "5", "--format", fmt]) == 0
    assert _sha256(capsysbinary.readouterr().out) == ENUMERATE_6_CARRIER_5_DIGESTS[fmt]


#: ``cli.BLOCK_SIZE`` values: one character, so every piece is written
#: as it comes, and more than any output below, so all are one block
BLOCK_SIZES = [1, 1 << 24]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("n, cone, fmt", sorted(key for key in CATALOGUE_DIGESTS if key[0] <= 5))
def test_catalogue_blocks_change_no_byte(monkeypatch, capsysbinary, tmp_path, block, n, cone, fmt):
    monkeypatch.setattr(cli, "BLOCK_SIZE", block)
    argv = ["catalogue", "--players", str(n), "--cone", cone, "--format", fmt]
    target = tmp_path / "catalogue"
    assert main([*argv, "--out", str(target)]) == 0
    assert main(argv) == 0
    assert _sha256(target.read_bytes()) == _sha256(capsysbinary.readouterr().out) == CATALOGUE_DIGESTS[n, cone, fmt]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_enumerate_blocks_change_no_byte(monkeypatch, capsysbinary, block, fmt):
    monkeypatch.setattr(cli, "BLOCK_SIZE", block)
    assert main(["enumerate", "--players", "5", "--format", fmt]) == 0
    assert _sha256(capsysbinary.readouterr().out) == ENUMERATE_DIGESTS[5, fmt, False, False]


@pytest.mark.parametrize("kind, n, cone", sorted(CHECK_DIGESTS))
def test_check_certificate_bytes(capsys, tmp_path, kind, n, cone):
    path = tmp_path / "game.json"
    path.write_text(game_to_json(_check_game(kind, n)), encoding="utf-8")
    rc = main(["check", "--game", str(path), "--cone", cone, "--certificate"])
    out = capsys.readouterr().out.encode()
    assert (rc, _sha256(out)) == CHECK_DIGESTS[kind, n, cone]


def test_check_games_cover_scaled_tables():
    # the shifted and random tables have denominators, so the core LPs run
    # on a table scaled by more than 1
    for kind in ("shifted", "random"):
        assert max(v.denominator for v in _check_game(kind, 6).values) > 1
