"""CLI output pinned byte for byte.

Each invocation's stdout is hashed and compared with a recorded sha256, so
a refactor that changes any printed byte fails here.  The set is the 15
README commands plus four large ones: Euler products over 2762 and 3245
primes, and the factorial-capped reports at their cap N = 2000.  Each
`verify` suite is pinned on its own, and the whole run once more as CSV.
"""

import hashlib

import pytest

from pistair.cli import run_cli

GOLDEN = {
    "euler --N 10": "c3ba4d37af8e6e0f89922da4f1536553147e61e5093219ee7d70e1edc7656e49",
    "zeta2 --digits 40": "12ea95ec709d94ac36e02237870078d910bd1252543c52e2d4291e7c7f2d0294",
    "gap --N 10 --digits 30": "cfccf9a7458550d063e0e660c0cc4e92f8897986d29884282ab59bafba9402d0",
    "qbounds --N 5": "b30583179d81df59dd89305e7197ffe104fd731074716fb3884861f114609e62",
    "cf --digits 60 --terms 20": "a0135b0be06cf15e384e9313ef5c722fd964e04c97c72f51eb4a30c77fe50f98",
    "exponents --digits 60 --max-q 1000000": "548a490313a63141d9eb1cc14a2412e31d31c228193b69e0b3af6c48cbb25565",
    "dn --n 5000 --log-only": "e65b7bfdb7a5200c8d744f54c56fc1d4e8ce48f5a35526c6a4592ee6d8f88099",
    "theorem1 --N 20": "70eca1e5ca477b6106252599463f98f07274ca7b6febaed312ef0e3f9ffccd9f",
    "theorem2 --n 10": "77f8f3ca49eea11c3ec03305d47b1023202de6ea90a4d65886acf8a92fa51a80",
    "theorem3 --n 1000000 --sieve": "cde62ab2583dbb838f27880cd9520061666ad445e9d01b6a154e25c49b563850",
    "staircase --mode factorial-squared --b 5.45 --m 6 --start 2 --steps 4": "249d68be76c4b7690ecf1b43fb606393efa4e1d566354e5a51897501e29f964e",
    "lemma4 --mode raw": "e1a3e4561991d8d42f13db9ba8194fb758e0880b01d4564b67b2a6576e6be82e",
    "sondow --n 15 --mu 5.45": "51046e05819e0fa85ee596400e44ed632b11f0b6e02e69ee98658946e60324e0",
    "euclid --level 2 --mantissa 1.0": "7f19177a5a7a027ee5f51d792c1160c870cc2dfb58dec7eccd6d34eebfa44215",
    "verify --suite all": "e669c418a0bbfaa13a1613b6a55c8aaa4b255aa2fbdc805dd47b4b9366db8435",
    "euler --N 30000": "264ff11aecd354fea7173d2c7587579ae5e7bac5dc05b8c3ef99de5c45655cb5",
    "gap --N 25000 --digits 30": "6cf59a1e5d51db4202d9803331ccf1ba87aa2a98c2b6064877d992e3d981f85c",
    "qbounds --N 2000": "8bcc3ad30f953e1f8cfcdef70841df7fb57deb277ae8e3d5c7d34502166aa910",
    "theorem1 --N 2000": "ca5b83b9a88aaaeb6907e03a511ada3cb30d6d47580fcc3da450b9c4a1ccc406",
    "verify --suite arith": "3c902248842ad9f0dffea41f587d731af398c34b9e680b24de0b535e008c8ec2",
    "verify --suite primes": "da365dd7e8f0be7b2b31366930c89245e6d3fecc9c0f56c54121eb9b9c3a1434",
    "verify --suite euler": "1508e55c9bda9930c8084c71172261c6e2a885a4fbb2f7af6794cfd3c043333d",
    "verify --suite approx": "7a0206f5717841d9e9196e4f984ca9d4b8985d4b31f593ab6c616a3f60614dab",
    "verify --suite staircase": "44c303acff835c85806986c220f26d373c787e1c7108076e23a20e9107a3f328",
    "verify --suite all --format csv": "5b9766d31194614450f83ede21a6dd281f5629cb18d31517b651d963dd23cd4a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_recorded_hash(capsys, command):
    assert run_cli(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
