"""Pinned member positions and rendered bytes.

Each digest is the SHA-256 of the compact JSON of (black, white) as
row-major [row, col] lists, plus a constant "transposed" key. They pin one
grid per residue class with sides 16-40 plus the six large benchmark grids,
so a change to the pattern's storage or builder that moves any member fails
here. A change that moves members on purpose must say so and re-pin. The
grids of classes (0,0), (0,2) and (2,0) (20x20, 22x30, 30x22, 1500x600) are
pinned as built with the ledger records DEV-FIX-00/-02/-20, and those of
classes (0,1), (0,3), (0,4), (1,2), (4,1) and (4,2) (21x25, 23x35, 24x20,
27x31, 21x29, 22x34, 601x605) as built with DEV-FIX-01/-02/-12/-20/-42.
"""

import hashlib
import json

import pytest

from griddom import GridDims, construct, render_ascii, render_svg

MEMBER_DIGESTS = {
    (20, 20): "dd7fbbeb86a8526a83aaccd8f2338c4da4dc98428df6a85bfb1e14106e7821df",
    (25, 21): "e922ca9604456897e2f007d3702953ed175baa4d747fd1e1b6880cd9b0e8cc57",
    (30, 22): "a8e84c71c076c64751081693897c50b784df73e8104c0027f830a0da06a722d7",
    (35, 23): "dd241823d5195e15cf304177cfedae1e8a579bd2b9cc575e047f1ada96b64516",
    (20, 24): "06e821f28be05242121dee058ee13d78eceffb71596d9d906c80e3dd05ed35b8",
    (21, 25): "759e3c31a5adef99e8288b746efd6bbb966624ded3c0c02d5540bc9bc3c1ecbe",
    (26, 26): "924b54129cf765d48cb1221aea4e645d7c25efbb8b5c92c5d1e240c35ef9e236",
    (31, 27): "7fa4b8cd9fcb917d465836856b7412d4fe844bf604866ff55eb22bd54a1e673a",
    (36, 28): "111f32bb01102f97f712c884a0411187aaf20556b5b01a24b10934f03dd53852",
    (21, 29): "2208a05f2a981a4f4756904e96073e7770c9f2b332db742c9f3103ca4ebda1e8",
    (22, 30): "af5393377081905bff43ffb3a6c235ae616b1491bf0f2c70e6081aae9aa87de8",
    (27, 31): "b829f966c37ba8d823d0b662c05e6a074ca9533033099e1b3530ff08dc9b34dc",
    (32, 32): "6ad4e2c23eac0f3901cd27b36344955f460beedd814fa6a268bf7f79d8da6a3a",
    (37, 33): "8dd7543372b65b1ba37c6e509170dd1594ab7fbd1fbef7cd677eb7073de141d7",
    (22, 34): "8d2389a8565c9ba0b0a1552806478e153102908430c13e188726f1bbc4771f23",
    (23, 35): "1c4e5e414a76646c64b9d2f622f580a2bc83dc44cdf3724fc3dff3ce1654621a",
    (28, 36): "a9892af0e86df40683296f16bf49ee7fa80aa016ab094945c43001edbbfeb320",
    (33, 37): "b261f3cf7441dfe60ca1b0d3005e3b030e0efce38c7b794dddd25f94edbc20c5",
    (38, 38): "e3a7799d9374121223d37b1c18cc552589a47872673410fb879c6e051d70100f",
    (23, 39): "5370255f8581abb83eb64f0ad6fa46261ed9b02b7331fbe7db75f24d2b8d80ef",
    (24, 20): "72adb4ba9df4c463cfe67447dee829f03407d0c7b31e24bdacfeaf3696595093",
    (29, 21): "9333b37229b45477f3c85c39a70d9ee13d98c87473fbfa14c886560b42f1f717",
    (34, 22): "2081861beeaff5062ce87270148a60cc35cbf408147f2df913d0ea8339371f6b",
    (39, 23): "944618ead354691976d8e07cff87fc4749f135c524f148bcdcfe24bbd228068b",
    (24, 24): "23373f1b5c5290062a028084cdc3ef4879a1b8c32a290d4710bf0776e91634aa",
    (602, 603): "cc11afbbfa445fd2e3900cfeb9945e7d4252fc776a06b9a80b0a07c40ac612c2",
    (601, 605): "90c8eb5b1be900c2144fd4f3bbe346523589a4185d0d6be834d870df5af62935",
    (601, 607): "f37f0d27a6b85bb8f75c13a51bd9270faf3bedccfbe682a9c0f1ea95207c5e8e",
    (603, 603): "8c671122a715a13b5509a80075e425659a2f9a3f7a595cae730adf28ee456f2e",
    (1500, 600): "025e95b54f36241412f47ff4a49dcd81bd65721857c559bbb3f6b48141151752",
    (20, 20001): "37099f84f1b814411b518bc5fec1328d7f53239d07d06c5d68856acb8c45d080",
}

# (svg, ascii with rulers) digests
RENDER_DIGESTS = {
    (16, 16): ("f26b3148805320c2867e40c8ccb7f8117ffc1c94f58650e644b289053c5cb50d",
               "08507189b5c30eec325249139aa6d5288102370cd61e58f660d86d7e89b62b10"),
    (21, 25): ("bc59b1a56176f567f6f6f7305abb4ab34ad768976fa851fe86c72b61e72e3d0d",
               "c98815a0c4ecd35eed3a534756fada120f05bf5ef6f0bf7dfe777577f3929c77"),
    (23, 38): ("f02d7c10ab783476123c668faa849ee03925fb815fbc7c8dc8ec93fcb554914a",
               "28c3ae660a5fb3a69363b89d77a97171b2ecfc504a9b733efc8c5c4208dfc787"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def member_digest(p) -> str:
    payload = {"black": [list(v) for v in p.black],
               "white": [list(v) for v in p.white],
               # every class builds direct; the key keeps unmoved pins stable
               "transposed": False}
    return _sha(json.dumps(payload, separators=(",", ":")))


def test_pins_cover_every_residue_class():
    small = [mn for mn in MEMBER_DIGESTS if max(mn) <= 40]
    assert {(n % 5, m % 5) for m, n in small} == {(a, b) for a in range(5)
                                                  for b in range(5)}


@pytest.mark.parametrize("mn", sorted(MEMBER_DIGESTS))
def test_member_positions_pinned(mn):
    assert member_digest(construct(GridDims(*mn))) == MEMBER_DIGESTS[mn]


@pytest.mark.parametrize("mn", sorted(RENDER_DIGESTS))
def test_rendered_bytes_pinned(mn):
    p = construct(GridDims(*mn))
    svg, ascii_ = RENDER_DIGESTS[mn]
    assert _sha(render_svg(p)) == svg
    assert _sha(str(render_ascii(p, rulers=True))) == ascii_
