"""Golden digests of the root-system and Chevalley tables.

For each group the digest hashes the positive roots in root order, the
decomposition table, the positive coroots, the structure constants (read
from the e-e entries of the algebra's one bracket table) and the
extraspecial pairs (the head of each decomposition list).  Any change to
one of these tables, including the order of the roots or of the
decomposition pairs, changes the digest.  The expected values were recorded
before the root-string and root-class code was shared; a change of table
needs a new recording and a reason.
"""

import hashlib

import pytest
from bracket_table import constants

from solvsph import build_root_system
from solvsph.chevalley import build_algebra


def table_digest(spec):
    rs = build_root_system(spec)
    algebra = build_algebra(rs)
    tables = (
        [r.coords for r in rs.positive_roots],
        sorted(rs.decompositions.items()),
        list(rs.positive_coroots),
        sorted(constants(algebra).items()),
        sorted((eps, pairs[0]) for eps, pairs in rs.decompositions.items() if pairs),
    )
    return hashlib.sha256(repr(tables).encode()).hexdigest()


EXPECTED = {
    "A1": "510d8b1d0413c4407bd46f9a74d48ec07b4321c76b01033273d235f043063936",
    "A2": "289cca9fa6c1a118420a7967ad62bcd49b1a7b6d5f9587d20979aa2e8b4f93e0",
    "A3": "c4f08b7aabaff086ca066f18f332af573ecff172793e312cea1733b1991c952d",
    "B2": "567766d4a6ca38554a6e6394609f0894f4ecb8cda976976e3e23d3df594fbe5a",
    "B3": "33312c0b6e7338f4abc9e5cad5e41ed3f6c028c3960d2c26c225d9614526f449",
    "C2": "d6030b36125844c279021e39e4d07bafa7437af498c199cf30296eb487b3dbec",
    "C3": "9e633d86d720d918d82931a9b34685041fce904d53a055d5b639256e94d7fe52",
    "D3": "e811d9b88cbff58d14ddd3e1a3595f043ae37ecc0a74e013236e31537a8a84ee",
    "G2": "ff03a12c8dfaf17b1b26208b4cde2fef39d968b42a34aceac4c6ddbd17e9a048",
    "B4": "5fd6bd86077b09f9f2918ef61d4cdb6cd9381aa6980bf238b9812c4abcfe8e38",
    "C4": "0907d0fed7646e7b66039e7d36b91550972f75629c2141a9d61bb22ccf586c6c",
    "D4": "3d84b987f0cbf9ea33174a2c21e32449aa14370ed9b5cd759422690a4a3a9e0d",
    "F4": "d586266f3fa723241c6dbee0a6caade575a24073ad1645e1eee675a2b50ebfb2",
    "E6": "263c76a734b133dd427aaa5c15497198220006cdd7237126910c1e8bcd19fe34",
    "E7": "ff66168737877011d3587e80ac6dd93667f861c609528e2a4fc499266dfab17b",
    "E8": "2bfb0bb6bebc2ff32b4888c64effcef9a5322dfd2f00cb02758eaef34ec516f9",
    "A1xA2": "1282ad59c105d827c031d0ce05da1e984dad32ae5430f2c30b5e439fc2ce9b92",
    "A1xB2": "33a03f6f5bbfaf81708790bfee2917a6e96638bc2df4d4c3502559280f263270",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_tables_match_the_recorded_digest(name):
    spec = [(part[0], int(part[1:])) for part in name.split("x")]
    assert table_digest(spec) == EXPECTED[name]
