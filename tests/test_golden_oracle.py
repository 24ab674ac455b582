"""Golden digests of the Kostka-Foulkes oracle, and charge tableau by tableau.

Each digest is the SHA-256 of the canonical JSON list of
`[lambda, mu, kostka_foulkes(lambda, mu).to_json()]` over every pair of
partitions of n, in `partitions_of(n)` order.  Those for n <= 8 were
computed while `charge` still extracted each standard subword and then read
its index sum off the positions of its letters, and those for n = 9 and 10
while tableaux were still filled cell by cell; a rewrite of `charge` or of
the enumerator that changes a single coefficient fails here.  That earlier
`charge` is kept in conftest as `charge_by_subwords` and compared with the
library's on every semistandard tableau with n <= 8.

One more digest pins the order in which `ssyt_enumerate` lists the
tableaux of every pair with n <= 8, so that a reordering is seen.
"""

import hashlib
import json

import pytest

from lsalgo.oracle import charge, kostka_foulkes, ssyt_enumerate
from lsalgo.weyl import partitions_of

from conftest import charge_by_subwords

KF_DIGESTS = {
    1: "29f7f8100b767c1e5800f2d5344702c93eb19bf203b645141ce6f3871bd4fa87",
    2: "08aa21bb33e9ba59a72caa8200be0ff8e18160b86275da470768c4e8b8dd0472",
    3: "6bc2ed2a0839d3d6b74c636baf24a28e3d3c75e73120d0455bb68b70130d1d3d",
    4: "b67a6210fe3073136457d45817ca43dd6653f4d4145dece2d1f42c32b328b132",
    5: "c0b7c69469f7b2132ba33c96f26bdb57d5567a0dd3cde667795696b5b620d9e7",
    6: "6e8d0c96054e85ba92db1a9ec2c8e77f7678f6fe78d0901de71a4cd5b9f001a4",
    7: "ea3cd4f2ba350b638458f31814ad79693d02238405e9586f265c43e0cc3caee6",
    8: "eb9949e1bb6956c2ee5ae05565d86d8f7ad4f673fba9c4140e5004226dd08ee8",
    9: "d8f71e0bff31f7edbb7b10bb88dd30d62766e66d12555535b0d5c99120fd512c",
    10: "0e77ceecb9c6638ed6e452004960867d0636d90a121138b19f772199f23c8e63",
}

# [lambda, mu, ssyt_enumerate(lambda, mu)] over every pair with n <= 8
SSYT_ORDER_DIGEST = "b7b5ad548ee3b1621bf6bce2a361921a82fde79937421cb3f5a9a41654adf372"


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", range(1, 11))
def test_kostka_foulkes_pinned(n):
    parts = partitions_of(n)
    doc = [[lam.key(), mu.key(), kostka_foulkes(lam, mu).to_json()]
           for lam in parts for mu in parts]
    assert digest(doc) == KF_DIGESTS[n]


def test_tableau_order_pinned():
    doc = [[lam.key(), mu.key(), ssyt_enumerate(lam, mu)]
           for n in range(1, 9) for lam in partitions_of(n) for mu in partitions_of(n)]
    assert digest(doc) == SSYT_ORDER_DIGEST


@pytest.mark.parametrize("n", range(1, 9))
def test_charge_matches_subword_oracle(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            for t in ssyt_enumerate(lam, mu):
                assert charge(t) == charge_by_subwords(t), t
