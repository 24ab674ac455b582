"""Golden digests of the Weyl-group and Ext outputs.

Each digest is the SHA-256 of a canonical JSON document (sorted keys, no
whitespace) and was computed with the earlier rational-function
implementation, so any change to the arithmetic underneath
`coinvariant_pairing`, `degrees_product` or `graded_hom_dims` that alters a
single coefficient fails here.
"""

import hashlib
import json

import pytest

from lsalgo.exthom import graded_hom_dims
from lsalgo.weyl import CharTable, char_table_sn, coinvariant_pairing, degrees_product

EXT_MAX_K = 20


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pairing_doc(n: int) -> dict:
    table = char_table_sn(n)
    ids = table.char_ids()
    return {f"{chi},{psi}": coinvariant_pairing(table, chi, psi).to_json()
            for chi in ids for psi in ids}


def ext_doc(table: CharTable) -> dict:
    ids = table.char_ids()
    return {f"{chi},{psi}": list(graded_hom_dims(table, chi, psi, EXT_MAX_K))
            for chi in ids for psi in ids}


PAIRING_DIGESTS = {
    1: "be0a12d399d77ede82abbcde142f57c5ad89a840fe8b7e881c63047fb803b370",
    2: "de90683876ce1b42b4382b180e1cf5216206ffba577d00d703959a822baa82b9",
    3: "92e0418e132ab312b041567cd9ab560db8fc53f28a9b8a2ab156e52912ea0579",
    4: "f912fffeffd183936ee85dd95a2fd09b753dd0ceff7ef5b17a195654e9e6d4ae",
    5: "7ea99679e7a7c54b18bcda8edbebe27d0aebc7f1789aaa85e621a8627d258b3e",
    6: "587ef7470199c34b08f1b82b4bca9727ccfed3bc7aa322bd44817e2502bb9d0c",
    7: "812bcaeef02296f29afb74ee2336ae74e4dc31eb6d6d40e1c4a7f46b1cd30325",
    8: "5f2c4ccc4770934181ea8996dd12b360cd164d1683f2c08d29a75749204b52a6",
}

DEGREES_PRODUCT_DIGESTS = {
    1: "e0fae0af3bb319aeeec04c57526d61d1de220552429e1d1d49ecca0ed8beeb35",
    2: "59f3a8e95cef11449c660eaef79dc32b8c136e4b288a4156181d6e5dddbb5bc3",
    3: "5f60634327ffca6feba9340c49b759176b0b1fa8ca32ba3fbabf3daefb42d596",
    4: "f7166e293269c2315a181b050934673d5c21ab0560656e605dd833e70110b01b",
    5: "c987dc9270093c6d45a82c8393150b31ee80d316d216d88a4d05479ccf43a746",
    6: "1edc644601a7edb58ac2b6d26e29ac0d8cf220bbc5bd296dbee9c9c2a6b3e821",
    7: "4d3957963bb69189238583fdb293229f2f5927664cd7c539456d40fc2b348f58",
    8: "04d3d50a010b7e28d56c941180cd670d604ce961e92a506dcd66382817f453ce",
}

EXT_DIGESTS = {
    2: "96970fb5aa134cafd88f8587391c963933c472a12616f5cbf316f99804b9ee11",
    3: "ffb24a75c95d1f01be2c2e89c784205c82f1d959aae17f47e320cff5d549d19e",
    4: "287da8f87e61a03b2d92364abeeff3710c19232ebc1621946844af09886f8226",
    5: "ac7f24bb712e9d99a3ee7127fffc0064731014bcf86831aa1f791e487fde06de",
    6: "9adf9bff1656b9b5ef26b7c11aab95a6b23b0d02253fb46339107b2757eb6861",
    7: "c34b68bb94f20de847707cd211eb8d642dc1afefdf5ff41c4c7be1b7b492faf4",
    8: "fcce24d687e146ae1b661985032f4f331b6da1d6d9f2bdaaacc61a0042d75bd4",
}


@pytest.mark.parametrize("n", range(1, 9))
def test_coinvariant_pairings_pinned(n):
    assert digest(pairing_doc(n)) == PAIRING_DIGESTS[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_degrees_product_pinned(n):
    assert digest(degrees_product(char_table_sn(n)).to_json()) == DEGREES_PRODUCT_DIGESTS[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_graded_hom_dims_pinned(n):
    assert digest(ext_doc(char_table_sn(n))) == EXT_DIGESTS[n]


@pytest.mark.parametrize("n", range(2, 9))
def test_graded_hom_dims_pinned_on_decoded_table(n):
    table = CharTable.from_json(json.loads(json.dumps(char_table_sn(n).to_json())))
    assert digest(ext_doc(table)) == EXT_DIGESTS[n]
