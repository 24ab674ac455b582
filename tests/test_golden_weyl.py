"""Golden digests of the Weyl-group and Ext outputs.

Each digest is the SHA-256 of a canonical JSON document (sorted keys, no
whitespace) and was computed with the earlier rational-function
implementation, so any change to the arithmetic underneath
`coinvariant_pairing`, `degrees_product` or `graded_hom_dims` that alters a
single coefficient fails here.
"""

import hashlib
import io
import json

import pytest

from lsalgo.blockdata import write_json
from lsalgo.weyl import (
    CharTable, char_table_sn, coinvariant_pairing, degrees_product, graded_hom_dims)

from test_weyl import B2_TABLE_JSON

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


# SHA-256 of the bytes `write_json` gives a table's `to_json()`: the encoding
# that `--table` files are written in, and that comparing `exthom --sn` with
# `exthom --table` output rests on
TABLE_BYTES_DIGESTS = {
    "S1": "c55d395d163843ba000c7d6134f17844a71b9750b6a345f5cd7f8f3650605b8d",
    "S2": "b093fb2d3fbee1a924873e966b224e04ee3f650f632f4e8286e2d8ae09f4bb39",
    "S3": "5eb0cd3f579179d3b8a22fb2c0dbd05622dd7e1b57d44f6b725bfdbdc5fbe40e",
    "S4": "ed440cc162d9711b4b4875cba26431d10d8f9531936d2892b885e702b20550d1",
    "S5": "51dd12183198302d87ee89bd87b5e61c9b5f0424fab30b70e1fde7fb3290e706",
    "S6": "17df371025ca32b46dbb54b9f711e80f48863007519a89f934857a026c50223b",
    "S7": "b7b513069c7a0c9db94b84b5af2aba173cb1ad0dd56d00bad82681df8bff3b84",
    "S8": "0e5c1e41deedb35f87871e311b4f2a8abcef77b9c4fd08a098bea30d58c33825",
    "S9": "5a8aa2e668ac8accbb41b41d2d80dd56dd5b504964c32b0af51ec8496d458cc6",
    "B2": "7582221e602f1ce404ab07c9e8946962ca1eeb9512c7b819297d10feb3d39b9d",
}


def pinned_table(name: str) -> CharTable:
    return CharTable.from_json(B2_TABLE_JSON) if name == "B2" else char_table_sn(int(name[1:]))


@pytest.mark.parametrize("name", sorted(TABLE_BYTES_DIGESTS))
def test_table_bytes_pinned(name):
    table = pinned_table(name)
    buffer = io.StringIO()
    write_json(table.to_json(), buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == \
        TABLE_BYTES_DIGESTS[name]
    assert CharTable.from_json(table.to_json()) == table
