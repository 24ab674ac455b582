"""Fuzz the three JSON decoders with one-node mutations of valid documents.

Each example takes a document the package reads (a shipped dataset, the
character table of S_4, a solve result), replaces or deletes one node of it,
and feeds it to its decoder.  The decoder must return a value or raise
DataFormatError; any other exception is an escape.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from lsalgo.blockdata import dataset_from_json
from lsalgo.laurent import DataFormatError
from lsalgo.solver import SolveResult, solve
from lsalgo.weyl import CharTable, char_table_sn

from conftest import DATASETS, synthetic_dual_pair

DOCUMENTS = (
    [(path.name, json.loads(path.read_text()), dataset_from_json)
     for path in sorted(DATASETS.glob("*.json"))]
    + [("char_table_sn(4)", char_table_sn(4).to_json(), CharTable.from_json),
       ("solve result", solve(synthetic_dual_pair()).to_json(), SolveResult.from_json)])

ODD_VALUES = [None, 1.5, "x", [], {}, True, -1, 10**30, "0"]


def node_paths(node, prefix=()):
    """The path (a tuple of keys and indices) of every node, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutations(draw):
    name, doc, decode = draw(st.sampled_from(DOCUMENTS))
    path = draw(st.sampled_from(list(node_paths(doc))))
    value = draw(st.sampled_from(ODD_VALUES))
    delete = bool(path) and draw(st.booleans())
    doc = copy.deepcopy(doc)
    if not path:
        return name, value, decode
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return name, doc, decode


@settings(max_examples=1000, deadline=None)
@given(mutations())
def test_decoders_return_or_raise_data_format_error(mutation):
    name, doc, decode = mutation
    try:
        decode(doc)
    except DataFormatError:
        pass
