"""Malformed configs end in ConfigError, never another exception."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bitsim.config import ConfigError, ExperimentConfig, LayerConfig, parse_config

EXAMPLE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "example.json").read_text()
)

# Any JSON value, NaN and the infinities included (json.loads accepts them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def check_parses_or_config_error(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.width in (8, 16)
    assert cfg.layers and all(isinstance(layer, LayerConfig) for layer in cfg.layers)
    assert cfg.engines
    assert math.isfinite(cfg.trace_sigma) and cfg.trace_sigma > 0
    assert math.isfinite(cfg.synapse_sigma) and cfg.synapse_sigma >= 0
    assert all(isinstance(p, str) for p in cfg.trace_paths)
    names = [layer.spec.name for layer in cfg.layers]
    assert all(isinstance(name, str) for name in names)
    assert len(set(names)) == len(names)
    assert cfg.csv_path is None or isinstance(cfg.csv_path, str)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_any_json_document_parses_or_is_config_error(doc):
    check_parses_or_config_error(doc)


# Every place in the example config a value can be replaced at.
def _slots(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _slots(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _slots(value, path + (index,))


SLOTS = [p for p in _slots(EXAMPLE) if p] + [
    ("layers", 0, "quant"),
    ("trace", "paths"),
    ("output",),
]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SLOTS), json_values)
def test_example_with_one_value_replaced_parses_or_is_config_error(slot, value):
    doc = copy.deepcopy(EXAMPLE)
    node = doc
    for key in slot[:-1]:
        node = node[key]
    node[slot[-1]] = value
    check_parses_or_config_error(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("width",), "abc"),
        (("trace", "sigma"), "abc"),
        (("trace", "sigma"), float("nan")),
        (("synapse_sigma",), "abc"),
        (("synapse_sigma",), -1.0),
        (("layers", 0), 5),
        (("engines", 0), 5),
        (("trace",), {"kind": "file", "paths": 5}),
        (("layers", 0, "precision", "lsb"), [1]),
        (("output",), {"csv": 5}),
    ],
    ids=["width-string", "sigma-string", "sigma-nan", "synapse-sigma-string",
         "synapse-sigma-negative", "layer-not-object", "engine-not-object",
         "paths-not-list", "lsb-list", "csv-not-string"],
)
def test_malformed_value_is_config_error(path, value):
    doc = copy.deepcopy(EXAMPLE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
