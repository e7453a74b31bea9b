"""Fuzz test of the CLI boundary.

Each example starts from a small valid document for one command and
replaces one field with an odd JSON value.  Whatever the value, ``main``
must return 0, 2 or 3 and never raise; a configuration error (2) leaves
stdout empty and says ``error: ...`` on stderr.

Only non-positive or non-numeric values are drawn, so no example can ask
for a huge replicate, network or path count.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ruinnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, main

SBM = {"kind": "sbm", "w": [0.5, 0.5], "v": [1.0], "p": [[0.4], [0.7]]}

VALID = {
    "estimate": {
        "lambda": 1.0,
        "q": 3,
        "d": 3,
        "premiums": [0.95, 1.05, 1.1],
        "mu": 1.0,
        "reserves": [1.0, 0.5, 2.0],
        "network": {"kind": "bernoulli", "p": 0.5},
        "group": {"size": 2},
        "replicates": 500,
        "seed": 3,
        "threads": 2,
    },
    "sweep": {
        "lambda": 1.0,
        "q": 3,
        "d": 4,
        "premiums": {"low": 0.95, "high": 1.05},
        "mu": [1.0, 1.0, 0.8, 1.2],
        "reserves": 1.0,
        "network": SBM,
        "replicates": 300,
        "seed": 5,
        "threads": 1,
        "ns_grid": [1, 2],
        "approx_mode": "auto",
        "m_configs": 200,
    },
    "table": {
        "lambda": 1.0,
        "q": 4,
        "d": 6,
        "premiums": {"low": 0.95, "high": 1.05},
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.4},
        "group": {"size": 3},
        "replicates": 400,
        "seed": 7,
        "threads": 4,
        "ns_grid": [2, 3],
    },
    "oracle": {
        "lambda": 1.0,
        "q": 2,
        "d": 2,
        "premiums": [1.05, 1.2],
        "mu": 1.0,
        "reserves": 1.0,
        "network": {"kind": "bernoulli", "p": 0.6},
        "group": {"size": 2},
        "replicates": 2000,
        "seed": 11,
        "threads": 1,
        "horizon": 500.0,
        "outer_networks": 5,
        "inner_paths": 10,
    },
}


def _field_paths(doc: dict) -> list[tuple[str, ...]]:
    """Every top-level key, and every key of a nested object."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


SMALL = st.one_of(st.none(), st.integers(-3, 6), st.floats(-2.0, 2.0), st.text(max_size=2))
ODD_VALUES = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e30]),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-9),
    st.lists(SMALL, max_size=4),
    st.dictionaries(st.text(max_size=3), SMALL, max_size=2),
)


@st.composite
def odd_documents(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[command])
    path = draw(st.sampled_from(_field_paths(doc)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(ODD_VALUES)
    return command, doc


def _run(command: str, doc: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, "--config", path])
    return rc, out.getvalue(), err.getvalue()


def test_valid_documents_succeed():
    for command, doc in VALID.items():
        rc, out, _ = _run(command, doc)
        assert rc == EXIT_OK, command
        assert out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(odd_documents())
def test_one_odd_field_never_escapes_main(case):
    command, doc = case
    rc, out, err = _run(command, doc)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_ORACLE)
    if rc == EXIT_CONFIG:
        assert out == ""
        assert err.startswith("error: ")
