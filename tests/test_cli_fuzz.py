"""Fuzz test of the CLI boundary.

Each example starts from a small valid document for one command and sets
one key of the config tables (``cli.KEYS`` and the tables of the premium,
group and network objects) to an odd JSON value.  Whatever the value,
``main`` must return 0, 2 or 3 and never raise; a configuration error (2)
leaves stdout empty and says ``error: ...`` on stderr.  A second property
misspells one key of the document: that always exits 2, naming the key.

Only non-positive or non-numeric values are drawn, so no example can ask
for a huge replicate, network or path count.
"""

import contextlib
import copy
import io
import json
import math
import os
import string
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruinnet.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE,
    GROUP_KEYS,
    KEYS,
    NETWORK_KEYS,
    PREMIUM_KEYS,
    main,
)

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


def _known_keys(doc: dict, path: tuple[str, ...]) -> tuple[str, ...]:
    """The keys of the table that holds ``path`` in ``doc``."""
    if len(path) == 1:
        return tuple(KEYS)
    if path[0] == "network":
        return ("kind", *NETWORK_KEYS[doc["network"]["kind"]])
    return tuple({"premiums": PREMIUM_KEYS, "group": GROUP_KEYS}[path[0]])


#: Every key path of the config tables.
KEY_PATHS = (
    [(key,) for key in KEYS]
    + [("premiums", key) for key in PREMIUM_KEYS]
    + [("group", key) for key in GROUP_KEYS]
    + [("network", key) for key in sorted({"kind"}.union(*NETWORK_KEYS.values()))]
)

#: A valid object for a nested path whose object the document holds in
#: another form (a premium vector, a Bernoulli network) or not at all.
OBJECTS = {"premiums": {"low": 0.95, "high": 1.05, "ns": 1}, "network": SBM}


def _set(doc: dict, path: tuple[str, ...], value) -> None:
    """Set ``path`` of ``doc`` to ``value``; a group gets only that key."""
    if len(path) == 1:
        doc[path[0]] = value
    elif path[0] == "group":
        doc["group"] = {path[1]: value}
    else:
        obj, key = path
        if not isinstance(doc.get(obj), dict) or key not in doc[obj]:
            doc[obj] = copy.deepcopy(OBJECTS[obj])
        doc[obj][key] = value


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
    _set(doc, draw(st.sampled_from(KEY_PATHS)), draw(ODD_VALUES))
    return command, doc


@st.composite
def misspelt_documents(draw):
    """A valid document with one key misspelt by one edit: a character
    inserted, deleted, replaced, or swapped with the next one.  ``kind`` is
    left alone: it picks the network's table, so a misspelt one reads as a
    missing kind."""
    command = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[command])
    paths = [(key,) for key in doc]
    paths += [(key, inner) for key, obj in doc.items() if isinstance(obj, dict) for inner in obj]
    path = draw(st.sampled_from([p for p in paths if p[-1] != "kind"]))
    key = path[-1]
    i = draw(st.integers(0, len(key)))
    c = draw(st.sampled_from(string.ascii_letters + "_"))
    bad = draw(
        st.sampled_from(
            [key[:i] + c + key[i:], key[:i] + key[i + 1 :], key[:i] + c + key[i + 1 :]]
            + [key[:i] + key[i + 1 : i + 2] + key[i : i + 1] + key[i + 2 :]]
        )
    )
    assume(bad not in _known_keys(doc, path))
    target = doc if len(path) == 1 else doc[path[0]]
    target[bad] = target.pop(key)
    return command, doc, ".".join(path[:-1] + (bad,))


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(misspelt_documents())
def test_misspelt_key_exits_2_naming_it(case):
    command, doc, name = case
    rc, out, err = _run(command, doc)
    assert (rc, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: unknown config key '{name}'")
