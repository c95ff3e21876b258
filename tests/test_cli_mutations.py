"""Damaged input files through the command line: every run ends in an exit
code and at most one line on stderr, never in a traceback.

Each example takes a fixture, damages it once (a list row dropped,
duplicated or renamed, a value of the wrong type, a key dropped) and runs
a command that reads it through `cli.main`.  The draws are derandomised so
the suite is the same on every run.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidkit.cli import FINDING, OK, PARSE, SEMANTIC, main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ("mobius3", "annulus3", "c4-window", "full-window", "broken-comp")
COMMANDS = ("holonomy", "extendible", "monodromy", "validate", "double")


def fx(name):
    return str(FIXTURES / name)


# every other kind of input file, in a command that reads it (PATH marks the damaged file)
READERS = {
    "xmod-c2c2": ["double", "PATH", "--check", "transport,roundtrip"],
    "xmod-trivial": ["double", "PATH", "--check", "transport,interchange,roundtrip"],
    "box-c2": ["cube", "PATH", fx("cube-degenerate.json")],
    "cube-degenerate": ["cube", fx("box-c2.json"), "PATH"],
    "circle-w": ["pushout", "PATH", fx("circle-u.json"), fx("circle-v.json"), fx("circle-i.json"),
                 fx("circle-j.json"), "--vertex-group", "{B.m,C.m}"],
    "circle-i": ["pushout", fx("circle-w.json"), fx("circle-u.json"), fx("circle-v.json"), "PATH",
                 fx("circle-j.json"), "--vertex-group", "{B.m,C.m}"],
    # a dropped objects row reaches the generator endpoint check
    "circle-uv": ["pushout", fx("circle-u.json"), fx("circle-v.json"), fx("circle-v.json"), "PATH",
                  fx("circle-uv.json")],
    "extend-c8": ["monodromy", fx("c4-window.json"), "--extend", "PATH"],
    "bad-relation": ["vertex-group", "PATH", "m"],
}
DOCS = {name: json.loads((FIXTURES / f"{name}.json").read_text()) for name in NAMES + tuple(READERS)}
WRONG = (None, 7, 1.5, True, "x", [], [[]], {}, {"id": 1})


def places(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from places(value, path + (key,))


def parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def targets(doc):
    """For each kind of damage, the paths in doc it can be done at."""
    every = list(places(doc))
    rows = [p for p in every if isinstance(p[-1], int)]
    return {
        "drop-row": rows,
        "duplicate-row": rows,
        "rename": [p for p in every if isinstance(parent(doc, p)[p[-1]], str)],
        "wrong-type": every,
        "drop-key": [p for p in every if isinstance(p[-1], str)],
    }


TARGETS = {name: targets(doc) for name, doc in DOCS.items()}


@st.composite
def damaged(draw, names):
    """(fixture name, what was done, damaged document)."""
    name = draw(st.sampled_from(names))
    kind = draw(st.sampled_from([k for k, paths in TARGETS[name].items() if paths]))
    path = draw(st.sampled_from(TARGETS[name][kind]))
    doc = copy.deepcopy(DOCS[name])
    at, key = parent(doc, path), path[-1]
    if kind == "drop-row" or kind == "drop-key":
        del at[key]
    elif kind == "duplicate-row":
        at.insert(key, copy.deepcopy(at[key]))
    elif kind == "rename":
        at[key] += "'"
    else:
        at[key] = draw(st.sampled_from([v for v in WRONG if type(v) is not type(at[key])]))
    return name, (kind, path), doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def assert_exits_cleanly(workdir, argv, case):
    """Run argv with PATH standing for the damaged file; check the exit code and the streams."""
    name, mutation, doc = case
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "PATH" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    # only holonomy and extendible report findings (exit 3)
    assert code in ({OK, SEMANTIC, PARSE, FINDING} if argv[0] in ("holonomy", "extendible") else {OK, SEMANTIC, PARSE}), (
        mutation, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (mutation, err)
    if err:
        assert code != OK and out == "", (mutation, err)
    if out:
        assert "results" in json.loads(out)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=damaged(NAMES))
def test_damaged_groupoid_file(workdir, command, case):
    assert_exits_cleanly(workdir, [command, "PATH"], case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=damaged(tuple(READERS)))
def test_damaged_companion_file(workdir, case):
    assert_exits_cleanly(workdir, READERS[case[0]], case)


# every command that reads a file, with PATH in each kind of input slot
UNREADABLE_SLOTS = {
    **{command: [command, "PATH"] for command in COMMANDS},
    **{f"{READERS[name][0]}-{name}": READERS[name] for name in READERS},
    "vertex-group": ["vertex-group", "PATH", "m"],
    "pushout-g": ["pushout", fx("circle-w.json"), fx("circle-u.json"), fx("circle-v.json"), fx("circle-i.json"),
                  "PATH", "--vertex-group", "{B.m,C.m}"],
}


@pytest.mark.parametrize("slot", sorted(UNREADABLE_SLOTS))
@pytest.mark.parametrize("kind", ["directory", "undecodable", "null", "7", "1.5", "true", '"x"', '"P"', "[]", "[[]]"])
def test_unreadable_input_is_a_parse_error(workdir, slot, kind):
    path = workdir / kind
    if kind == "directory":
        path.mkdir(exist_ok=True)
    elif kind == "undecodable":
        path.write_bytes(b"\xff\xfe{}")
    else:  # a JSON document, but not the object that every input schema is
        path.write_text(kind)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "PATH" else a for a in UNREADABLE_SLOTS[slot]])
    out, err = out.getvalue(), err.getvalue()
    assert code == PARSE and out == ""
    assert err.startswith(f"parse error: {path}: ") and err.count("\n") == 1, err

