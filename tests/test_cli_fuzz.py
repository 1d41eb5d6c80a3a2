"""Property tests: the document parser and the CLI fail only in documented ways."""

import contextlib
import io
import json
from itertools import combinations
from math import comb
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from acyclo import Hypergraph
from acyclo.cli import main, parse_hypergraph, serialize_hypergraph
from acyclo.errors import HypergraphParseError

TESTDATA = Path(__file__).parent / "testdata"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)

# Mostly the right shape, so that the field-level checks are reached too.
hypergraph_like = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 6) | json_values,
        "d": st.integers(-1, 5) | json_values,
        "edges": st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=6) | json_values,
    },
    optional={"extra": json_values},
)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, n - 1))
    all_edges = list(combinations(range(1, n + 1), d + 1))
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=8))
    return Hypergraph.from_edges(n, d, edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(json_values, hypergraph_like))
def test_parse_accepts_or_raises_parse_error(doc):
    try:
        h = parse_hypergraph(json.dumps(doc))
    except HypergraphParseError:
        return
    assert isinstance(h, Hypergraph)
    assert parse_hypergraph(serialize_hypergraph(h)) == h


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=30))
def test_parse_of_any_text_raises_only_parse_error(text):
    try:
        parse_hypergraph(text)
    except HypergraphParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_valid_documents_round_trip(h, rng):
    edges = [rng.sample(e, len(e)) for e in h.edges]
    rng.shuffle(edges)
    assert parse_hypergraph(json.dumps({"n": h.n, "d": h.d, "edges": edges})) == h
    assert parse_hypergraph(serialize_hypergraph(h)) == h


SUBCOMMANDS = [
    "volume", "ehrhart", "lattice-points", "kalai-census", "duality-check",
    "vertices", "faces", "facets", "tournament-check", "oracle",
]
K34 = str(TESTDATA / "k34.json")  # complete(4, 2): 4 edges
INPUTS = [K34, str(TESTDATA / "volume_k4.json"), str(TESTDATA), "missing.json"]
FLAGS = [
    ("--format", "csv"), ("--format", "human"), ("--budget", "0"), ("--budget", "100"),
    ("--budget", "2000000"), ("--shard", "0/1"), ("--shard", "1/2"), ("--shard", "3/4"), ("--oracle",),
]
MALFORMED = [
    ("--format", "xml"), ("--budget", "-1"), ("--budget", "x"), ("--shard", "2/2"), ("--shard", "x"),
    ("--complete", "4"), ("--complete", "3", "5"), ("--complete", "0", "0"), ("--input",), ("--signs",),
    ("--nope",), ("4",), ("--help",),
]


@st.composite
def argvs(draw):
    """Mostly well-formed argv, so that most runs get past the parser; N <= 4."""
    argv = [draw(st.sampled_from(SUBCOMMANDS + ["no-such-command"]))]
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    source = draw(st.sampled_from([["--complete", str(n), str(d)]] * 4 + [["--input", p] for p in INPUTS] + [[]]))
    argv += source
    edges = comb(n, d + 1) if source[0:1] == ["--complete"] else 4
    signs = draw(st.text("+-", min_size=edges, max_size=edges) | st.text("+-0", max_size=7))
    for group in draw(st.lists(st.sampled_from(FLAGS + [("--signs", signs)]), max_size=3, unique_by=lambda g: g[0])):
        argv += group
    # one run in three ends with a malformed group
    argv += draw(st.sampled_from([()] * 2 * len(MALFORMED) + MALFORMED))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_main_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out.getvalue() == ""
        assert err.getvalue()
