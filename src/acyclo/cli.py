"""Command-line front end.

Grammar, with SRC = (--complete N D | --input PATH) and F = json|csv|human:
    acyclo volume|ehrhart|lattice-points|vertices SRC [--format F] [--budget B]
           [--shard I/M | --oracle]
    acyclo faces|facets|oracle SRC [--format F] [--budget B]
    acyclo kalai-census --complete N D [--format F] [--budget B]
           [--shard I/M | --oracle]
    acyclo duality-check --complete N D [--format F] [--budget B]
    acyclo tournament-check SRC --signs S [--format F]

A subcommand's parser holds only the flags of its COMMANDS entry, so a flag
it would ignore is a usage error. `--complete N D` needs 1 <= D <= N-1, and
its comb(N, D+1) edges must fit the budget before the hypergraph is built, as
must the comb(N, D) boundary rows of either source before any column is.

Exit codes: 0 ok, 2 parse/usage error, 3 budget exceeded, 4 disagreement
between the theorem path and an oracle (or a failed identity check). A reader
that closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Callable, Optional

from . import census, complexes, faces, oracle
from .complexes import Hypergraph, complete_hypergraph, cycle_space_dim
from .errors import _EXACT_DIGITS, BudgetExceededError, HypergraphParseError
from .faces import Hypertournament, SignPattern

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the JSON hypergraph document format, with field-level diagnostics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HypergraphParseError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise HypergraphParseError("top level: expected an object")
    for name in ("n", "d", "edges"):
        if name not in doc:
            raise HypergraphParseError(f"missing field {name!r}")
    for name in doc:
        if name not in ("n", "d", "edges"):
            raise HypergraphParseError(f"unknown field {name!r}")
    n, d, edges = doc["n"], doc["d"], doc["edges"]
    for name, value in (("n", n), ("d", d)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise HypergraphParseError(f"field {name!r}: expected an integer")
    if not 1 <= d <= n - 1:
        raise HypergraphParseError(f"field 'd': must satisfy 1 <= d <= n-1 (n={n}, d={d})")
    if not isinstance(edges, list):
        raise HypergraphParseError("field 'edges': expected a list of integer lists")
    canon = []
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(edges):
        where = f"edges[{i}]"
        if not isinstance(e, list) or any(not isinstance(v, int) or isinstance(v, bool) for v in e):
            raise HypergraphParseError(f"{where}: expected a list of integers")
        if len(e) != d + 1:
            raise HypergraphParseError(f"{where}: expected {d + 1} vertices, got {len(e)}")
        if len(set(e)) != len(e):
            raise HypergraphParseError(f"{where}: repeated vertex in {e}")
        for v in e:
            if not 1 <= v <= n:
                raise HypergraphParseError(f"{where}: vertex {v} out of range 1..{n}")
        key = tuple(sorted(e))
        if key in seen:
            raise HypergraphParseError(f"{where}: duplicate of edges[{seen[key]}]")
        seen[key] = i
        canon.append(key)
    return Hypergraph(n, d, tuple(sorted(canon)))


def serialize_hypergraph(h: Hypergraph) -> str:
    return json.dumps({"n": h.n, "d": h.d, "edges": [list(e) for e in h.edges]})


def _scalar(value):
    """The report's leaf rule: big integers as decimal strings, rationals as
    'p/q' (or 'p', which is Fraction's str); other leaves as they are."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(value)
    return value


def _json(value, indent: str = "\n") -> str:
    """value laid out as json.dumps(value, indent=2) lays it out, with the
    leaves of _scalar; indent is the newline and indentation before value.

    The common leaves come first, tested by exact type, so a bool (an int
    subclass) never passes for an int; a list of exact ints is written in
    one join."""
    kind = type(value)
    if kind is int:
        return f'"{value}"'
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = (f"{encode_basestring_ascii(str(k))}: {_json(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            return "[" + inner + '"' + ('",' + inner + '"').join(map(str, value)) + '"' + indent + "]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    leaf = _scalar(value)
    return encode_basestring_ascii(leaf) if isinstance(leaf, str) else json.dumps(leaf)


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, _scalar(value)


def _emit(report: dict, fmt: str) -> None:
    try:
        _write(report, fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point the descriptor at
        # os.devnull so that the flush at shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(report))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        for key, value in _flatten(report):
            writer.writerow([key, value])
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in _flatten(report):
            print(f"{key}: {value}")


def _check_binomial(n: int, k: int, budget: int, what: str) -> None:
    """Reject comb(n, k) candidates over the budget. `run` bounds the edges,
    as every budgeted enumeration has at least as many candidates, and the
    boundary rows, as every subcommand builds the columns over them."""
    # comb(n, k) multiplied up through comb(n-k+i, i), a rising lower bound,
    # which stops once it is past the budget and too long to print exactly:
    # the error then says "at least 10^e", which holds of the bound too.
    k = min(k, n - k)
    inexact = 10**_EXACT_DIGITS
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > budget and count >= inexact:
            break
    if count > budget:
        raise BudgetExceededError(count, budget, what)


def _load_input(args: argparse.Namespace) -> tuple[Hypergraph, dict]:
    if args.complete is not None:
        n, d = args.complete
        h = complete_hypergraph(n, d)
        source = f"complete({n},{d})"
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise HypergraphParseError(f"cannot read {args.input}: {exc}") from exc
        h = parse_hypergraph(text)
        source = args.input
    echo = {"source": source, "n": h.n, "d": h.d, "edge_count": len(h.edges)}
    if args.input is not None:
        echo["edges"] = [list(e) for e in h.edges]
    return h, echo


def _budget_kwargs(args: argparse.Namespace) -> dict:
    return {"budget": args.budget} if args.budget is not None else {}


# Oracle checks: each compares one theorem-path value with an independent
# oracle, and returns None where the oracle does not apply to h. A check reads
# the theorem-path value from the report when its handler has put it there,
# else computes it under --budget, and is skipped if that exceeds the budget
# or the oracle exceeds its own cap.


def _kirchhoff_check(args, h: Hypergraph, report: dict) -> Optional[oracle.OracleReport]:
    if h.d == 1:
        volume = report["volume"] if "volume" in report else census.volume(h, **_budget_kwargs(args))
        return oracle.OracleReport.compare("volume vs kirchhoff", volume, oracle.kirchhoff_tree_count(h))


def _ehrhart_fit_check(args, h: Hypergraph, report: dict) -> Optional[oracle.OracleReport]:
    if len(h.edges) <= oracle.DEFAULT_GENERATOR_CAP:
        if "ehrhart" in report:
            coeffs = report["ehrhart"]["coefficients"]
        else:
            coeffs = census.ehrhart(h, **_budget_kwargs(args)).coefficients
        return oracle.ehrhart_fit_check(h, theorem_coeffs=coeffs)


def _lattice_points_check(args, h: Hypergraph, report: dict) -> Optional[oracle.OracleReport]:
    if len(h.edges) <= oracle.DEFAULT_GENERATOR_CAP:
        if "lattice_points" in report:
            count = report["lattice_points"]
        else:
            count = census.lattice_point_count(h, **_budget_kwargs(args))
        return oracle.OracleReport.compare("lattice points at t=1", count, oracle.lattice_points_direct(h, 1))


def _matrix_tree_check(args, h: Optional[Hypergraph], report: dict) -> Optional[oracle.OracleReport]:
    h = complete_hypergraph(*args.complete) if h is None else h
    if "kalai_sum" in report:
        kalai_sum = report["kalai_sum"]
    elif "volume" in report:  # a volume of d = 1, which Kirchhoff checks
        return None
    else:
        kalai_sum = census.hypertree_census(h, **_budget_kwargs(args)).kalai_sum
    return oracle.OracleReport.compare("kalai sum vs matrix-tree", kalai_sum, oracle.matrix_tree_sum(h))


def _vertex_patterns_check(args, h: Hypergraph, report: dict) -> oracle.OracleReport:
    if len(h.edges) <= oracle.DEFAULT_PATTERN_CAP:
        if "vertices" in report:
            enumerated = {v["pattern"] for v in report["vertices"]}
        else:
            enumerated = {p.as_string() for p, _ in faces.enumerate_vertices(h, **_budget_kwargs(args))}
        brute = {p.as_string() for p in oracle.signpattern_bruteforce(h)}
        return oracle.OracleReport.compare("vertex pattern sets", sorted(enumerated), sorted(brute))
    if "vertices" in report:
        count = report["count"]
    else:
        count = sum(1 for _ in faces.enumerate_vertices(h, **_budget_kwargs(args)))
    return oracle.OracleReport.compare("vertex count vs regions", count, oracle.region_count(h))


def _add_oracle_reports(args, h: Hypergraph, report: dict, checks=None) -> int:
    """The handler of `acyclo oracle`, which runs every check in COMMANDS, and
    the `--oracle` step of the subcommands with checks."""
    reports = []
    for check in _ALL_CHECKS if checks is None else checks:
        with suppress(BudgetExceededError):
            reports.append(check(args, h, report))
    reports = [r for r in reports if r is not None]
    report["oracle_reports"] = [
        dict(quantity=r.quantity, theorem=r.theorem_value, oracle=r.oracle_value, agreement=r.agreement)
        for r in reports
    ]
    return EXIT_OK if all(r.agreement for r in reports) else EXIT_DISAGREEMENT


# Handlers: each fills its subcommand's report after "command" and "input"; h is
# None where the subcommand takes no hypergraph. A handler that checks an
# identity returns its exit code; the others return None, which is exit 0.


def _volume(args, h, report) -> None:
    report["ambient_dimension"] = cycle_space_dim(h.n, h.d)
    report["volume"] = census.volume(h, shard=args.shard, **_budget_kwargs(args))
    if args.oracle and h.d > 1:  # the matrix-tree check reads the census's Kalai sum
        report["kalai_sum"] = census.hypertree_census(h, **_budget_kwargs(args)).kalai_sum


def _ehrhart(args, h, report) -> None:
    poly = census.ehrhart(h, shard=args.shard, **_budget_kwargs(args))
    report["ehrhart"] = {"coefficients": list(poly.coefficients), "degree": poly.degree}


def _lattice_points(args, h, report) -> None:
    report["lattice_points"] = census.lattice_point_count(h, shard=args.shard, **_budget_kwargs(args))


def _kalai_census(args, h, report) -> int:
    n, d = args.complete
    result = census.kalai_census(n, d, shard=args.shard, **_budget_kwargs(args))
    report["hypertree_count"] = result.hypertree_count
    report["weighted_volume"] = result.weighted_volume
    report["kalai_sum"] = result.kalai_sum
    report["torsion_histogram"] = {str(k): v for k, v in result.torsion_histogram.items()}
    if args.shard is not None:
        report["shard"] = f"{args.shard[0]}/{args.shard[1]}"
        return EXIT_OK
    expected = n ** comb(n - 2, d)
    report["kalai_expected"] = expected
    report["kalai_match"] = result.kalai_sum == expected
    return EXIT_OK if report["kalai_match"] else EXIT_DISAGREEMENT


def _duality_check(args, h, report) -> int:
    n, d = args.complete
    v1, v2 = census.duality_volume_check(n, d, **_budget_kwargs(args))
    dual_d = n - d - 2
    report["pair"] = [[n, d], [n, dual_d]]
    report["ambient_dimensions"] = [cycle_space_dim(n, d), cycle_space_dim(n, dual_d)]
    report["volumes"] = [v1, v2]
    report["equal"] = v1 == v2
    return EXIT_OK if report["equal"] else EXIT_DISAGREEMENT


def _vertices(args, h, report) -> None:
    # every vertex carries a comb(n, d)-entry point: the report holds at
    # most complexes.DENSE_ENTRY_CAP entries of them, read here so that it
    # can be lowered
    cap, rows = complexes.DENSE_ENTRY_CAP, comb(h.n, h.d)
    verts = []
    for p, point in faces.enumerate_vertices(h, shard=args.shard, **_budget_kwargs(args)):
        if (len(verts) + 1) * rows > cap:
            raise BudgetExceededError((len(verts) + 1) * rows, cap, "vertex point entries")
        verts.append({"pattern": p.as_string(), "point": point})
    report["count"] = len(verts)
    report["vertices"] = verts


def _faces(args, h, report) -> None:
    lattice = faces.face_lattice(h, **_budget_kwargs(args))
    report["f_vector"] = {str(k): v for k, v in lattice.f_vector().items()}
    report["faces"] = [
        {"dimension": f.dimension, "pattern": f.pattern.as_string(), "witness": f.witness}
        for f in lattice
    ]


def _facets(args, h, report) -> None:
    lattice = faces.face_lattice(h, **_budget_kwargs(args))
    complete = len(h.edges) == comb(h.n, h.d + 1)  # edges are distinct (d+1)-subsets of 1..n
    entries = [
        {
            "dimension": f.dimension,
            "pattern": f.pattern.as_string(),
            "vertex_count": len(lattice.vertices_of(f)),
            "partition_induced": _partition_induced(h, f.pattern.values) if complete else None,
        }
        for f in lattice.facets()
    ]
    report["count"] = len(entries)
    report["facets"] = entries


def _tournament_pattern(signs: str, edge_count: int) -> SignPattern:
    """The orientation that --signs spells, one '+' or '-' per edge."""
    try:
        pattern = SignPattern.from_string(signs)
    except ValueError as exc:
        raise HypergraphParseError(f"--signs: {exc}") from exc
    if len(pattern.values) != edge_count or not pattern.is_proper:
        raise HypergraphParseError(f"--signs: expected {edge_count} characters from '+-'")
    return pattern


def _tournament_check(args, h, report) -> None:
    if len(h.edges) != comb(h.n, h.d + 1):  # edges are distinct (d+1)-subsets of 1..n
        raise HypergraphParseError("tournament-check requires a complete hypergraph")
    pattern = _tournament_pattern(args.signs, len(h.edges))
    report["signs"] = args.signs
    report["acyclic"] = faces.is_acyclic_hypertournament(Hypertournament(h.n, h.d, pattern.values))


@dataclass(frozen=True)
class Command:
    """One subcommand: the flags its parser accepts, the handler that fills
    its report, and the oracle checks that `--oracle` appends."""

    flags: tuple[str, ...]
    handler: Callable[[argparse.Namespace, Optional[Hypergraph], dict], Optional[int]]
    checks: tuple[Callable[[argparse.Namespace, Hypergraph, dict], Optional[oracle.OracleReport]], ...] = ()


_BUDGETED = ("--complete", "--input", "--format", "--budget")
COMMANDS = {
    "volume": Command(
        _BUDGETED + ("--shard", "--oracle"), _volume, (_kirchhoff_check, _ehrhart_fit_check, _matrix_tree_check)
    ),
    "ehrhart": Command(_BUDGETED + ("--shard", "--oracle"), _ehrhart, (_ehrhart_fit_check,)),
    "lattice-points": Command(_BUDGETED + ("--shard", "--oracle"), _lattice_points, (_lattice_points_check,)),
    "kalai-census": Command(
        ("--complete", "--format", "--budget", "--shard", "--oracle"), _kalai_census, (_matrix_tree_check,)
    ),
    "duality-check": Command(("--complete", "--format", "--budget"), _duality_check),
    "vertices": Command(_BUDGETED + ("--shard", "--oracle"), _vertices, (_vertex_patterns_check,)),
    "faces": Command(_BUDGETED, _faces),
    "facets": Command(_BUDGETED, _facets),
    "tournament-check": Command(("--complete", "--input", "--format", "--signs"), _tournament_check),
    "oracle": Command(_BUDGETED, _add_oracle_reports),
}

# `acyclo oracle` runs every check of the table once, in this order.
_ALL_CHECKS = (_kirchhoff_check, _ehrhart_fit_check, _lattice_points_check, _matrix_tree_check,
               _vertex_patterns_check)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed subcommand, print its report, and return the exit code."""
    if args.budget is not None and args.budget < 0:
        raise HypergraphParseError(f"--budget must be non-negative, got {args.budget}")
    if args.shard is not None and args.oracle:
        raise HypergraphParseError("--shard cannot be combined with --oracle, which checks whole results")
    budget = census.DEFAULT_SUBSET_BUDGET if args.budget is None else args.budget
    if args.complete is not None:
        n, d = args.complete
        if not 1 <= d <= n - 1:
            raise HypergraphParseError(f"--complete: must satisfy 1 <= d <= n-1 (n={n}, d={d})")
        for k, what in ((d + 1, "edges"), (d, "boundary rows")):  # before the hypergraph is built
            _check_binomial(n, k, budget, f"{what} of complete({n},{d})")
        if args.signs is not None:  # checked against the edge count before the edges are built
            _tournament_pattern(args.signs, comb(n, d + 1))
    command = COMMANDS[args.subcommand]
    report: dict = {"command": args.subcommand}
    if "--input" in command.flags:
        h, report["input"] = _load_input(args)
        if args.input is not None:
            _check_binomial(h.n, h.d, budget, f"boundary rows of {args.input}")
    else:  # the subcommand works from --complete N D alone
        h, report["input"] = None, {"source": f"complete({n},{d})", "n": n, "d": d}
    exit_code = command.handler(args, h, report) or EXIT_OK
    if args.oracle:
        exit_code = max(exit_code, _add_oracle_reports(args, h, report, command.checks))
    _emit(report, args.format)
    return exit_code


def _partition_induced(h: Hypergraph, values: tuple[int, ...]) -> bool:
    """Whether values, a pattern on the complete h, is an ordered partition's
    (`faces.partition_pattern`). Two vertices of different blocks share a
    transversal edge, whose sign is nonzero, so the blocks are the classes
    that no nonzero edge joins; an odd reordering of them negates each sign."""
    apart = {pair for e, s in zip(h.edges, values) if s for pair in combinations(e, 2)}
    blocks: dict[int, list[int]] = {}  # keyed by least vertex: v joins the first key not apart from it
    for v in range(1, h.n + 1):
        blocks.setdefault(next((u for u in blocks if (u, v) not in apart), v), []).append(v)
    if len(blocks) != h.d + 1:
        return False
    pattern = faces.partition_pattern(h.n, h.d, list(blocks.values())).values
    return values in (pattern, tuple(-s for s in pattern))


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_str, total_str = text.split("/")
        index, total = int(index_str), int(total_str)
    except ValueError:
        raise argparse.ArgumentTypeError("expected I/M, e.g. 0/4") from None
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError("shard index must satisfy 0 <= I < M")
    return index, total


_FLAG_OPTIONS = {
    "--complete": {"nargs": 2, "type": int, "metavar": ("N", "D")},
    "--input": {"metavar": "PATH"},
    "--format": {"choices": ("json", "csv", "human"), "default": "json"},
    "--budget": {"type": int},
    "--shard": {"type": _parse_shard, "metavar": "I/M"},
    "--oracle": {"action": "store_true"},
    "--signs": {"metavar": "S", "required": True},
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by later ones: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="acyclo",
        description="Exact volumes, Ehrhart polynomials and face lattices of hypergraphic zonotopes.",
    )
    # the value `run` reads for a flag that the subcommand does not accept
    parser.set_defaults(complete=None, input=None, budget=None, shard=None, oracle=False, signs=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        for flag in command.flags:
            target = source if flag in ("--complete", "--input") else p
            target.add_argument(flag, **_FLAG_OPTIONS[flag])
    return parser


def _join_signs(argv: list[str]) -> list[str]:
    """Rewrite `--signs S` as `--signs=S`, so that argparse does not take a
    pattern starting with '-' for an option."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--signs" else None
        out.append(arg if value is None else f"--signs={value}")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_join_signs(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # HypergraphParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
