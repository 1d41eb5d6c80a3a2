"""Command-line front end.

Grammar:
    acyclo <subcommand> [--complete N D | --input PATH]
                        [--format json|csv|human] [--budget B]
                        [--shard I/M] [--oracle] [--signs S]

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
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from . import census, faces, oracle
from .complexes import Hypergraph, complete_hypergraph, cycle_space_dim
from .errors import BudgetExceededError, HypergraphParseError
from .faces import Hypertournament, SignPattern

SUBCOMMANDS = (
    "volume",
    "ehrhart",
    "lattice-points",
    "kalai-census",
    "duality-check",
    "vertices",
    "faces",
    "facets",
    "tournament-check",
    "oracle",
)

# Subcommands whose enumeration --shard splits; every other one rejects it.
SHARDED_SUBCOMMANDS = ("volume", "ehrhart", "lattice-points", "kalai-census", "vertices")

# Subcommands whose report --oracle extends; every other one rejects it.
ORACLE_SUBCOMMANDS = ("volume", "ehrhart", "lattice-points", "vertices")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4


@dataclass
class RunConfig:
    subcommand: str
    complete: Optional[tuple[int, int]] = None
    input_path: Optional[str] = None
    fmt: str = "json"
    budget: Optional[int] = None
    shard: Optional[tuple[int, int]] = None
    oracle: bool = False
    signs: Optional[str] = None


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


def _stringify(value):
    """Big integers as decimal strings; rationals as 'p/q'; containers recursed."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _emit(report: dict, fmt: str) -> None:
    try:
        _write(_stringify(report), fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point the descriptor at
        # os.devnull so that the flush at shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
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


def _load_input(cfg: RunConfig) -> tuple[Hypergraph, dict]:
    if (cfg.complete is None) == (cfg.input_path is None):
        raise HypergraphParseError("exactly one of --complete N D or --input PATH is required")
    if cfg.complete is not None:
        n, d = cfg.complete
        if not 1 <= d <= n - 1:
            raise HypergraphParseError(f"--complete: must satisfy 1 <= d <= n-1 (n={n}, d={d})")
        h = complete_hypergraph(n, d)
        source = f"complete({n},{d})"
    else:
        try:
            with open(cfg.input_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise HypergraphParseError(f"cannot read {cfg.input_path}: {exc}") from exc
        h = parse_hypergraph(text)
        source = cfg.input_path
    echo = {
        "source": source,
        "n": h.n,
        "d": h.d,
        "edge_count": len(h.edges),
    }
    if cfg.input_path is not None:
        echo["edges"] = [list(e) for e in h.edges]
    return h, echo


def _budget_kwargs(cfg: RunConfig) -> dict:
    return {"budget": cfg.budget} if cfg.budget is not None else {}


def _oracle_reports_for(cfg: RunConfig, h: Hypergraph, which: str) -> list[oracle.OracleReport]:
    reports: list[oracle.OracleReport] = []
    kw = _budget_kwargs(cfg)
    if which in ("volume", "all") and h.d == 1:
        reports.append(
            oracle.OracleReport.compare(
                "volume vs kirchhoff", census.volume(h, **kw), oracle.kirchhoff_tree_count(h)
            )
        )
    if which in ("ehrhart", "volume", "all") and len(h.edges) <= oracle.DEFAULT_GENERATOR_CAP:
        reports.append(oracle.ehrhart_fit_check(h))
    if which in ("lattice-points", "all") and len(h.edges) <= oracle.DEFAULT_GENERATOR_CAP:
        reports.append(
            oracle.OracleReport.compare(
                "lattice points at t=1",
                census.lattice_point_count(h, **kw),
                oracle.lattice_points_direct(h, 1),
            )
        )
    if which in ("vertices", "all") and len(h.edges) <= oracle.DEFAULT_PATTERN_CAP:
        enumerated = {p.as_string() for p, _ in faces.enumerate_vertices(h)}
        brute = {p.as_string() for p in oracle.signpattern_bruteforce(h)}
        reports.append(
            oracle.OracleReport.compare(
                "vertex pattern sets", sorted(enumerated), sorted(brute)
            )
        )
    return reports


def _report_entry(r: oracle.OracleReport) -> dict:
    return {
        "quantity": r.quantity,
        "theorem": r.theorem_value,
        "oracle": r.oracle_value,
        "agreement": r.agreement,
    }


def run(cfg: RunConfig) -> int:
    """Execute one subcommand, print its report, and return the exit code."""
    if cfg.budget is not None and cfg.budget < 0:
        raise HypergraphParseError(f"--budget must be non-negative, got {cfg.budget}")
    if cfg.shard is not None and cfg.subcommand not in SHARDED_SUBCOMMANDS:
        raise HypergraphParseError(f"--shard is not supported by {cfg.subcommand}")
    if cfg.oracle and cfg.subcommand not in ORACLE_SUBCOMMANDS:
        raise HypergraphParseError(f"--oracle is not supported by {cfg.subcommand}")
    if cfg.signs is not None and cfg.subcommand != "tournament-check":
        raise HypergraphParseError(f"--signs is not supported by {cfg.subcommand}")
    if cfg.shard is not None and cfg.oracle:
        raise HypergraphParseError("--shard cannot be combined with --oracle, which checks whole results")
    kw = _budget_kwargs(cfg)
    exit_code = EXIT_OK
    report: dict = {"command": cfg.subcommand}

    if cfg.subcommand in ("kalai-census", "duality-check"):
        if cfg.complete is None:
            raise HypergraphParseError(f"{cfg.subcommand} requires --complete N D")
        n, d = cfg.complete
        report["input"] = {"source": f"complete({n},{d})", "n": n, "d": d}
        if cfg.subcommand == "kalai-census":
            result = census.kalai_census(n, d, shard=cfg.shard, **kw)
            expected = n ** comb(n - 2, d)
            report["hypertree_count"] = result.hypertree_count
            report["weighted_volume"] = result.weighted_volume
            report["kalai_sum"] = result.kalai_sum
            report["torsion_histogram"] = {str(k): v for k, v in result.torsion_histogram.items()}
            if cfg.shard is not None:
                report["shard"] = f"{cfg.shard[0]}/{cfg.shard[1]}"
            else:
                report["kalai_expected"] = expected
                report["kalai_match"] = result.kalai_sum == expected
                if not report["kalai_match"]:
                    exit_code = EXIT_DISAGREEMENT
        else:
            if n < d + 3:
                raise HypergraphParseError(f"duality-check requires n >= d+3 (n={n}, d={d})")
            v1, v2 = census.duality_volume_check(n, d, **kw)
            dual_d = n - d - 2
            report["pair"] = [[n, d], [n, dual_d]]
            report["ambient_dimensions"] = [cycle_space_dim(n, d), cycle_space_dim(n, dual_d)]
            report["volumes"] = [v1, v2]
            report["equal"] = v1 == v2
            if not report["equal"]:
                exit_code = EXIT_DISAGREEMENT
        _emit(report, cfg.fmt)
        return exit_code

    h, echo = _load_input(cfg)
    report["input"] = echo

    if cfg.subcommand == "volume":
        report["ambient_dimension"] = cycle_space_dim(h.n, h.d)
        report["volume"] = census.volume(h, shard=cfg.shard, **kw)
    elif cfg.subcommand == "ehrhart":
        poly = census.ehrhart(h, shard=cfg.shard, **kw)
        report["ehrhart"] = {
            "coefficients": list(poly.coefficients),
            "degree": poly.degree,
        }
    elif cfg.subcommand == "lattice-points":
        report["lattice_points"] = census.lattice_point_count(h, shard=cfg.shard, **kw)
    elif cfg.subcommand == "vertices":
        verts = list(faces.enumerate_vertices(h, shard=cfg.shard, **kw))
        report["count"] = len(verts)
        report["vertices"] = [
            {"pattern": p.as_string(), "point": list(point)} for p, point in verts
        ]
    elif cfg.subcommand == "faces":
        lattice = faces.face_lattice(h, **kw)
        report["f_vector"] = {str(k): v for k, v in lattice.f_vector().items()}
        report["faces"] = [
            {
                "dimension": f.dimension,
                "pattern": f.pattern.as_string(),
                "witness": list(f.witness),
            }
            for f in lattice
        ]
    elif cfg.subcommand == "facets":
        lattice = faces.face_lattice(h, **kw)
        complete = h == complete_hypergraph(h.n, h.d)
        partition_set = _partition_facet_patterns(h) if complete else None
        entries = []
        for f in lattice.facets():
            entry = {
                "dimension": f.dimension,
                "pattern": f.pattern.as_string(),
                "vertex_count": len(lattice.vertices_of(f)),
                "partition_induced": (
                    f.pattern.values in partition_set if partition_set is not None else None
                ),
            }
            entries.append(entry)
        report["count"] = len(entries)
        report["facets"] = entries
    elif cfg.subcommand == "tournament-check":
        if cfg.signs is None:
            raise HypergraphParseError("tournament-check requires --signs")
        if h != complete_hypergraph(h.n, h.d):
            raise HypergraphParseError("tournament-check requires a complete hypergraph")
        try:
            pattern = SignPattern.from_string(cfg.signs)
        except ValueError as exc:
            raise HypergraphParseError(f"--signs: {exc}") from exc
        if len(pattern.values) != len(h.edges) or not pattern.is_proper:
            raise HypergraphParseError(
                f"--signs: expected {len(h.edges)} characters from '+-'"
            )
        t = Hypertournament(h.n, h.d, pattern.values)
        report["signs"] = cfg.signs
        report["acyclic"] = faces.is_acyclic_hypertournament(t)
    elif cfg.subcommand == "oracle":
        reports = _oracle_reports_for(cfg, h, "all")
        report["oracle_reports"] = [_report_entry(r) for r in reports]
        if any(not r.agreement for r in reports):
            exit_code = EXIT_DISAGREEMENT
    else:  # pragma: no cover - argparse restricts choices
        raise HypergraphParseError(f"unknown subcommand {cfg.subcommand!r}")

    if cfg.oracle and cfg.subcommand in ORACLE_SUBCOMMANDS:
        reports = _oracle_reports_for(cfg, h, cfg.subcommand)
        report["oracle_reports"] = [_report_entry(r) for r in reports]
        if any(not r.agreement for r in reports):
            exit_code = EXIT_DISAGREEMENT

    _emit(report, cfg.fmt)
    return exit_code


def _partition_facet_patterns(h: Hypergraph) -> set[tuple[int, ...]]:
    """Sign patterns of all ordered partitions of 1..n into d+1 nonempty blocks."""
    n, d = h.n, h.d
    out: set[tuple[int, ...]] = set()

    def assign(v: int, blocks: list[list[int]]) -> None:
        if v > n:
            if all(blocks):
                out.add(faces.partition_pattern(n, d, blocks).values)
            return
        for b in blocks:
            b.append(v)
            assign(v + 1, blocks)
            b.pop()

    assign(1, [[] for _ in range(d + 1)])
    return out


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index_str, total_str = text.split("/")
        index, total = int(index_str), int(total_str)
    except ValueError:
        raise argparse.ArgumentTypeError("expected I/M, e.g. 0/4") from None
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError("shard index must satisfy 0 <= I < M")
    return index, total


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acyclo",
        description="Exact volumes, Ehrhart polynomials and face lattices of hypergraphic zonotopes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--complete", nargs=2, type=int, metavar=("N", "D"))
        p.add_argument("--input", metavar="PATH")
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p.add_argument("--budget", type=int)
        p.add_argument("--shard", type=_parse_shard, metavar="I/M")
        p.add_argument("--oracle", action="store_true")
        p.add_argument("--signs", metavar="S")
    return parser


def _join_signs(argv: list[str]) -> list[str]:
    """Rewrite `--signs S` as `--signs=S`, so that argparse does not take a
    pattern starting with '-' for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--signs" and i + 1 < len(argv):
            out.append(f"--signs={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signs(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    cfg = RunConfig(
        subcommand=args.subcommand,
        complete=tuple(args.complete) if args.complete else None,
        input_path=args.input,
        fmt=args.format,
        budget=args.budget,
        shard=args.shard,
        oracle=args.oracle,
        signs=args.signs,
    )
    try:
        return run(cfg)
    except HypergraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
