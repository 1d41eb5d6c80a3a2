import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from acyclo import Hypergraph, census, cli, complete_hypergraph, complexes, faces, oracle
from acyclo.cli import main, parse_hypergraph, serialize_hypergraph
from acyclo.errors import HypergraphParseError, _count_text

TESTDATA = Path(__file__).parent / "testdata"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_k34_document():
    text = '{"n": 4, "d": 2, "edges": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}'
    assert parse_hypergraph(text) == complete_hypergraph(4, 2)


def test_parse_canonicalizes_edge_order():
    h = parse_hypergraph('{"n": 4, "d": 2, "edges": [[3,1,2]]}')
    assert h.edges == ((1, 2, 3),)


def test_parse_errors_name_the_field():
    cases = [
        ('{"n": 4, "d": 2, "edges": [[1,1,2]]}', "edges[0]"),
        ('{"n": 4, "d": 2, "edges": [[1,2]]}', "edges[0]"),
        ('{"n": 4, "d": 2, "edges": [[1,2,9]]}', "edges[0]"),
        ('{"n": 4, "d": 2, "edges": [[1,2,3],[3,2,1]]}', "edges[1]"),
        ('{"n": 4, "edges": []}', "'d'"),
        ('{"n": 4, "d": 2, "edges": [], "extra": 1}', "'extra'"),
        ('{"n": "4", "d": 2, "edges": []}', "'n'"),
        ("{not json", "line 1"),
    ]
    for text, fragment in cases:
        with pytest.raises(HypergraphParseError) as exc:
            parse_hypergraph(text)
        assert fragment in str(exc.value)


def test_round_trip():
    h = Hypergraph.from_edges(5, 2, [[4, 2, 1], [1, 2, 3], [3, 4, 5]])
    assert parse_hypergraph(serialize_hypergraph(h)) == h
    again = serialize_hypergraph(parse_hypergraph(serialize_hypergraph(h)))
    assert again == serialize_hypergraph(h)


def test_volume_complete_5_1(capsys):
    code, out = run_cli(["volume", "--complete", "5", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["volume"] == "125"
    assert report["ambient_dimension"] == "4"


def test_kalai_census_cli(capsys):
    code, out = run_cli(["kalai-census", "--complete", "4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["kalai_sum"] == "4"
    assert report["hypertree_count"] == "4"
    assert report["kalai_match"] is True


def test_vertices_cli(capsys):
    code, out = run_cli(["vertices", "--complete", "4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "14"
    assert len(report["vertices"]) == 14
    assert all("pattern" in v and "point" in v for v in report["vertices"])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "d": 2, "edges": [[1,1,2]]}')
    code = main(["volume", "--input", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_missing_input_exit_code(capsys):
    assert main(["volume"]) == 2
    capsys.readouterr()
    assert main(["volume", "--complete", "4", "1", "--input", "x.json"]) == 2
    capsys.readouterr()


def test_budget_exit_code(capsys):
    code = main(["kalai-census", "--complete", "7", "2"])
    capsys.readouterr()
    assert code == 3


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_bad_signs_exit_code(capsys):
    code = main(["tournament-check", "--complete", "3", "1", "--signs", "++"])
    capsys.readouterr()
    assert code == 2
    code = main(["tournament-check", "--complete", "3", "1", "--signs", "+0+"])
    capsys.readouterr()
    assert code == 2
    code = main(["tournament-check", "--complete", "3", "1"])
    capsys.readouterr()
    assert code == 2


def test_faces_budget_exit_code(capsys):
    code = main(["faces", "--complete", "6", "2", "--budget", "100"])
    capsys.readouterr()
    assert code == 3


def test_tournament_check_cli(capsys):
    code, out = run_cli(["tournament-check", "--complete", "3", "1", "--signs", "+++"], capsys)
    assert code == 0
    assert json.loads(out)["acyclic"] is True
    code, out = run_cli(["tournament-check", "--complete", "3", "1", "--signs", "+-+"], capsys)
    assert code == 0
    assert json.loads(out)["acyclic"] is False


def test_duality_check_cli(capsys):
    code, out = run_cli(["duality-check", "--complete", "5", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["volumes"] == ["125", "125"]
    assert report["equal"] is True
    assert report["ambient_dimensions"] == ["4", "6"]


def test_duality_check_needs_n_at_least_d_plus_3(capsys):
    code = main(["duality-check", "--complete", "4", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n >= d+3" in captured.err


def test_oracle_subcommand_agrees(capsys):
    code, out = run_cli(["oracle", "--complete", "4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle_reports"]
    assert all(r["agreement"] for r in report["oracle_reports"])


def test_oracle_flag_on_volume(capsys):
    code, out = run_cli(["volume", "--complete", "4", "1", "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert any(r["quantity"] == "volume vs kirchhoff" for r in report["oracle_reports"])
    assert all(r["agreement"] for r in report["oracle_reports"])


def test_shard_reports_merge(capsys):
    full_code, full_out = run_cli(["kalai-census", "--complete", "5", "2"], capsys)
    assert full_code == 0
    full = json.loads(full_out)
    totals = {"hypertree_count": 0, "weighted_volume": 0, "kalai_sum": 0}
    histogram: dict[str, int] = {}
    for i in range(4):
        code, out = run_cli(["kalai-census", "--complete", "5", "2", "--shard", f"{i}/4"], capsys)
        assert code == 0
        part = json.loads(out)
        for key in totals:
            totals[key] += int(part[key])
        for order, count in part["torsion_histogram"].items():
            histogram[order] = histogram.get(order, 0) + int(count)
    assert str(totals["hypertree_count"]) == full["hypertree_count"]
    assert str(totals["weighted_volume"]) == full["weighted_volume"]
    assert str(totals["kalai_sum"]) == full["kalai_sum"]
    assert {k: str(v) for k, v in histogram.items()} == full["torsion_histogram"]


def test_csv_format(capsys):
    code, out = run_cli(["volume", "--complete", "3", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    assert "volume,3" in lines


def test_human_format(capsys):
    code, out = run_cli(["lattice-points", "--complete", "3", "1", "--format", "human"], capsys)
    assert code == 0
    assert "lattice_points: 7" in out


def test_faces_cli(capsys):
    code, out = run_cli(["faces", "--complete", "4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["f_vector"] == {"0": "14", "1": "24", "2": "12", "3": "1"}


def test_facets_cli_partition_flags(capsys):
    code, out = run_cli(["facets", "--complete", "4", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == str(2 ** 4 - 2)
    assert all(entry["partition_induced"] is True for entry in report["facets"])
    code, out = run_cli(["facets", "--complete", "4", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "12"
    assert all(entry["partition_induced"] is True for entry in report["facets"])
    assert all(entry["vertex_count"] == "4" for entry in report["facets"])


def test_vertices_shard_cli(capsys):
    full_code, full_out = run_cli(["vertices", "--complete", "4", "2"], capsys)
    full = {v["pattern"] for v in json.loads(full_out)["vertices"]}
    sharded = set()
    total_count = 0
    for i in range(2):
        code, out = run_cli(["vertices", "--complete", "4", "2", "--shard", f"{i}/2"], capsys)
        assert code == 0
        part = json.loads(out)["vertices"]
        total_count += len(part)
        sharded.update(v["pattern"] for v in part)
    assert total_count == len(full)
    assert sharded == full


def test_golden_outputs(capsys):
    goldens = [
        (["volume", "--complete", "4", "1"], "volume_k4.json"),
        (["kalai-census", "--complete", "4", "2"], "kalai_4_2.json"),
        (["ehrhart", "--complete", "4", "2", "--format", "csv"], "ehrhart_k34.csv"),
        (["vertices", "--complete", "4", "2", "--format", "csv"], "vertices_k34.csv"),
        (["faces", "--complete", "4", "2"], "faces_k34.json"),
    ]
    for args, name in goldens:
        code, out = run_cli(args, capsys)
        assert code == 0
        assert out == (TESTDATA / name).read_text()


# sha256 of stdout: the A(5,2) report holds all 8349 face witnesses, so the
# digests pin the witness rule (each facet's primitive kernel vector, each
# other face's primitive sum of its facets'), which no LP path moves, and the
# JSON layout.
STDOUT_SHA256 = {
    ("faces", "5", "2"): "515986215f8d0351323d1b4b82d7384f96eb5c57d81b21993b70144b4280c53c",
    ("faces", "5", "1"): "979b3ca5edc426b3a672a80c27cd80aa5cd6b1cb401ab631e48bade0aa490a02",
    ("vertices", "6", "1"): "6017c3e374922680ed13f8b58e07474af4f7aa0e618333a979545458dcb4b780",
}


@pytest.mark.parametrize("command, n, d", list(STDOUT_SHA256))
def test_stdout_is_byte_identical(command, n, d, capsys):
    code, out = run_cli([command, "--complete", n, d], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command, n, d]


# sha256 of the faces report with every witness removed, laid out as
# json.dumps(report, indent=2): patterns, dimensions and f-vectors, which no
# choice of witness may move.
PATTERNS_SHA256 = {
    ("5", "2"): "f1f2e67cda344f431e5344135ad36f46ecf4696cbd5b9ecda516266ce6bdcd85",
    ("5", "1"): "665a052ffb61a07d421ab87e21c7b7ae67063faf71c602de9ee0eb03479690ca",
    ("4", "2"): "b4876471282dc388a1488fd14f98c5c31b6254518c0279755c8d400b2ff81c20",
}


@pytest.mark.parametrize("n, d", list(PATTERNS_SHA256))
def test_faces_report_without_witnesses_is_pinned(n, d, capsys):
    code, out = run_cli(["faces", "--complete", n, d], capsys)
    assert code == 0
    report = json.loads(out)
    for face in report["faces"]:
        del face["witness"]
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == PATTERNS_SHA256[n, d]


def _stringify(value):
    """Reference leaf rule: the report with big integers as decimal strings and
    rationals as 'p/q', for json.dumps."""
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


WRITER_REPORTS = {
    "empty": {},
    "nested-and-empty": {"list": [], "dict": {}, "nested": [[], [{}], {"a": [1, [2, []]], "b": {"c": {}}}]},
    "constants": {"flags": [True, False, None], "none": None, "ok": True},
    "integers": {"ints": [-7, 0, 10**39 + 1, -(10**39 + 1)], 3: (1, -2)},
    "rationals": {"values": [Fraction(5), Fraction(-3, 4), Fraction(0), Fraction(10**40, 3), Fraction(-8, 2)]},
    "strings": {
        'k"e\\y': ['quote " backslash \\ tab \t newline \n bell \x07 nul \x00', "Zürich ∂ 😀", ""],
        "source": "données/\"graph\".json",
    },
    # the writer's one-join path takes only lists of exact ints: a bool is
    # an int subclass but prints as true, not "1"
    "int-and-bool": {"mixed": [1, True], "flipped": (False, 0)},
    "ints-mixed-with-other-leaves": {
        "values": [3, None, -4, Fraction(1, 2), "7", 8, Fraction(6), True],
        "tail": ["x", 1, 2],
    },
    "all-bools": {"flags": [True, True, False]},
    "one-int": {"single": [42], "single-tuple": (-1,)},
    "nested-ints": {"matrix": [[1, 2], [3, -4], [0], []], "deep": [[[5, 6]], [[7]]]},
    "huge-negative-in-tuple": {"point": (0, -(10**200 + 7), 10**200)},
}


@pytest.mark.parametrize("report", list(WRITER_REPORTS.values()), ids=list(WRITER_REPORTS))
def test_json_writer_matches_json_dumps(report, capsys):
    cli._emit(report, "json")
    assert capsys.readouterr().out == json.dumps(_stringify(report), indent=2) + "\n"


def test_json_writer_escapes_an_input_path(tmp_path, capsys):
    path = tmp_path / 'graphe "ké\\".json'
    path.write_text(serialize_hypergraph(complete_hypergraph(3, 1)), encoding="utf-8")
    code, out = run_cli(["volume", "--input", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["source"] == str(path)
    assert out == json.dumps(report, indent=2) + "\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "acyclo.cli", "volume", "--complete", "3", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["volume"] == "3"


def test_early_closed_stdout_exits_cleanly():
    # about 110 KB of report, more than the pipe holds: the write after the
    # reader closes its end raises BrokenPipeError, which the CLI absorbs
    proc = subprocess.Popen(
        [sys.executable, "-m", "acyclo.cli", "vertices", "--complete", "6", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def test_ehrhart_below_full_degree_through_the_cli(tmp_path, capsys):
    # two disjoint edges: degree 2, below cycle_space_dim(4, 1) = 3
    path = tmp_path / "two_edges.json"
    path.write_text('{"n": 4, "d": 1, "edges": [[1, 2], [3, 4]]}')
    code, out = run_cli(["ehrhart", "--input", str(path), "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ehrhart"] == {"coefficients": ["1", "2", "1"], "degree": "2"}
    assert [r["agreement"] for r in report["oracle_reports"]] == [True]
    code, out = run_cli(["lattice-points", "--input", str(path), "--oracle"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lattice_points"] == "4"
    assert [r["agreement"] for r in report["oracle_reports"]] == [True]


def test_huge_budget_bound_exit_code(capsys):
    # the bound comb(43758, 24310) has over 13000 digits
    code = main(["volume", "--complete", "18", "9"])
    err = capsys.readouterr().err
    assert code == 3
    assert "at least 10^13052 candidates" in err


def test_count_text_at_an_exact_power_of_ten():
    # the bit-length estimate puts 10**40 at 40 digits; the correction finds 41
    assert _count_text(10**40) == "at least 10^40"
    assert _count_text(10**40 - 1) == "at least 10^39"


def test_signs_with_leading_minus(capsys):
    joined = run_cli(["tournament-check", "--complete", "4", "1", "--signs=-+++++"], capsys)
    separate = run_cli(["tournament-check", "--complete", "4", "1", "--signs", "-+++++"], capsys)
    assert separate == joined
    code, out = separate
    assert code == 0
    report = json.loads(out)
    assert report["signs"] == "-+++++"
    assert report["acyclic"] is True


def test_wrong_length_signs_fail_before_the_hypergraph_is_built(monkeypatch, capsys):
    # complete(229, 2) has 1975354 edges; the length check needs only their count
    def refuse(n, d):
        raise AssertionError(f"complete_hypergraph({n}, {d}) built")

    monkeypatch.setattr(cli, "complete_hypergraph", refuse)
    code = main(["tournament-check", "--complete", "229", "2", "--signs", "+"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--signs: expected 1975354 characters from '+-'" in captured.err


def _missing_one_edge(tmp_path, n, d):
    h = complete_hypergraph(n, d)
    path = tmp_path / f"missing_one_{n}_{d}.json"
    path.write_text(serialize_hypergraph(Hypergraph(n, d, h.edges[1:])))
    return path


def test_tournament_check_rejects_a_non_complete_input(tmp_path, capsys):
    path = _missing_one_edge(tmp_path, 4, 1)
    code = main(["tournament-check", "--input", str(path), "--signs", "+++++"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tournament-check requires a complete hypergraph" in captured.err


def test_facets_of_a_non_complete_input_are_not_partition_checked(tmp_path, capsys):
    code, out = run_cli(["facets", "--input", str(_missing_one_edge(tmp_path, 4, 2))], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["facets"]
    assert all(entry["partition_induced"] is None for entry in report["facets"])


@pytest.mark.parametrize(
    "document, count, dimension",
    [
        ('{"n": 4, "d": 1, "edges": [[1,2],[3,4]]}', 4, 1),
        ((TESTDATA / "tetrahedron_boundary_5_2.json").read_text(), 12, 2),
    ],
    ids=["square", "tetrahedron-boundary"],
)
def test_facets_of_a_rank_deficient_input(document, count, dimension, tmp_path, capsys):
    """The facets lie one dimension below the full face, which is below
    cycle_space_dim(n, d) when the edge columns do not have full rank."""
    path = tmp_path / "input.json"
    path.write_text(document)
    code, out = run_cli(["facets", "--input", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == str(count)
    assert {entry["dimension"] for entry in report["facets"]} == {str(dimension)}
    assert len({entry["pattern"] for entry in report["facets"]}) == count


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """Exit codes and stdout of calls in one process on the shared parser are
    those of the same calls on a parser built afresh for each."""
    argvs = [
        ["volume", "--complete", "4", "1", "--oracle"],
        ["volume", "--complete", "4", "1"],
        ["faces", "--complete", "3", "1", "--oracle"],  # exit 2: faces takes no --oracle
        ["tournament-check", "--complete", "4", "1", "--signs", "------"],
        ["volume"],  # exit 2: no source
        ["kalai-census", "--complete", "4", "2", "--format", "csv"],
    ]
    shared = [run_cli(argv, capsys) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(argv, capsys) for argv in argvs]
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 2, 0, 2, 0]
    assert "oracle_reports" in shared[0][1] and "oracle_reports" not in shared[1][1]
    assert json.loads(shared[3][1])["acyclic"] is True


def test_negative_budget_rejected(capsys):
    code = main(["volume", "--complete", "4", "1", "--budget", "-5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--budget" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["faces", "--complete", "4", "2"],
        ["facets", "--complete", "4", "2"],
        ["duality-check", "--complete", "5", "1"],
        ["tournament-check", "--complete", "3", "1", "--signs", "+++"],
    ],
)
def test_shard_rejected_where_ignored(args, capsys):
    code = main(args + ["--shard", "0/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--shard" in captured.err
    assert captured.out == ""


def test_shard_with_oracle_rejected(capsys):
    code = main(["volume", "--complete", "4", "1", "--shard", "0/2", "--oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--oracle" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["faces", "--complete", "4", "2"],
        ["facets", "--complete", "4", "2"],
        ["kalai-census", "--complete", "4", "2", "--shard", "0/2"],
        ["duality-check", "--complete", "5", "1"],
        ["tournament-check", "--complete", "3", "1", "--signs", "+++"],
        ["oracle", "--complete", "4", "2"],
    ],
)
def test_oracle_rejected_where_ignored(args, capsys):
    code = main(args + ["--oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--oracle" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["volume", "--complete", "3", "1"],
        ["ehrhart", "--complete", "3", "1"],
        ["lattice-points", "--complete", "3", "1"],
        ["kalai-census", "--complete", "4", "2"],
        ["duality-check", "--complete", "5", "1"],
        ["vertices", "--complete", "3", "1"],
        ["faces", "--complete", "3", "1"],
        ["facets", "--complete", "3", "1"],
        ["oracle", "--complete", "3", "1"],
    ],
)
def test_signs_rejected_outside_tournament_check(args, capsys):
    code = main(args + ["--signs", "+++"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--signs" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_reader_closing_stdout_keeps_exit_code(fmt):
    # the report (over 100 kB) outgrows the pipe buffer, so the writer is
    # still blocked when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "acyclo.cli", "vertices", "--complete", "5", "2", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert first
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["tournament-check", "--complete", "3", "1", "--signs", "+++", "--budget", "5"], "--budget"),
        (["kalai-census", "--complete", "4", "2", "--input", str(TESTDATA / "k34.json")], "--input"),
        (["duality-check", "--complete", "5", "1", "--input", str(TESTDATA / "k34.json")], "--input"),
    ],
)
def test_flag_rejected_where_ignored(args, flag, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["volume", "kalai-census", "duality-check"])
def test_oversized_complete_fails_fast(command, capsys):
    # comb(30, 16) = 145422675 edges; building them would take tens of GB
    start = time.perf_counter()
    code = main([command, "--complete", "30", "15"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "145422675" in captured.err
    assert elapsed < 0.5


def test_huge_complete_fails_fast(capsys):
    # comb(2000000, 1000000) has over 600000 digits; computing it exactly
    # takes tens of seconds
    start = time.perf_counter()
    code = main(["volume", "--complete", "2000000", "999999"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "at least 10^" in captured.err
    assert elapsed < 0.5


@pytest.mark.parametrize("command", ["volume", "kalai-census", "vertices", "faces"])
def test_complete_with_oversized_boundary_rows_fails_fast(command, capsys):
    # 3000 edges, but comb(3000, 2998) = 4498500 boundary rows, which the
    # columns would hold
    start = time.perf_counter()
    code = main([command, "--complete", "3000", "2998"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "boundary rows of complete(3000,2998): 4498500 candidates" in captured.err
    assert elapsed < 1


@pytest.mark.parametrize("command", ["volume", "ehrhart", "lattice-points", "vertices", "faces", "facets", "oracle"])
def test_input_with_oversized_boundary_rows_fails_fast(command, tmp_path, capsys):
    # one edge, but comb(100000, 2) = 4999950000 boundary rows
    path = tmp_path / "wide.json"
    path.write_text('{"n": 100000, "d": 2, "edges": [[1, 2, 3]]}')
    start = time.perf_counter()
    code = main([command, "--input", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "4999950000 candidates" in captured.err
    assert elapsed < 1


@pytest.mark.parametrize("n, d", [(600, 598), (2000, 1998), (12000, 11999), (20000, 19999)])
def test_dense_boundary_over_its_cap_fails_fast(n, d, capsys):
    # edges and rows within the budget, but the d-subset index and the
    # columns would hold comb(n, d) * (edges + d) > 10**7 entries
    start = time.perf_counter()
    code = main(["volume", "--complete", str(n), str(d)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "dense boundary entries" in captured.err
    assert elapsed < 1


def test_vertex_points_over_the_dense_cap_fail(monkeypatch, capsys):
    # A(4,1) has 24 vertices, each with a point of comb(4, 1) = 4 entries
    monkeypatch.setattr(complexes, "DENSE_ENTRY_CAP", 96)
    code, out = run_cli(["vertices", "--complete", "4", "1"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == "24"
    monkeypatch.setattr(complexes, "DENSE_ENTRY_CAP", 95)
    code = main(["vertices", "--complete", "4", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "vertex point entries: 96 candidates exceed the budget of 95" in captured.err


def test_many_vertices_with_wide_points_fail_fast(tmp_path, capsys):
    # 16 disjoint edges on 20000 vertices: 2**16 vertices, each with a point
    # of 20000 entries, 1.3 * 10**9 in all; the cap stops the list at 500
    edges = [[2 * i + 1, 2 * i + 2] for i in range(16)]
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps({"n": 20000, "d": 1, "edges": edges}))
    start = time.perf_counter()
    code = main(["vertices", "--input", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "vertex point entries" in captured.err
    assert elapsed < 10


@pytest.mark.parametrize("command", ["volume", "lattice-points"])
def test_oracle_on_a_wide_input_is_skipped(command, tmp_path, capsys):
    # one edge on 100000 vertices: the oracle matrices would have that side
    path = tmp_path / "wide.json"
    path.write_text('{"n": 100000, "d": 1, "edges": [[1, 2]]}')
    start = time.perf_counter()
    code, out = run_cli([command, "--input", str(path), "--oracle"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["oracle_reports"] == []
    assert elapsed < 1


def test_volume_oracle_on_a_long_path_skips_the_fit(tmp_path, capsys):
    # 8 edges on 20 vertices: the fit's box is over oracle.BOX_CAP, so only
    # the Kirchhoff check runs
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": 20, "d": 1, "edges": [[i, i + 1] for i in range(1, 9)]}))
    start = time.perf_counter()
    code, out = run_cli(["volume", "--input", str(path), "--oracle"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert [r["quantity"] for r in json.loads(out)["oracle_reports"]] == ["volume vs kirchhoff"]
    assert elapsed < 5


def test_oracle_subcommand_on_a_wide_input(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text('{"n": 3000, "d": 1, "edges": [[1, 2]]}')
    start = time.perf_counter()
    code, out = run_cli(["oracle", "--input", str(path)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert [r["quantity"] for r in json.loads(out)["oracle_reports"]] == ["vertex pattern sets"]
    assert elapsed < 5


def test_input_rows_use_given_budget(capsys):
    # comb(4, 2) = 6 boundary rows: within the default budget, over a budget of 5
    k34 = str(TESTDATA / "k34.json")
    assert main(["tournament-check", "--input", k34, "--signs", "++++"]) == 0
    capsys.readouterr()
    assert main(["volume", "--input", k34, "--budget", "5"]) == 3
    assert f"boundary rows of {k34}" in capsys.readouterr().err


def test_oversized_complete_uses_given_budget(capsys):
    # comb(6, 3) = 20 edges
    assert main(["faces", "--complete", "6", "2", "--budget", "19"]) == 3
    assert "edges of complete(6,2)" in capsys.readouterr().err


def test_complete_dimension_out_of_range(capsys):
    code = main(["kalai-census", "--complete", "3", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "1 <= d <= n-1" in captured.err
    assert captured.out == ""


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["volume", "--complete", "5", "1", "--oracle"], census, "volume"),
        (["lattice-points", "--complete", "4", "1", "--oracle"], census, "lattice_point_count"),
        (["vertices", "--complete", "4", "1", "--oracle"], faces, "enumerate_vertices"),
        (["oracle", "--complete", "4", "1"], census, "volume"),
    ],
    ids=["volume", "lattice-points", "vertices", "oracle"],
)
def test_oracle_computes_each_value_once(argv, module, name, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, module, name)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert all(r["agreement"] for r in json.loads(out)["oracle_reports"])
    assert len(calls) == 1


def test_ehrhart_oracle_computes_the_polynomial_once(monkeypatch, capsys):
    assert not hasattr(oracle, "ehrhart")  # the fit check is given the polynomial
    calls = _count_calls(monkeypatch, census, "ehrhart")
    code, out = run_cli(["ehrhart", "--complete", "4", "1", "--oracle"], capsys)
    assert code == 0
    assert [r["agreement"] for r in json.loads(out)["oracle_reports"]] == [True]
    assert len(calls) == 1


def test_vertex_oracle_counts_regions_above_the_pattern_cap(capsys):
    code, out = run_cli(["vertices", "--complete", "6", "1", "--oracle"], capsys)
    assert code == 0
    (report,) = json.loads(out)["oracle_reports"]
    assert report == {"quantity": "vertex count vs regions", "theorem": "720", "oracle": "720", "agreement": True}


def test_region_count_respects_the_vertex_budget(capsys):
    code, out = run_cli(["oracle", "--complete", "6", "1", "--budget", str(2 ** 15 - 1)], capsys)
    assert code == 0
    assert [r["quantity"] for r in json.loads(out)["oracle_reports"]] == [
        "volume vs kirchhoff",
        "kalai sum vs matrix-tree",
    ]


@pytest.mark.parametrize(
    "argv, quantities",
    [
        (["oracle", "--complete", "5", "2", "--budget", "500"], ["kalai sum vs matrix-tree"]),
        (["volume", "--complete", "4", "1", "--budget", "20", "--oracle"], ["volume vs kirchhoff"]),
        (["oracle", "--complete", "5", "1", "--budget", "100"], []),
    ],
    ids=["vertex-search-over-budget", "ehrhart-over-budget", "every-check-over-budget"],
)
def test_oracle_checks_over_the_budget_are_skipped(argv, quantities, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    reports = json.loads(out)["oracle_reports"]
    assert [r["quantity"] for r in reports] == quantities
    assert all(r["agreement"] for r in reports)


@pytest.mark.parametrize("n, d, total", [(5, 2, 5**3), (6, 2, 6**6)])
def test_kalai_census_oracle_agrees_with_the_matrix_tree_sum(n, d, total, capsys):
    code, out = run_cli(["kalai-census", "--complete", str(n), str(d), "--oracle"], capsys)
    assert code == 0
    (report,) = json.loads(out)["oracle_reports"]
    assert report == {"quantity": "kalai sum vs matrix-tree", "theorem": str(total), "oracle": str(total),
                      "agreement": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["kalai-census", "--complete", "5", "2", "--oracle"],
        ["oracle", "--complete", "5", "2"],
        ["volume", "--complete", "5", "2", "--oracle"],
    ],
)
def test_matrix_tree_check_exits_4_on_a_wrong_census(argv, monkeypatch, capsys):
    monkeypatch.setattr(census, "_hypertree_histogram", lambda h, budget, shard: {1: 124})
    code, out = run_cli(argv, capsys)
    assert code == 4
    reports = {r["quantity"]: r for r in json.loads(out)["oracle_reports"]}
    assert reports["kalai sum vs matrix-tree"] == {"quantity": "kalai sum vs matrix-tree", "theorem": "124",
                                                   "oracle": "125", "agreement": False}
    assert all(r["agreement"] for q, r in reports.items() if q != "kalai sum vs matrix-tree")


def test_volume_oracle_reads_the_matrix_tree_check_off_its_one_census(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, census, "_hypertree_histogram")
    code, out = run_cli(["volume", "--complete", "7", "4", "--oracle"], capsys)
    assert code == 0 and len(calls) == 1
    report = json.loads(out)
    assert report["volume"] == report["kalai_sum"] == "16807"
    assert report["oracle_reports"] == [
        {"quantity": "kalai sum vs matrix-tree", "theorem": "16807", "oracle": "16807", "agreement": True}
    ]
    code, out = run_cli(["volume", "--complete", "7", "4"], capsys)
    assert code == 0 and "kalai_sum" not in json.loads(out)
