"""Tests of the benchmark's own generators, checks and tracing.

Run from the repository root: python3 -m pytest bench/tests
"""

import json
import random
from pathlib import Path

import acyclo
import acyclo.cli
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def inputs(workload, seed, workdir):
    workdir.mkdir()
    jobs, _ = workloads.build(workload, seed, acyclo, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    argv = [tuple(a.replace(str(workdir), "<dir>") for a in j.argv) for j in jobs]
    return argv, [j.expected for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    assert inputs(workload, 7, tmp_path / "a") == inputs(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", ["census", "tournaments"])
def test_other_seed_gives_other_inputs(workload, tmp_path):
    assert inputs(workload, 7, tmp_path / "a") != inputs(workload, 8, tmp_path / "b")


def test_graphs_are_connected_near_regular_with_the_planned_edge_counts(tmp_path):
    jobs, warm_up = workloads.build("census", 3, acyclo, tmp_path)
    graphs = [json.loads(Path(j.argv[-1]).read_text()) for j in jobs if "--input" in j.argv]
    assert sorted(len(g["edges"]) for g in graphs) == sorted(workloads.GRAPH_EDGE_COUNTS)
    for g in graphs:
        h = acyclo.Hypergraph.from_edges(g["n"], 1, g["edges"])
        assert acyclo.kirchhoff_tree_count(h) > 0
        degrees = [sum(v in e for e in g["edges"]) for v in range(1, g["n"] + 1)]
        assert max(degrees) - min(degrees) <= workloads.DEGREE_SPREAD
    assert len(warm_up) == len(graphs) + 2


def make_tournaments(seed):
    return workloads.tournaments(random.Random(seed), acyclo)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_acyclic_patterns_are_realized_by_their_cochain(seed):
    acyclic = [t for t in make_tournaments(seed) if t.acyclic]
    assert len(acyclic) == workloads.TOURNAMENTS_PER_KIND * len(workloads.TOURNAMENT_SHAPES)
    for t in acyclic:
        h = acyclo.complete_hypergraph(t.n, t.d)
        values = acyclo.coboundary_apply(h, t.certificate).coeffs
        assert tuple(1 if v > 0 else -1 if v < 0 else 0 for v in values) == t.signs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_patterns_are_positive_on_a_cycle(seed):
    planted = [t for t in make_tournaments(seed) if not t.acyclic]
    assert len(planted) == workloads.TOURNAMENTS_PER_KIND * len(workloads.TOURNAMENT_SHAPES)
    for t in planted:
        z = t.certificate
        support = [e for e, c in enumerate(z) if c]
        assert len(support) == t.d + 2
        assert all(z[e] * t.signs[e] > 0 for e in support)
        boundary = acyclo.boundary_matrix(acyclo.complete_hypergraph(t.n, t.d))
        for r in range(boundary.rows):
            assert sum(boundary.at(r, e) * z[e] for e in support) == 0


def test_signs_are_passed_with_equals_so_a_leading_minus_parses(tmp_path):
    jobs, _ = workloads.build("tournaments", 4, acyclo, tmp_path)
    signs = [j.argv[-1] for j in jobs]
    assert all(a.startswith("--signs=") for a in signs)
    assert any(a.startswith("--signs=-") for a in signs)


def small_job(expected):
    return workloads.Job("volume 4 1", ("volume", "--complete", "4", "1"), workloads._volume, expected)


def run_jobs(jobs):
    result = run.Run()
    run.run_pass(result, acyclo.cli, jobs)
    return result


def test_correct_expected_value_passes():
    result = run_jobs([small_job(4 ** 2)])
    assert (result.attempted, result.failures) == (1, [])


def test_corrupted_expected_value_counts_as_failure():
    result = run_jobs([small_job(4 ** 2 + 1), small_job(4 ** 2)])
    assert result.attempted == 2
    assert len(result.failures) == 1


def test_nonzero_exit_counts_as_failure():
    bad = workloads.Job("bad signs", ("tournament-check", "--complete", "3", "1", "--signs=+"),
                        workloads._acyclic, True)
    result = run_jobs([bad])
    assert len(result.failures) == 1


def test_traced_pass_counts_layers_and_restores_the_modules():
    originals = {name: getattr(acyclo.faces, name) for name in ("solve_feasibility", "rank")}
    tracer = tracing.Tracer()
    result = run.Run()
    plain, traced = run.run_pass(result, acyclo.cli, [
        workloads.Job("faces 4 2", ("faces", "--complete", "4", "2"), workloads._f_vector,
                      ({0: 14, 1: 24, 2: 12, 3: 1}, 51)),
        workloads.Job("kalai 4 2", ("kalai-census", "--complete", "4", "2"), workloads._kalai,
                      (4, {1: 4})),
    ], tracer)
    assert (len(plain), len(traced), result.attempted, result.failures) == (2, 2, 4, [])
    assert {name: getattr(acyclo.faces, name) for name in originals} == originals
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["faces.feasibility_calls"] == metrics["ratlp.calls"] > 0
    assert metrics["ratlp.fm_calls"] + metrics["ratlp.simplex_calls"] <= metrics["ratlp.calls"]
    assert metrics["exactalg.rank_calls"] == 51
    assert metrics["census.forest_nodes"] == 4
    assert metrics["cli.output_bytes"] > 0
    assert 0 <= metrics["faces.self_s"] <= metrics["faces.busy_s"]
    assert 0 <= metrics["ratlp.elim_s"] <= metrics["ratlp.busy_s"]
    assert tracing.median_metrics([metrics, metrics])["ratlp.calls"] == metrics["ratlp.calls"]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_the_runner_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "faces", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_a_call_that_raises_keeps_its_exception_and_its_span():
    tracer = tracing.Tracer()

    def broken(_):
        raise ValueError("boom")

    traced = tracer.wrap_call("exactalg.broken", broken, tracing._has_torsion)
    with pytest.raises(ValueError, match="boom"):
        traced([2])
    assert [(s.name, s.value) for s in tracer.spans] == [("exactalg.broken", None)]


def test_a_job_that_raises_counts_as_failure(monkeypatch):
    def crash(argv):
        raise RuntimeError("crash")

    monkeypatch.setattr(acyclo.cli, "main", crash)
    result = run_jobs([small_job(4 ** 2)])
    assert (result.attempted, len(result.failures)) == (1, 1)
