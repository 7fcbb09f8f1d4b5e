"""Cross-run regression attribution (repro.obs.diff / dryadsynth diff)."""

import pytest

from repro import obs
from repro.bench.runner import make_solver
from repro.obs.diff import build_diff, problem_rollup, render_diff
from repro.obs.spans import ObsEvent, Span
from repro.sygus.parser import parse_sygus_text

from tests.obs.test_forensics import MAX2


def _run(text, name, timeout=5.0):
    problem = parse_sygus_text(text, name)
    solver = make_solver("dryadsynth", timeout)
    with obs.recording() as recorder:
        outcome = solver.synthesize(problem)
    return outcome, recorder


@pytest.fixture(scope="module")
def two_runs():
    outcome_a, rec_a = _run(MAX2, "max2")
    outcome_b, rec_b = _run(MAX2, "max2")
    assert outcome_a.solution is not None
    assert outcome_b.solution is not None
    return rec_a, rec_b


class TestDiffInvariants:
    def test_diff_against_itself_is_all_zeros(self, two_runs):
        """Acceptance: diff(run, run) reports zero everywhere."""
        rec, _ = two_runs
        diff = build_diff(rec.spans, rec.events, rec.spans, rec.events)
        assert diff.total_delta == 0.0
        assert diff.run_self_delta == 0.0
        for node in diff.nodes:
            assert node.delta == 0.0
            assert node.only_in is None
            assert not node.drifted
            assert node.status_a == node.status_b
        assert diff.solved_lost == []
        assert diff.solved_gained == []
        for rule in diff.rules:
            assert rule.fired_delta == 0
            assert rule.failed_delta == 0

    def test_node_deltas_partition_the_wall_delta(self, two_runs):
        """Acceptance: node + (run) deltas sum to the total wall delta
        exactly — the diff is an attribution, not a collection of timers."""
        rec_a, rec_b = two_runs
        diff = build_diff(rec_a.spans, rec_a.events, rec_b.spans, rec_b.events)
        assert diff.attributed_delta() == pytest.approx(
            diff.total_delta, abs=1e-9
        )

    def test_nodes_align_by_stable_id_across_real_runs(self, two_runs):
        rec_a, rec_b = two_runs
        diff = build_diff(rec_a.spans, rec_a.events, rec_b.spans, rec_b.events)
        # Same problem, same solver: every node exists in both runs.
        assert diff.nodes
        assert all(n.only_in is None for n in diff.nodes)

    def test_alignment_across_thread_and_process_backends(self):
        """Node alignment is stable across execution backends: an in-thread
        run diffs cleanly against a worker-process run of the same problem
        (the PR-5 stable-node-id guarantee, exercised end to end)."""
        from repro.service.jobs import SynthesisJob
        from repro.service.pool import WorkerPool

        _, rec_thread = _run(MAX2, "max2")
        job = SynthesisJob(
            problem_text=MAX2,
            solver="dryadsynth",
            timeout=5.0,
            name="max2",
            telemetry=True,
        )
        with WorkerPool(workers=1) as pool:
            (result,) = pool.run([job])
        assert result.status == "solved"
        payload = result.telemetry["spans"]
        worker_spans = [Span.from_json(s) for s in payload["spans"]]
        worker_events = [ObsEvent.from_json(e) for e in payload["events"]]
        diff = build_diff(
            rec_thread.spans, rec_thread.events, worker_spans, worker_events
        )
        assert diff.nodes
        assert all(n.only_in is None for n in diff.nodes)
        assert diff.attributed_delta() == pytest.approx(
            diff.total_delta, abs=1e-9
        )


class TestSyntheticDiff:
    """Alignment semantics from hand-made streams (no solver run)."""

    def _stream(self, node_wall, extra_node=None, strategy="fixed-term",
                solved=True, rule_fired=3):
        spans = [
            Span(1, None, "synth", 0.0, wall=1.0 + node_wall,
                 attrs={"node": "aaa", "problem": "p1",
                        "solved": solved}),
            Span(2, 1, "enum", 0.2, wall=node_wall,
                 attrs={"node": "bbb"}),
        ]
        events = [
            ObsEvent("graph.node", 0.0, {"node": "aaa", "fun": "f",
                                         "depth": 0}, "forensics", 1),
            ObsEvent("graph.node", 0.1, {"node": "bbb", "fun": "g0!f",
                                         "parent": "aaa", "depth": 1,
                                         "strategy": strategy},
                     "forensics", 1),
            ObsEvent("divide.choice", 0.1, {"node": "aaa",
                                            "strategy": strategy},
                     "forensics", 1),
        ]
        for _ in range(rule_fired):
            events.append(
                ObsEvent("deduct.rule", 0.2, {"node": "aaa",
                                              "rule": "match",
                                              "outcome": "fired"},
                         "forensics", 1)
            )
        if solved:
            events.append(
                ObsEvent("graph.solve", 0.3, {"node": "aaa",
                                              "how": "direct"},
                         "forensics", 1)
            )
        if extra_node:
            spans.append(
                Span(3, 1, "deduct", 0.5, wall=0.25,
                     attrs={"node": extra_node})
            )
            events.append(
                ObsEvent("graph.node", 0.5, {"node": extra_node,
                                             "fun": "g1!f",
                                             "parent": "aaa", "depth": 1},
                         "forensics", 1)
            )
        return spans, events

    def test_only_in_marks_created_and_retired_nodes(self):
        spans_a, events_a = self._stream(0.4, extra_node="ccc")
        spans_b, events_b = self._stream(0.4, extra_node="ddd")
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        by_id = {n.node_id: n for n in diff.nodes}
        assert by_id["ccc"].only_in == "A"
        assert by_id["ddd"].only_in == "B"
        assert by_id["aaa"].only_in is None
        # Absent nodes contribute their full self wall to the partition.
        assert by_id["ccc"].delta == pytest.approx(-0.25)
        assert by_id["ddd"].delta == pytest.approx(0.25)
        assert diff.attributed_delta() == pytest.approx(
            diff.total_delta, abs=1e-9
        )

    def test_strategy_drift_detected(self):
        spans_a, events_a = self._stream(0.4, strategy="fixed-term")
        spans_b, events_b = self._stream(0.4, strategy="subterm")
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        drifted = {n.node_id for n in diff.strategy_drift}
        assert "aaa" in drifted
        assert "strategy drift" in render_diff(diff)

    def test_solved_set_changes(self):
        spans_a, events_a = self._stream(0.4, solved=True)
        spans_b, events_b = self._stream(0.4, solved=False)
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        assert diff.solved_lost == ["p1"]
        assert diff.solved_gained == []
        rendered = render_diff(diff)
        assert "solved-set" in rendered
        assert "lost p1" in rendered

    def test_rule_firing_drift(self):
        spans_a, events_a = self._stream(0.4, rule_fired=3)
        spans_b, events_b = self._stream(0.4, rule_fired=7)
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        match = next(r for r in diff.rules if r.rule == "match")
        assert match.fired_delta == 4
        assert "rule-firing drift" in render_diff(diff)

    def test_nodes_sorted_by_absolute_delta(self):
        spans_a, events_a = self._stream(0.1)
        spans_b, events_b = self._stream(0.9)
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        deltas = [abs(n.delta) for n in diff.nodes]
        assert deltas == sorted(deltas, reverse=True)

    def test_to_json_shape(self):
        spans_a, events_a = self._stream(0.4)
        spans_b, events_b = self._stream(0.6)
        diff = build_diff(spans_a, events_a, spans_b, events_b)
        payload = diff.to_json()
        assert payload["format"] == "repro-run-diff/1"
        assert payload["attributed_delta"] == payload["total_delta"]
        assert {n["node"] for n in payload["nodes"]} == {"aaa", "bbb"}
        import json

        json.dumps(payload)  # must serialize as-is

    def test_truncated_flag_warns_in_render(self):
        spans, events = self._stream(0.4)
        diff = build_diff(spans, events, spans, events, truncated_a=True)
        assert diff.truncated
        assert "WARNING" in render_diff(diff)


class TestProblemTools:
    def _multi_problem_stream(self):
        spans = [
            Span(1, None, "synth", 0.0, wall=1.0,
                 attrs={"problem": "p1", "solved": True, "node": "aaa"}),
            Span(2, 1, "enum", 0.2, wall=0.4, attrs={}),
            Span(3, None, "synth", 1.0, wall=2.0,
                 attrs={"problem": "p2", "solved": False, "node": "bbb"}),
            Span(4, None, "scaffold", 0.0, wall=0.1, attrs={}),
        ]
        return spans

    def test_problem_rollup_groups_roots(self):
        spans = self._multi_problem_stream()
        rollup = problem_rollup(spans)
        assert rollup["p1"]["wall"] == pytest.approx(1.0)
        assert rollup["p1"]["solved"] is True
        assert rollup["p2"]["solved"] is False
        assert "scaffold" not in rollup


class TestCommittedDumps:
    """The committed demo-subset pair (bench_dumps/) under the real diff."""

    A = "bench_dumps/budget2s.spans.jsonl"
    B = "bench_dumps/budget5s.spans.jsonl"

    @pytest.fixture(scope="class")
    def dumps(self):
        import os

        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        path_a = os.path.join(root, self.A)
        path_b = os.path.join(root, self.B)
        if not (os.path.exists(path_a) and os.path.exists(path_b)):
            pytest.skip("committed bench_dumps/ pair not present")
        return path_a, path_b

    def test_partition_is_exact_on_committed_dumps(self, dumps):
        """Acceptance: on the committed 2s-vs-5s demo dumps the per-node
        deltas plus the (run) bucket sum to the total delta to 1e-9."""
        from repro.obs.diff import diff_from_files

        diff = diff_from_files(*dumps)
        assert diff.total_delta > 0  # the 5 s run really is slower
        assert diff.attributed_delta() == pytest.approx(
            diff.total_delta, abs=1e-9
        )
        assert len(diff.nodes) > 100  # the whole demo subset aligned

    def test_budget_growth_converts_a_timeout(self, dumps):
        from repro.obs.diff import diff_from_files, render_diff

        diff = diff_from_files(*dumps)
        assert "array_search_2" in diff.solved_gained
        assert diff.solved_lost == []
        text = render_diff(diff)
        assert "attribution check" in text
