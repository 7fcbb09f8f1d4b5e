"""The subproblem-graph explainer: attribution, rule table, frontier."""

import pytest

from repro import obs
from repro.bench.runner import make_solver
from repro.obs.explain import (
    RUN_BUCKET,
    build_explain,
    explain_text,
    render_explain,
)
from repro.obs.spans import ObsEvent, Span
from repro.sygus.parser import parse_sygus_text

from tests.obs.test_forensics import MAX2

def _run(text, name, timeout):
    problem = parse_sygus_text(text, name)
    solver = make_solver("dryadsynth", timeout)
    with obs.recording() as recorder:
        outcome = solver.synthesize(problem)
    return outcome, recorder


@pytest.fixture(scope="module")
def solved_report():
    outcome, recorder = _run(MAX2, "max2", 5.0)
    assert outcome.solution is not None
    return build_explain(recorder.spans, recorder.events)


class TestAttribution:
    def test_self_times_partition_traced_wall(self, solved_report):
        """Acceptance: per-node self times sum to 100% of traced wall."""
        report = solved_report
        assert report.total_wall > 0
        assert report.attributed_wall() == pytest.approx(
            report.total_wall, abs=1e-9
        )

    def test_source_node_dominates_a_single_node_run(self, solved_report):
        report = solved_report
        assert len(report.roots) == 1
        source = report.nodes[report.roots[0]]
        assert source.fun == "max2"
        assert source.solved
        assert source.self_wall > report.run_self_wall

    def test_smt_rounds_are_aggregated_per_node(self, solved_report):
        source = solved_report.nodes[solved_report.roots[0]]
        assert source.smt_calls > 0
        assert source.smt_rounds > 0

    def test_source_node_lists_its_problem(self, solved_report):
        source = solved_report.nodes[solved_report.roots[0]]
        assert source.problems == ["max2"]

    def test_rule_table_is_populated(self, solved_report):
        rules = {row.rule for row in solved_report.rules}
        assert rules & {"ge-max", "ge-min", "le-max", "eq"}

    def test_render_mentions_tree_rules_and_run_bucket(self, solved_report):
        rendered = render_explain(solved_report)
        assert "subproblem tree" in rendered
        assert "deduction rules" in rendered
        assert RUN_BUCKET in rendered
        assert "failure frontier" not in rendered  # solved run


class TestFailureFrontier:
    def test_timed_out_run_reports_frontier(self):
        """Acceptance: a timed-out problem names the last division strategy
        and deduction rule on a non-empty failure frontier."""
        from repro.bench.suite import demo_subset

        # qm-max3's restricted grammar defeats direct deduction; the
        # cooperative loop divides and enumerates well past this budget.
        bench = next(b for b in demo_subset() if b.name == "qm-max3")
        solver = make_solver("dryadsynth", 0.4)
        with obs.recording() as recorder:
            outcome = solver.synthesize(bench.problem())
        assert outcome.solution is None
        report = build_explain(recorder.spans, recorder.events)
        assert not report.solved
        assert report.frontier, "unsolved run must expose a frontier"
        assert report.attributed_wall() == pytest.approx(
            report.total_wall, abs=1e-9
        )
        named_strategy = any(
            n.last_strategy or n.strategy for n in report.frontier
        )
        named_rule = any(n.last_rule for n in report.frontier)
        assert named_strategy, "frontier must name a division strategy"
        assert named_rule, "frontier must name a deduction rule"
        rendered = render_explain(report)
        assert "failure frontier" in rendered
        assert "UNSOLVED" in rendered


class TestSyntheticStreams:
    """Tree building from hand-made events (no solver run)."""

    def _events(self):
        return [
            ObsEvent("graph.node", 0.0, {"node": "aaa", "fun": "f",
                                         "depth": 0}, "forensics", 1),
            ObsEvent("graph.node", 0.1, {"node": "bbb", "fun": "g0!f",
                                         "parent": "aaa", "depth": 1,
                                         "strategy": "fixed-term"},
                     "forensics", 1),
            ObsEvent("graph.share", 0.2, {"node": "bbb", "fun": "g0!f",
                                          "parent": "aaa", "depth": 1,
                                          "strategy": "subterm"},
                     "forensics", 1),
            ObsEvent("graph.solve", 0.3, {"node": "bbb", "fun": "g0!f",
                                          "how": "direct", "depth": 1},
                     "forensics", 2),
            ObsEvent("deduct.rule", 0.25, {"rule": "match",
                                           "outcome": "failed"},
                     "forensics", 2),
        ]

    def _spans(self):
        return [
            Span(1, None, "synth", 0.0, wall=1.0, attrs={"node": "aaa"}),
            Span(2, 1, "enum", 0.2, wall=0.4, attrs={"node": "bbb"}),
        ]

    def test_tree_share_and_event_resolution(self):
        report = build_explain(self._spans(), self._events())
        assert report.roots == ["aaa"]
        assert report.nodes["aaa"].children == ["bbb"]
        assert report.nodes["bbb"].extra_parents == 1
        assert report.nodes["bbb"].solved_how == "direct"
        # deduct.rule carried no node attr: resolved via its span's ancestry
        assert report.nodes["bbb"].last_rule == "match"
        assert report.nodes["aaa"].self_wall == pytest.approx(0.6)
        assert report.nodes["bbb"].self_wall == pytest.approx(0.4)
        assert report.attributed_wall() == pytest.approx(report.total_wall)

    def test_unsolved_root_is_the_frontier(self):
        report = build_explain(self._spans(), self._events())
        assert not report.solved
        assert [n.node_id for n in report.frontier] == ["aaa"]

    def test_truncated_flag_rides_into_render(self):
        text = explain_text(self._spans(), self._events(), truncated=True)
        assert "WARNING" in text
        assert "truncated" in text

    def test_empty_streams(self):
        report = build_explain([], [])
        assert report.nodes == {}
        assert report.total_wall == 0.0
        assert "0 node(s)" in render_explain(report)


class TestRequestRows:
    """serve.request spans from a daemon dump render as a request table."""

    def _spans(self):
        return [
            Span(1, None, "serve.request", 0.0, wall=2.5,
                 attrs={"trace_id": "a" * 32, "serve_id": "sv-1",
                        "client": "alice", "problem": "max2",
                        "job_status": "solved"}),
            Span(2, 1, "serve.queue_wait", 0.0, wall=0.5,
                 attrs={"trace_id": "a" * 32}),
            Span(3, None, "serve.request", 0.5, wall=0.3,
                 attrs={"trace_id": "b" * 32, "serve_id": "sv-2",
                        "client": "bob", "problem": "max2",
                        "job_status": "solved", "from_cache": True}),
        ]

    def test_rows_collated_slowest_first(self):
        report = build_explain(self._spans(), [])
        assert [row.serve_id for row in report.requests] == ["sv-1", "sv-2"]
        first = report.requests[0]
        assert first.trace_id == "a" * 32
        assert first.queue_wait == 0.5
        assert first.latency == 2.5
        assert report.requests[1].from_cache is True

    def test_rendered_table_contains_trace_ids(self):
        report = build_explain(self._spans(), [])
        text = render_explain(report)
        assert "daemon requests" in text
        assert "a" * 32 in text
        assert "alice" in text
        assert "solved*" in text  # cache-hit marker
        assert "served from the result cache" in text

    def test_no_requests_no_section(self):
        report = build_explain([], [])
        assert report.requests == []
        assert "daemon requests" not in render_explain(report)
