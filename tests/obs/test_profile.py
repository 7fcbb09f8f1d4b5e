"""Profile attribution: self/cumulative partitioning and hottest queries."""

from repro import obs
from repro.obs.profile import (
    build_profile,
    hottest_spans,
    profile_text,
    render_hottest,
    render_profile,
)
from repro.obs.spans import Span


def _span(span_id, parent_id, name, start, wall, cpu=0.0, status="ok",
          **attrs):
    return Span(span_id, parent_id, name, start, wall, cpu, dict(attrs),
                status)


class TestAttribution:
    def test_self_wall_excludes_children(self):
        spans = [
            _span(1, None, "synth", 0.0, 10.0),
            _span(2, 1, "enum", 1.0, 6.0),
            _span(3, 2, "smt.solve", 2.0, 4.0),
        ]
        report = build_profile(spans)
        assert abs(report.phase("synth").self_wall - 4.0) < 1e-9
        assert abs(report.phase("enum").self_wall - 2.0) < 1e-9
        assert abs(report.phase("smt.solve").self_wall - 4.0) < 1e-9

    def test_self_times_partition_root_wall(self):
        spans = [
            _span(1, None, "synth", 0.0, 10.0),
            _span(2, 1, "deduct", 0.0, 3.0),
            _span(3, 1, "enum", 3.0, 7.0),
            _span(4, 3, "smt.solve", 3.0, 5.0),
        ]
        report = build_profile(spans)
        self_total = sum(row.self_wall for row in report.phases)
        assert abs(self_total - report.total_wall) < 1e-9

    def test_recursion_not_double_counted_in_cum(self):
        # verify nested under verify: cum counts the outer one only.
        spans = [
            _span(1, None, "verify", 0.0, 8.0),
            _span(2, 1, "verify", 1.0, 3.0),
        ]
        report = build_profile(spans)
        assert abs(report.phase("verify").cum_wall - 8.0) < 1e-9
        assert report.phase("verify").count == 2

    def test_error_spans_counted(self):
        spans = [_span(1, None, "enum", 0.0, 1.0, status="error")]
        report = build_profile(spans)
        assert report.phase("enum").errors == 1
        assert "(1 errors)" in render_profile(report)

    def test_orphan_parents_treated_as_roots(self):
        # A span whose parent was dropped (cap) still profiles as a root.
        spans = [_span(7, 99, "enum", 0.0, 2.0)]
        report = build_profile(spans)
        assert report.roots == 1
        assert abs(report.total_wall - 2.0) < 1e-9


class TestHottest:
    def test_top_k_by_wall(self):
        spans = [
            _span(i, None, "smt.solve", 0.0, wall, rounds=i)
            for i, wall in enumerate([0.1, 0.9, 0.5], start=1)
        ]
        top2 = hottest_spans(spans, top=2)
        assert [s.wall for s in top2] == [0.9, 0.5]

    def test_render_includes_attrs(self):
        spans = [_span(1, None, "smt.solve", 0.0, 0.2, rounds=3,
                       status_attr="sat")]
        text = render_hottest(spans, top=5)
        assert "rounds=3" in text

    def test_render_handles_no_matches(self):
        assert "no" in render_hottest([_span(1, None, "enum", 0.0, 1.0)])


class TestEndToEnd:
    def test_real_run_self_times_sum_to_traced_wall(self):
        """The acceptance check: attribution within 5% of the run's wall."""
        from repro.sygus.parser import parse_sygus_text
        from repro.synth.cooperative import CooperativeSynthesizer

        problem = parse_sygus_text(
            """
            (set-logic LIA)
            (synth-fun max2 ((x Int) (y Int)) Int)
            (declare-var x Int)
            (declare-var y Int)
            (constraint (>= (max2 x y) x))
            (constraint (>= (max2 x y) y))
            (constraint (or (= (max2 x y) x) (= (max2 x y) y)))
            (check-synth)
            """,
            name="max2",
        )
        with obs.recording() as recorder:
            outcome = CooperativeSynthesizer(60).synthesize(problem)
        assert outcome.solution is not None
        report = build_profile(recorder.spans)
        assert report.roots == 1
        self_total = sum(row.self_wall for row in report.phases)
        assert abs(self_total - report.total_wall) <= 0.05 * report.total_wall
        # The solver stack produced real SMT spans under the synth root.
        assert report.phase("smt.solve") is not None
        assert report.phase("synth").count == 1
        text = profile_text(recorder.spans, top=3)
        assert "hottest smt.solve spans" in text


class TestDarkTime:
    """Traced wall outside any root span, per process, named from a plain
    span dump."""

    def test_gap_between_roots_is_dark(self):
        from repro.obs.profile import compute_dark_time

        spans = [
            _span(1, None, "load", 0.0, 2.0),
            _span(2, None, "synth", 5.0, 5.0),  # 3s gap: 2.0 → 5.0
            _span(3, 2, "enum", 5.0, 4.0),  # child: not a root interval
        ]
        (entry,) = compute_dark_time(spans)
        assert entry["pid"] == 0
        assert abs(entry["window"] - 10.0) < 1e-9
        assert abs(entry["covered"] - 7.0) < 1e-9
        assert abs(entry["dark"] - 3.0) < 1e-9

    def test_overlapping_roots_not_double_counted(self):
        from repro.obs.profile import compute_dark_time

        spans = [
            _span(1, None, "a", 0.0, 6.0),
            _span(2, None, "b", 4.0, 6.0),  # overlaps a by 2s
        ]
        (entry,) = compute_dark_time(spans)
        assert abs(entry["covered"] - 10.0) < 1e-9
        assert abs(entry["dark"] - 0.0) < 1e-9

    def test_orphan_parent_counts_as_root(self):
        from repro.obs.profile import compute_dark_time

        # A merged worker tree can reference a parent id that was never
        # shipped; such spans are roots for coverage purposes.
        spans = [_span(1, 999, "orphan", 1.0, 2.0)]
        (entry,) = compute_dark_time(spans)
        assert abs(entry["dark"] - 0.0) < 1e-9

    def test_per_pid_windows_are_independent(self):
        from repro.obs.spans import Span

        from repro.obs.profile import compute_dark_time

        spans = [
            Span(1, None, "parent", 0.0, 10.0, pid=100),
            Span(2, None, "worker", 2.0, 4.0, pid=200),
            Span(3, None, "worker", 8.0, 2.0, pid=200),
        ]
        by_pid = {e["pid"]: e for e in compute_dark_time(spans)}
        assert set(by_pid) == {100, 200}
        assert abs(by_pid[100]["dark"] - 0.0) < 1e-9
        # Worker window 2.0 → 10.0 with 2s uncovered in the middle.
        assert abs(by_pid[200]["window"] - 8.0) < 1e-9
        assert abs(by_pid[200]["dark"] - 2.0) < 1e-9

    def test_render_profile_prints_dark_line(self):
        spans = [
            _span(1, None, "load", 0.0, 2.0),
            _span(2, None, "synth", 5.0, 5.0),
        ]
        text = render_profile(build_profile(spans))
        assert "dark time (pid 0): 3.000s of 10.000s window" in text
        assert "outside any root span" in text
