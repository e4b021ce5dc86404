"""Tests for AUC, TDR@FDR, accuracy, ROC points, and score/report files."""

import numpy as np
import pytest

from twoview.metrics import (
    MetricReport,
    MetricUndefinedError,
    ScoredSet,
    accuracy,
    auc,
    compute_report,
    roc_points,
    tdr_at_fdr,
    write_scores_csv,
)
from twoview.ndgrad import ContractError

import oracles


def random_scored(rng, n_max=60, force_ties=True):
    n = int(rng.integers(4, n_max))
    labels = np.zeros(n, dtype=int)
    # Guarantee both classes.
    n_pos = int(rng.integers(1, n))
    labels[:n_pos] = 1
    rng.shuffle(labels)
    if force_ties and rng.random() < 0.5:
        # Quantize so ties actually occur.
        scores = rng.integers(0, 6, n) / 5.0
    else:
        scores = rng.uniform(0, 1, n)
    return ScoredSet(scores=scores, labels=labels)


class TestAuc:
    def test_perfect_separation(self):
        s = ScoredSet(scores=np.array([0.9, 0.8, 0.2, 0.1]), labels=np.array([1, 1, 0, 0]))
        assert auc(s) == 1.0

    def test_all_ties(self):
        s = ScoredSet(scores=np.full(6, 0.5), labels=np.array([1, 0, 1, 0, 1, 0]))
        assert auc(s) == 0.5

    def test_hand_case(self):
        s = ScoredSet(scores=np.array([0.8, 0.4, 0.6, 0.2]), labels=np.array([1, 1, 0, 0]))
        assert auc(s) == 0.75

    def test_matches_pair_counting_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            s = random_scored(rng)
            assert auc(s) == oracles.auc_pair_count(s.scores, s.labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        s = random_scored(rng, force_ties=False)
        for transform in (lambda x: 2 * x + 1, np.exp, lambda x: x**3):
            t = ScoredSet(scores=transform(s.scores), labels=s.labels)
            assert auc(t) == auc(s)

    def test_label_complement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_scored(rng, force_ties=False)
            flipped = ScoredSet(scores=s.scores, labels=1 - s.labels)
            assert abs(auc(s) + auc(flipped) - 1.0) < 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc(ScoredSet(scores=np.array([0.1, 0.2]), labels=np.array([1, 1])))


class TestTdrAtFdr:
    def test_perfect_separation_any_target(self):
        s = ScoredSet(scores=np.array([0.9, 0.8, 0.2, 0.1]), labels=np.array([1, 1, 0, 0]))
        for target in (0.0001, 0.001, 0.01, 0.5):
            assert tdr_at_fdr(s, target) == 1.0

    def test_inverted_scores_give_zero(self):
        s = ScoredSet(scores=np.array([0.1, 0.2, 0.8, 0.9]), labels=np.array([1, 1, 0, 0]))
        assert tdr_at_fdr(s, 0.001) == 0.0

    def test_matches_exhaustive_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            s = random_scored(rng)
            target = float(rng.choice([0.0001, 0.001, 0.01, 0.1, 0.3]))
            assert tdr_at_fdr(s, target) == oracles.tdr_exhaustive(s.scores, s.labels, target)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_scored(rng)
            values = [tdr_at_fdr(s, t) for t in (0.0001, 0.001, 0.01, 0.1, 0.5)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_target_validation(self):
        s = ScoredSet(scores=np.array([0.1, 0.9]), labels=np.array([0, 1]))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                tdr_at_fdr(s, bad)


class TestAccuracy:
    def test_all_correct(self):
        s = ScoredSet(scores=np.array([0.9, 0.1]), labels=np.array([1, 0]))
        assert accuracy(s) == 1.0

    def test_flipped_labels_complement(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, 30)
        scores = scores[np.abs(scores - 0.5) > 1e-6]
        labels = rng.integers(0, 2, scores.size)
        s = ScoredSet(scores=scores, labels=labels)
        f = ScoredSet(scores=scores, labels=1 - labels)
        assert abs(accuracy(s) + accuracy(f) - 1.0) < 1e-12

    def test_boundary_score_predicts_fake(self):
        s = ScoredSet(scores=np.array([0.5]), labels=np.array([1]))
        assert accuracy(s) == 1.0
        s0 = ScoredSet(scores=np.array([0.5]), labels=np.array([0]))
        assert accuracy(s0) == 0.0


class TestRocPoints:
    def test_two_sample_separated(self):
        s = ScoredSet(scores=np.array([0.9, 0.1]), labels=np.array([1, 0]))
        assert roc_points(s) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_duplicate_scores_collapse(self):
        s = ScoredSet(scores=np.array([0.5, 0.5, 0.2]), labels=np.array([1, 0, 0]))
        points = roc_points(s)
        assert len(points) == 1 + 2  # (0,0) plus two distinct thresholds

    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_scored(rng)
            pts = roc_points(s)
            assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
            for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
                assert f1 >= f0 and t1 >= t0

    def test_trapezoid_equals_auc(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_scored(rng)
            area = oracles.trapezoid_area(roc_points(s))
            assert abs(area - auc(s)) < 1e-12


class TestScoredSet:
    def test_validation(self):
        with pytest.raises(ContractError):
            ScoredSet(scores=np.array([0.1, 0.2]), labels=np.array([0]))
        with pytest.raises(ContractError):
            ScoredSet(scores=np.array([0.1]), labels=np.array([2]))
        with pytest.raises(ContractError):
            ScoredSet(scores=np.array([]), labels=np.array([]))

    def test_counts(self):
        s = ScoredSet(scores=np.array([0.1, 0.2, 0.3]), labels=np.array([0, 1, 1]))
        assert s.n_real == 1 and s.n_fake == 2


class TestReport:
    def test_fields_and_text_round_trip(self):
        rng = np.random.default_rng(8)
        s = random_scored(rng)
        report = compute_report(s)
        text = report.to_text()
        parsed = oracles.parse_report(text)
        assert parsed["auc"] == report.auc
        assert parsed["acc"] == report.acc
        assert parsed["tdr_0.1pct"] == report.tdr_0_1pct
        assert parsed["tdr_0.01pct"] == report.tdr_0_01pct
        assert parsed["tdr_1pct"] == report.tdr_1pct
        assert parsed["n_real"] == report.n_real and parsed["n_fake"] == report.n_fake
        assert parsed["roc"] == report.roc

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            r = compute_report(random_scored(rng))
            for value in (r.auc, r.acc, r.tdr_0_1pct, r.tdr_0_01pct, r.tdr_1pct):
                assert 0.0 <= value <= 1.0

    def test_deterministic_text(self):
        s = ScoredSet(scores=np.array([0.7, 0.3, 0.6]), labels=np.array([1, 0, 1]))
        assert compute_report(s).to_text() == compute_report(s).to_text()

    def test_report_is_a_metricreport(self):
        s = ScoredSet(scores=np.array([0.7, 0.3]), labels=np.array([1, 0]))
        assert isinstance(compute_report(s), MetricReport)


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        s = random_scored(rng)
        ids = [f"sample_{i:05d}" for i in range(s.scores.size)]
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ids, s)
        back_ids, back_scores, back_labels = oracles.read_scores_csv(path)
        assert back_ids == ids
        assert np.array_equal(back_scores, s.scores)  # repr round-trips floats
        assert np.array_equal(back_labels, s.labels)

    def test_bad_header(self, tmp_path):
        # the reader checks the header, so the round trip above pins it too
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            oracles.read_scores_csv(p)
