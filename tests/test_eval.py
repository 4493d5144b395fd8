"""Rankings, metrics, cross-validation, significance, report files."""

import math

import numpy as np
import pytest

from proxrank.corpus import Judgments
from proxrank.evaluation import (
    EvalError,
    EvalReport,
    MetricSet,
    Ranking,
    compute_metrics,
    cross_validate,
    paired_ttest,
    rank_entities,
    read_report,
    read_run,
    significance_matrix,
    write_comparison,
    write_report,
    write_run,
)

import oracles


def ranking_of(*eids, query_id="q"):
    scores = {eid: float(len(eids) - k) for k, eid in enumerate(eids)}
    return rank_entities(query_id, scores)


class TestRanking:
    def test_orders_by_score_then_id(self):
        r = rank_entities("q", {"b": 1.0, "a": 1.0, "c": 2.0})
        assert r.entity_ids() == ("c", "a", "b")

    def test_positions_are_one_based(self):
        r = ranking_of("x", "y")
        assert r.positions() == {"x": 1, "y": 2}


class TestComputeMetrics:
    def test_hand_worked_example(self):
        r = ranking_of("g1", "b1", "g2")
        m = compute_metrics(r, good={"g1", "g2"}, bad={"b1"})
        assert m.ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
        assert m.rr == 1.0
        assert m.ndcg5 == pytest.approx(
            (1.0 + 1.0 / math.log2(4.0)) / (1.0 + 1.0 / math.log2(3.0)), rel=1e-12
        )
        assert m.pairswap == pytest.approx(0.5, rel=1e-12)

    def test_unretrieved_good_contributes_zero(self):
        r = ranking_of("b1", "g1")
        with_missing = compute_metrics(r, good={"g1", "ghost"}, bad={"b1"})
        assert with_missing.ap == pytest.approx(0.25, rel=1e-12)  # (1/2) / 2

    def test_pairswap_policies(self):
        r = ranking_of("g1", "b1")
        # Missing good loses to the retrieved bad.
        m = compute_metrics(r, good={"g1", "ghost"}, bad={"b1"})
        assert m.pairswap == pytest.approx(0.5, rel=1e-12)  # (0 + 1) / 2
        # Missing bad loses to the retrieved good.
        m = compute_metrics(r, good={"g1"}, bad={"b1", "bghost"})
        assert m.pairswap == pytest.approx(0.0, rel=1e-12)
        # Both missing: coin flip.
        m = compute_metrics(r, good={"ghost"}, bad={"bghost"})
        assert m.pairswap == pytest.approx(0.5, rel=1e-12)

    def test_no_bad_entities_gives_zero_swap_rate(self):
        r = ranking_of("g1")
        assert compute_metrics(r, good={"g1"}, bad=set()).pairswap == 0.0

    def test_no_good_entities_zeroes_everything(self):
        r = ranking_of("b1")
        m = compute_metrics(r, good=set(), bad={"b1"})
        assert (m.ap, m.rr, m.ndcg5, m.ndcg10, m.pairswap) == (0.0,) * 5

    def test_overlapping_judgments_rejected(self):
        with pytest.raises(EvalError):
            compute_metrics(ranking_of("x"), good={"x"}, bad={"x"})

    def test_matches_oracles_on_random_instances(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            eids = [f"e{k}" for k in range(n)]
            scores = {eid: float(rng.normal()) for eid in eids}
            labels = rng.integers(0, 3, size=n)  # 0 unjudged, 1 good, 2 bad
            good = {eid for eid, lab in zip(eids, labels) if lab == 1}
            bad = {eid for eid, lab in zip(eids, labels) if lab == 2}
            r = rank_entities("q", scores)
            m = compute_metrics(r, good, bad)
            ranked = list(r.entity_ids())
            assert m.ap == pytest.approx(oracles.average_precision(ranked, good), abs=1e-12)
            assert m.rr == pytest.approx(oracles.reciprocal_rank(ranked, good), abs=1e-12)
            assert m.ndcg5 == pytest.approx(oracles.ndcg_at(ranked, good, 5), abs=1e-12)
            assert m.ndcg10 == pytest.approx(oracles.ndcg_at(ranked, good, 10), abs=1e-12)
            assert m.pairswap == pytest.approx(
                oracles.pair_swap_rate(ranked, good, bad), abs=1e-12
            )


class TestMacro:
    def test_macro_averages_fields(self):
        report = EvalReport(
            system="s",
            per_query={
                "a": MetricSet(1.0, 1.0, 1.0, 1.0, 0.0),
                "b": MetricSet(0.0, 0.5, 0.0, 0.0, 1.0),
            },
        )
        macro = report.macro()
        assert macro.ap == 0.5
        assert macro.rr == 0.75
        assert macro.pairswap == 0.5

    def test_empty_report_rejected(self):
        with pytest.raises(EvalError):
            EvalReport(system="s", per_query={}).macro()


class FakePrepared:
    def __init__(self, query_id):
        self.query_id = query_id


class TestCrossValidate:
    def judgments(self, qids):
        return Judgments(
            good={q: frozenset({f"{q}-g"}) for q in qids},
            bad={q: frozenset({f"{q}-b"}) for q in qids},
        )

    def perfect_fit(self, train):
        return lambda pq: rank_entities(
            pq.query_id, {f"{pq.query_id}-g": 2.0, f"{pq.query_id}-b": 1.0}
        )

    def test_loocv_holds_out_each_query_once(self):
        qids = [f"q{k}" for k in range(5)]
        items = [FakePrepared(q) for q in qids]
        seen_train_sizes = []

        def fit(train):
            seen_train_sizes.append(len(train))
            return self.perfect_fit(train)

        report = cross_validate(items, self.judgments(qids), fit, protocol="loocv")
        assert sorted(report.per_query) == qids
        assert seen_train_sizes == [4] * 5
        assert report.macro().ap == 1.0

    def test_kfold_partitions_all_queries(self):
        qids = [f"q{k}" for k in range(7)]
        items = [FakePrepared(q) for q in qids]
        report = cross_validate(
            items, self.judgments(qids), self.perfect_fit, protocol="kfold", folds=3
        )
        assert sorted(report.per_query) == qids

    def test_fold_assignment_is_seed_stable(self):
        qids = [f"q{k}" for k in range(6)]
        items = [FakePrepared(q) for q in qids]
        folds_seen = {}

        def spy_fit(train):
            key = tuple(sorted(pq.query_id for pq in train))
            folds_seen.setdefault(len(folds_seen), key)
            return self.perfect_fit(train)

        cross_validate(items, self.judgments(qids), spy_fit, protocol="kfold", folds=2, seed=9)
        first = dict(folds_seen)
        folds_seen.clear()
        cross_validate(items, self.judgments(qids), spy_fit, protocol="kfold", folds=2, seed=9)
        assert folds_seen == first

    def test_validation_errors(self):
        items = [FakePrepared("q0")]
        with pytest.raises(EvalError, match="at least 2"):
            cross_validate(items, self.judgments(["q0"]), self.perfect_fit)
        items = [FakePrepared(f"q{k}") for k in range(3)]
        with pytest.raises(EvalError, match="folds"):
            cross_validate(
                items, self.judgments(["q0", "q1", "q2"]), self.perfect_fit,
                protocol="kfold", folds=5,
            )
        with pytest.raises(EvalError, match="protocol"):
            cross_validate(
                items, self.judgments(["q0", "q1", "q2"]), self.perfect_fit,
                protocol="bootstrap",
            )


class TestTTest:
    def test_identical_samples(self):
        t, p = paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert t == 0.0
        assert p == 1.0

    def test_constant_nonzero_gap(self):
        t, p = paired_ttest([1.0, 1.0], [0.0, 0.0])
        assert t == math.inf
        assert p == 0.0

    def test_matches_density_quadrature(self):
        rng = np.random.default_rng(71)
        for n in (5, 12, 30):
            a = rng.normal(0.1, 1.0, size=n)
            b = rng.normal(0.0, 1.0, size=n)
            t, p = paired_ttest(a, b)
            assert p == pytest.approx(oracles.t_two_sided_p(t, n - 1), rel=1e-9)

    def test_oracle_against_published_critical_values(self):
        # Two-sided 5% critical points: 2.262 at 9 dof, 2.045 at 29 dof.
        assert oracles.t_two_sided_p(2.262, 9) == pytest.approx(0.05, abs=1e-3)
        assert oracles.t_two_sided_p(2.045, 29) == pytest.approx(0.05, abs=1e-3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError):
            paired_ttest([1.0, 2.0], [1.0])
        with pytest.raises(EvalError):
            paired_ttest([1.0], [1.0])


def make_report(system, ap_values):
    per_query = {
        f"q{k:02d}": MetricSet(ap, ap, ap, ap, 1.0 - ap) for k, ap in enumerate(ap_values)
    }
    return EvalReport(system=system, per_query=per_query)


class TestReportsOnDisk:
    def test_report_round_trip(self, tmp_path):
        report = make_report("sys-a", [0.25, 0.5, 1.0])
        path = str(tmp_path / "report.tsv")
        write_report(report, path)
        back = read_report(path)
        assert back.system == "sys-a"
        assert back.per_query == report.per_query

    def test_all_row_carries_the_macro_average(self, tmp_path):
        report = make_report("s", [0.0, 1.0])
        path = str(tmp_path / "report.tsv")
        write_report(report, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[-1].split("\t")[1] == "ALL"
        assert float(lines[-1].split("\t")[2]) == 0.5

    def test_malformed_report_rejected(self, tmp_path):
        path = str(tmp_path / "report.tsv")
        with open(path, "w") as fh:
            fh.write("nonsense\n")
        with pytest.raises(EvalError):
            read_report(path)

    def test_significance_matrix_and_comparison_stars(self, tmp_path):
        rng = np.random.default_rng(83)
        base_ap = rng.uniform(0.3, 0.5, size=12)
        better = make_report("better", np.clip(base_ap + 0.3, 0.0, 1.0))
        same = make_report("same", base_ap)
        baseline = make_report("baseline", base_ap)
        matrix = significance_matrix([baseline, better, same], metric="ap")
        assert matrix[("baseline", "better")] < 0.05
        assert matrix[("baseline", "same")] == 1.0
        path = str(tmp_path / "comparison.tsv")
        write_comparison([baseline, better, same], path)
        with open(path) as fh:
            rows = {ln.split("\t")[0]: ln for ln in fh.read().splitlines()[1:]}
        assert "*" in rows["better"]
        assert "*" not in rows["same"]
        assert "*" not in rows["baseline"]

    def test_comparison_needs_reports(self, tmp_path):
        with pytest.raises(EvalError):
            write_comparison([], str(tmp_path / "c.tsv"))

    def test_mismatched_query_sets_rejected(self):
        a = make_report("a", [0.5, 0.6])
        b = EvalReport(system="b", per_query={"zz": MetricSet(1, 1, 1, 1, 0)})
        with pytest.raises(EvalError, match="query sets"):
            significance_matrix([a, b])


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        rankings = [
            rank_entities("q1", {"a": 2.0, "b": 1.0}),
            rank_entities("q0", {"x": 0.25}),
        ]
        path = str(tmp_path / "run.txt")
        write_run(rankings, path, tag="demo")
        back = read_run(path)
        assert [r.query_id for r in back] == ["q0", "q1"]
        assert back[1].items == (("a", 2.0), ("b", 1.0))
        with open(path) as fh:
            first_line = fh.read().splitlines()[0].split()
        assert first_line == ["q0", "Q0", "x", "1", "0.25", "demo"]

    def test_read_reranks_by_score(self, tmp_path):
        path = str(tmp_path / "run.txt")
        with open(path, "w") as fh:
            fh.write("q Q0 low 1 1.0 t\n")  # rank column lies
            fh.write("q Q0 high 2 2.0 t\n")
        back = read_run(path)
        assert back[0].entity_ids() == ("high", "low")

    def test_duplicate_entity_rejected(self, tmp_path):
        path = str(tmp_path / "run.txt")
        with open(path, "w") as fh:
            fh.write("q Q0 e 1 1.0 t\nq Q0 e 2 2.0 t\n")
        with pytest.raises(EvalError, match="duplicate"):
            read_run(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = str(tmp_path / "run.txt")
        with open(path, "w") as fh:
            fh.write("q Q0 e 1\n")
        with pytest.raises(EvalError, match="6 fields"):
            read_run(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = str(tmp_path / "run.txt")
        with open(path, "w") as fh:
            fh.write("q Q0 a 1 1.0 t\nq Q0 b 2 abc t\n")
        with pytest.raises(EvalError, match=r"run\.txt:2: score 'abc' for 'b' is not a number"):
            read_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = str(tmp_path / "run.txt")
        with open(path, "w") as fh:
            fh.write(f"q Q0 a 1 1.0 t\nq Q0 b 2 {score} t\n")
        with pytest.raises(EvalError, match=r"run\.txt:2: .*not finite"):
            read_run(path)
