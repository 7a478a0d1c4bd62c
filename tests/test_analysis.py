import math
import re

import numpy as np
import pytest

from srr.analysis import (
    AXES,
    REPORT_AXES,
    CorrelationReport,
    HyperPoint,
    ZooRecord,
    correlation_report,
    granulated_psi,
    kendall_tau,
)
from srr.errors import ConfigError, NumericError
from srr.linalg import rng_for
from srr.measures import MeasureVector


def record(bs=64, lr=1e-4, w=384, do=0.0, var="crate_c", m=0.0, gap=0.0, converged=True):
    theta = HyperPoint(batch_size=bs, lr_init=lr, width=w, dropout=do, model_variant=var)
    return ZooRecord(theta=theta, measures={"m": m}, gap=gap, converged=converged)


def reference_tau(samples):
    pts = list(samples)
    n = len(pts)
    total = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dm = pts[i][0] - pts[j][0]
            dg = pts[i][1] - pts[j][1]
            total += (dm > 0) * (dg > 0) + (dm < 0) * (dg < 0) - (dm > 0) * (dg < 0) - (dm < 0) * (dg > 0)
    return total / (n * (n - 1))


class TestKendallTau:
    def test_perfect_agreement(self):
        assert kendall_tau([(1, 1), (2, 2)]) == 1.0
        assert kendall_tau([(1, 1), (2, 2), (3, 3), (4, 4)]) == 1.0

    def test_perfect_disagreement(self):
        assert kendall_tau([(1, 2), (2, 1)]) == -1.0

    def test_one_discordant_pair(self):
        assert kendall_tau([(1, 1), (2, 3), (3, 2)]) == pytest.approx(1 / 3)

    def test_ties_contribute_zero(self):
        assert kendall_tau([(1, 1), (2, 1)]) == 0.0
        assert kendall_tau([(1, 1), (1, 2)]) == 0.0
        # all gaps equal: every pair ties on the gap side
        assert kendall_tau([(1, 5), (2, 5), (3, 5)]) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            kendall_tau([(1, 1)])
        with pytest.raises(ConfigError):
            kendall_tau([])

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (2.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(NumericError, match=re.escape(f"sample 1 is not finite: {bad}")):
            kendall_tau([(2.0, 3.0), bad, (math.nan, 0.0)])

    def test_antisymmetry_under_negation(self):
        rng = rng_for(0)
        pts = [(float(m), float(g)) for m, g in rng.standard_normal((12, 2))]
        flipped = [(-m, g) for m, g in pts]
        assert kendall_tau(flipped) == -kendall_tau(pts)

    def test_invariance_under_monotone_transforms(self):
        rng = rng_for(1)
        pts = [(float(m), float(g)) for m, g in rng.standard_normal((10, 2))]
        warped = [(math.exp(m), g**3) for m, g in pts]
        assert kendall_tau(warped) == kendall_tau(pts)

    def test_against_reference_implementation(self):
        rng = rng_for(2)
        for _ in range(50):
            n = int(rng.integers(2, 31))
            # draw from a small integer range so ties actually occur
            pts = list(zip(rng.integers(0, 5, n).tolist(), rng.integers(0, 5, n).tolist()))
            assert kendall_tau(pts) == reference_tau(pts)

    def test_bounded(self):
        rng = rng_for(3)
        for _ in range(20):
            pts = [(float(m), float(g)) for m, g in rng.standard_normal((8, 2))]
            assert -1.0 <= kendall_tau(pts) <= 1.0


class TestHyperPoint:
    def test_frozen_and_hashable(self):
        a = HyperPoint(64, 1e-4, 384, 0.0, "crate_c")
        b = HyperPoint(64, 1e-4, 384, 0.0, "crate_c")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        with pytest.raises(AttributeError):
            a.width = 768


class TestGranulatedPsi:
    def grid_records(self, mus, gaps):
        # 2x2 grid over batch_size x dropout, everything else fixed
        recs = []
        for i, bs in enumerate((64, 128)):
            for j, do in enumerate((0.0, 0.1)):
                recs.append(record(bs=bs, do=do, m=mus[i][j], gap=gaps[i][j]))
        return recs

    def test_mixed_axes_fixture(self):
        # batch axis: both dropout slices concordant -> +1
        # dropout axis: one concordant, one discordant slice -> 0
        recs = self.grid_records(mus=[[1, 2], [3, 4]], gaps=[[1, 2], [4, 3]])
        per_axis, psi = granulated_psi(recs, "m")
        assert per_axis["batch_size"] == 1.0
        assert per_axis["dropout"] == 0.0
        assert per_axis["lr_init"] is None  # single value per slice
        assert per_axis["model_variant"] is None
        assert psi == 0.5

    def test_measure_equal_gap(self):
        recs = self.grid_records(mus=[[1, 2], [3, 4]], gaps=[[1, 2], [3, 4]])
        per_axis, psi = granulated_psi(recs, "m")
        assert per_axis["batch_size"] == 1.0
        assert per_axis["dropout"] == 1.0
        assert psi == 1.0

    def test_single_axis_reduces_to_tau_mean(self):
        recs = [record(bs=bs, m=m, gap=g)
                for bs, m, g in [(32, 1, 1), (64, 2, 3), (128, 3, 2)]]
        per_axis, psi = granulated_psi(recs, "m")
        assert per_axis["batch_size"] == pytest.approx(1 / 3)
        assert all(per_axis[a] is None for a in REPORT_AXES if a != "batch_size")
        assert psi == pytest.approx(1 / 3)

    def test_unconverged_and_non_finite_records_excluded(self):
        recs = self.grid_records(mus=[[1, 2], [3, 4]], gaps=[[1, 2], [3, 4]])
        recs.append(record(bs=64, do=0.0, m=100.0, gap=-100.0, converged=False))
        recs.append(record(bs=128, do=0.1, m=float("nan"), gap=0.0))
        per_axis, psi = granulated_psi(recs, "m")
        assert psi == 1.0

    def test_no_usable_axis(self):
        per_axis, psi = granulated_psi([record(m=1, gap=1)], "m")
        assert all(v is None for v in per_axis.values())
        assert math.isnan(psi)

    def test_width_never_appears_as_axis(self):
        recs = [record(w=w, m=m, gap=g) for w, m, g in [(384, 1, 1), (768, 2, 2)]]
        per_axis, _ = granulated_psi(recs, "m")
        assert set(per_axis) == set(REPORT_AXES)
        # the two records differ only in width, so every report axis slices
        # them into singleton groups
        assert all(v is None for v in per_axis.values())

    def test_measure_vector_records(self):
        recs = []
        for bs, val, gap in [(32, 0.1, 0.2), (64, 0.5, 0.9)]:
            mv = MeasureVector()
            mv.srr = val
            theta = HyperPoint(bs, 1e-4, 384, 0.0, "crate_c")
            recs.append(ZooRecord(theta=theta, measures=mv, gap=gap))
        per_axis, psi = granulated_psi(recs, "srr")
        assert per_axis["batch_size"] == 1.0
        assert psi == 1.0


class TestCorrelationReport:
    def records(self):
        recs = []
        rng = rng_for(4)
        for bs in (64, 128):
            for lr in (1e-4, 1e-3):
                for w in (384, 768):
                    gap = float(rng.random())
                    theta = HyperPoint(bs, lr, w, 0.0, "crate_c")
                    recs.append(ZooRecord(theta=theta, measures={"good": gap, "bad": -gap, "flat": 1.0}, gap=gap))
        return recs

    def test_rows_and_signs(self):
        rep = correlation_report(self.records(), ["good", "bad", "flat"])
        assert [r["measure"] for r in rep.rows] == ["good", "bad", "flat"]
        good, bad, flat = rep.rows
        assert good["overall_tau"] == 1.0 and good["psi"] == 1.0
        assert bad["overall_tau"] == -1.0 and bad["psi"] == -1.0
        assert flat["overall_tau"] == 0.0 and flat["psi"] == 0.0
        assert rep.n_converged == 8 and rep.n_excluded == 0

    def test_psi_matches_granulated(self):
        recs = self.records()
        rep = correlation_report(recs, ["good"])
        per_axis, psi = granulated_psi(recs, "good")
        row = rep.rows[0]
        assert row["batch_size"] == per_axis["batch_size"]
        assert row["learning_rate"] == per_axis["lr_init"]
        assert row["dropout"] == per_axis["dropout"]
        assert row["model_type"] == per_axis["model_variant"]
        assert row["psi"] == psi

    def test_width_filter(self):
        recs = self.records()
        rep = correlation_report(recs, ["good"], width_filter=384)
        assert rep.width_filter == 384
        assert rep.n_converged == 4
        assert rep.rows[0]["overall_tau"] == 1.0
        with pytest.raises(ConfigError):
            correlation_report(recs, ["good"], width_filter=999)

    def test_all_unconverged_rejected(self):
        recs = [record(m=1, gap=1, converged=False), record(bs=128, m=2, gap=2, converged=False)]
        with pytest.raises(ConfigError):
            correlation_report(recs, ["m"])

    def test_too_few_usable_gives_none(self):
        recs = [record(m=1, gap=1), record(bs=128, m=float("nan"), gap=2)]
        rep = correlation_report(recs, ["m"])
        assert rep.rows[0]["overall_tau"] is None
        assert rep.rows[0]["psi"] is None

    def test_csv_text(self):
        rep = correlation_report(self.records(), ["good", "flat"])
        text = rep.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "measure,batch_size,learning_rate,dropout,model_type,overall_tau,psi"
        assert lines[1].startswith("good,")
        cells = lines[1].split(",")
        assert float(cells[5]) == 1.0
        # dropout axis has no 2-point slice in this grid -> empty cell
        assert cells[3] == ""
        assert lines[-1] == "# converged=8 excluded=0 width_filter="
        assert text == rep.to_csv_text()  # byte-stable

    def test_csv_footer_with_filter(self):
        rep = correlation_report(self.records(), ["good"], width_filter=768)
        assert rep.to_csv_text().strip().split("\n")[-1] == "# converged=4 excluded=0 width_filter=768"

    def test_plain_text_table(self):
        rep = correlation_report(self.records(), ["good"])
        text = rep.to_text()
        assert "measure" in text and "overall_tau" in text
        assert "+1.000" in text
        assert "(8 converged runs; 0 excluded)" in text
        # None renders as a dash
        assert " -" in text

    def test_save(self, tmp_path):
        rep = correlation_report(self.records(), ["good"])
        p = tmp_path / "report.csv"
        rep.save(p)
        assert p.read_text() == rep.to_csv_text()
