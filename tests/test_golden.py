import pytest

from besselnorms import golden


class TestRoundSig:
    def test_examples(self):
        assert golden.round_sig(0.14468149, 6) == 0.144681
        assert golden.round_sig(1.759e-6, 4) == 1.759e-6
        assert golden.round_sig(0.0) == 0.0


class TestMatches6sf:
    def test_exact(self):
        assert golden.matches_6sf(0.144681, 0.144681)

    def test_one_ulp_tolerated(self):
        assert golden.matches_6sf(0.1446815, 0.144681)
        assert golden.matches_6sf(0.144680, 0.144681)

    def test_two_ulps_rejected(self):
        assert not golden.matches_6sf(0.144683, 0.144681)

    def test_scale_free(self):
        assert golden.matches_6sf(1.758674e-6, 1.75867e-6)
        assert not golden.matches_6sf(1.75887e-6, 1.75867e-6)

    def test_zero_reference(self):
        assert golden.matches_6sf(0.0, 0.0)
        assert not golden.matches_6sf(1e-30, 0.0)


class TestMeetsThreshold:
    def test_at_or_below_published(self):
        assert golden.meets_threshold(3.48, 3.48)
        assert golden.meets_threshold(3.47, 3.48)
        assert not golden.meets_threshold(3.49, 3.48)

    def test_no_certified_threshold_meets_nothing(self):
        assert not golden.meets_threshold(None, 4.46)


class TestTables:
    def test_expected_coverage(self):
        assert set(golden.SUP_NORM_DEGREE_ONE) == set(range(2, 11))
        assert set(golden.P4_TRUNCATED_40_K1) == set(range(3, 11))
        assert set(golden.PST_TRUNCATED_50_K1) == set(range(4, 11))
        assert set(golden.PST_TRUNCATED_50_K0) == set(range(6, 11))
        assert set(golden.THRESHOLDS) == set(range(2, 11))

    def test_recomputed_entry_differs_from_published_in_fourth_figure(self):
        published = golden.P4_TRUNCATED_200[(3, 4)]
        recomputed = golden.P4_TRUNCATED_200_RECOMPUTED[(3, 4)]
        assert not golden.matches_6sf(recomputed, published)
        assert recomputed == pytest.approx(published, rel=2e-4)
