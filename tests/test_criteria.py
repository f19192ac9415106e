import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak_mb
from oracles import cosine_distance, minkowski_distance, minkowski_matrix_by_rows
from prunelab import criteria
from prunelab.criteria import (
    Criterion,
    criterion_scores,
    lp_norm_scores,
    parse_criterion,
    select_filters,
)

# the three-filter motivating example: A=(1,1,1), B=(1.1,1,1), C=(0.5,0.3,0.2)
ABC = np.array([[1.0, 1.0, 1.0], [1.1, 1.0, 1.0], [0.5, 0.3, 0.2]]).reshape(3, 3, 1, 1)


class TestNormScores:
    def test_abc_l1_scores(self):
        scores = lp_norm_scores(ABC, 1)
        assert scores == pytest.approx([3.0, 3.1, 1.0])
        assert scores.argmin() == 2  # smallest norm is C

    def test_zero_filter_scores_zero(self):
        w = np.zeros((2, 1, 2, 2))
        w[1] = 1.0
        assert lp_norm_scores(w, 1)[0] == 0.0

    def test_l2_of_3_4(self):
        w = np.array([[3.0, 4.0]]).reshape(1, 2, 1, 1)
        assert lp_norm_scores(w, 2)[0] == pytest.approx(5.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            lp_norm_scores(ABC, 0.5)


class TestMinkowskiDistance:
    def test_self_distance_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert minkowski_distance(x, x, 1.5) == 0.0

    def test_ab_manhattan(self):
        assert minkowski_distance(ABC[0].ravel(), ABC[1].ravel(), 1) == pytest.approx(0.1)

    def test_euclidean_3_4_5(self):
        assert minkowski_distance(np.zeros(2), np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            minkowski_distance(np.zeros(2), np.zeros(3), 1)


class TestCosineDistance:
    def test_identical_direction(self):
        x = np.array([2.0, 1.0])
        assert cosine_distance(x, 3 * x) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_direction(self):
        x = np.array([1.0, 2.0])
        assert cosine_distance(x, -x) == pytest.approx(2.0)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_zero_norm_convention(self):
        assert cosine_distance(np.zeros(3), np.ones(3)) == 1.0


class TestAverageDistance:
    def test_identical_filters_all_zero(self):
        w = np.ones((4, 2, 2, 2))
        for crit in (Criterion("minkowski", 1), Criterion("minkowski", 2), Criterion("cosine")):
            assert np.all(criterion_scores(w, crit) == 0.0)

    def test_abc_hand_computed(self):
        # pairwise L1: d(A,B)=0.1, d(A,C)=2.0, d(B,C)=2.1; divide sums by 3
        scores = criterion_scores(ABC, Criterion("minkowski", 1))
        assert scores == pytest.approx([2.1 / 3, 2.2 / 3, 4.1 / 3])
        assert scores.argmin() == 0  # A is the most replaceable

    @pytest.mark.parametrize("kind,p", [("minkowski", 1), ("minkowski", 2), ("cosine", 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_pair_loop(self, kind, p, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        w = rng.normal(size=(n, int(rng.integers(1, 4)), 3, 3))
        crit = Criterion(kind, p)
        scores = criterion_scores(w, crit)
        z = w.reshape(n, -1)
        expected = np.zeros(n)
        for j in range(n):
            for k in range(n):
                if j == k:
                    continue  # self distance is 0 by definition
                if kind == "minkowski":
                    expected[j] += minkowski_distance(z[j], z[k], p)
                else:
                    expected[j] += cosine_distance(z[j], z[k])
        expected /= n
        assert np.max(np.abs(scores - expected)) < 1e-12

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("n,d", [(3, 7), (5, 1), (8, 9), (16, 144), (33, 1000), (128, 1152)])
    def test_minkowski_upper_triangle_equals_full_rows(self, n, d, p):
        z = np.random.default_rng(n * d).normal(size=(n, d))
        z[1] = 0.0  # a soft-pruned filter
        z[2] = z[0]  # a duplicated filter
        got = criteria._minkowski_matrices(z, [p])[p]
        assert np.array_equal(got, minkowski_matrix_by_rows(z, p))
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("ps,shared", [
        pytest.param((1,), False, id="1"), pytest.param((2,), False, id="2"),
        pytest.param((1,), True, id="shared-1"), pytest.param((2,), True, id="shared-2"),
        pytest.param((1, 2), True, id="shared-1-2"),
    ])
    def test_minkowski_memory_bounded_on_wide_layer(self, ps, shared):
        # 128 filters of 1152 weights: an (N, N, D) float64 temporary would be 151 MB
        bank = np.random.default_rng(0).normal(size=(128, 128, 3, 3))
        if shared:
            peak = traced_peak_mb(criteria.minkowski_scores, bank, ps)
        else:
            peak = traced_peak_mb(criterion_scores, bank, Criterion("minkowski", ps[0]))
        assert peak < 20


def hard_square_inputs() -> np.ndarray:
    """Values whose squares are hard to round, with both signs: exact
    midpoints, subnormal results, results near overflow, and zeros."""
    rng = np.random.default_rng(0)
    # an odd m with a 54-bit m*m: x*x lies exactly halfway between two doubles
    m = rng.integers(94906267, 2**27, size=20000) | 1
    assert all((int(v) * int(v)).bit_length() == 54 for v in m)
    midpoints = np.ldexp(m.astype(np.float64), rng.integers(-80, 60, size=m.size))
    subnormal = np.concatenate([
        np.ldexp(m[:2000].astype(np.float64), -560),  # midpoints that land below 2**-1022
        rng.uniform(1e-170, 1.5e-154, size=2000),
        [5e-324, 2.2250738585072014e-308, 1.4916681462400413e-154],
    ])
    big = np.sqrt(np.finfo(np.float64).max)
    near_overflow = np.concatenate([
        rng.uniform(0.99 * big, 1.01 * big, size=2000),
        [big, np.nextafter(big, 0.0), np.nextafter(big, np.inf), np.finfo(np.float64).max],
    ])
    x = np.concatenate([midpoints, subnormal, near_overflow, [0.0]])
    return np.concatenate([x, -x])


class TestSharedMinkowskiPass:
    """minkowski_scores scores several exponents from one pass over the
    filter pairs, bit-equal to scoring each exponent on its own."""

    @pytest.mark.parametrize("as_type", [int, float])
    @pytest.mark.parametrize(
        "ps", [(1,), (2,), (1, 2), (1, 1.5, 2, 3), (2, 1, 2)], ids=lambda ps: "-".join(map(str, ps))
    )
    @pytest.mark.parametrize("n,d", [(3, 7), (5, 1), (8, 9), (16, 144), (33, 1000), (128, 1152)])
    def test_matches_single_exponent_and_oracle(self, n, d, ps, as_type):
        z = np.random.default_rng(n * d).normal(size=(n, d))
        z[1] = 0.0  # a soft-pruned filter
        z[2] = z[0]  # a duplicated filter
        bank = z.reshape(n, d, 1, 1)
        ps = [as_type(p) if float(p).is_integer() else p for p in ps]
        got = criteria.minkowski_scores(bank, ps)
        assert list(got) == list(dict.fromkeys(ps))  # one entry per distinct p
        for p in ps:
            single = criterion_scores(bank, Criterion("minkowski", p))
            oracle = minkowski_matrix_by_rows(z, p).sum(axis=1) / n
            assert got[p].tobytes() == single.tobytes() == oracle.tobytes()

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            criteria.minkowski_scores(ABC, [1, 0.5])

    @pytest.mark.parametrize("p", [2, 2.0])
    def test_square_bit_equal_to_power(self, p):
        x = hard_square_inputs()
        out = np.empty_like(x)
        with np.errstate(over="ignore"):
            assert criteria._pth_power(x, p, out) is out
            assert out.tobytes() == np.power(x, 2.0).tobytes()
            assert out.tobytes() == (x**p).tobytes()  # the in-place power scoring used before
        assert np.isinf(out).any() and (out[out > 0] < 2.2250738585072014e-308).any()


class TestSelectFilters:
    def test_rate_zero_empty(self):
        assert select_filters(np.array([1.0, 2.0]), 0.0) == []

    def test_abc_l1_prunes_c(self):
        assert select_filters(lp_norm_scores(ABC, 1), 1 / 3) == [2]

    def test_abc_minkowski_aved_prunes_a(self):
        scores = criterion_scores(ABC, Criterion("minkowski", 1))
        assert select_filters(scores, 1 / 3) == [0]

    def test_ties_break_to_lower_index(self):
        assert select_filters(np.array([5.0, 1.0, 1.0, 1.0]), 0.5) == [1, 2]

    def test_result_strictly_ascending(self):
        rng = np.random.default_rng(3)
        out = select_filters(rng.normal(size=20), 0.6)
        assert out == sorted(out) and len(set(out)) == len(out)

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_rate_just_under_one_keeps_a_filter(self, n):
        # the floor's epsilon would lift these rates to N
        for rate in (0.9999999995, 1 - 1e-12):
            assert select_filters(np.arange(float(n)), rate) == list(range(n - 1))

    def test_rate_out_of_range(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="prune_rate"):
                select_filters(np.ones(3), rate)


class TestParseCriterion:
    @pytest.mark.parametrize(
        "name,kind,p",
        [("l1", "norm", 1), ("l2", "norm", 2), ("minkowski1", "minkowski", 1),
         ("minkowski2", "minkowski", 2), ("cosine", "cosine", 2)],
    )
    def test_round_trip(self, name, kind, p):
        crit = parse_criterion(name)
        assert crit.kind == kind and crit.p == p
        assert crit.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            parse_criterion("geometric_median")

    PS = [1, 1.5, 2, 3, 1.0000001, 1 + 2**-52, 1234567, 2.5e10, 1e300]

    @pytest.mark.parametrize("kind", ["norm", "minkowski"])
    def test_name_reads_back(self, kind):
        crits = [Criterion(kind, p) for p in self.PS]
        for crit in crits:
            assert parse_criterion(crit.name) == crit
        assert len({crit.name for crit in crits}) == len(crits)

    @pytest.mark.parametrize("crit", [
        lambda: Criterion("norm", math.inf), lambda: Criterion("minkowski", math.inf),
        lambda: Criterion("norm", math.nan), lambda: parse_criterion("l" + "9" * 400),
        lambda: parse_criterion("minkowski" + "9" * 400),
    ], ids=["norm-inf", "minkowski-inf", "norm-nan", "l-overflow", "minkowski-overflow"])
    def test_non_finite_p_rejected(self, crit):
        with pytest.raises(ValueError, match="p must be finite"):
            crit()


filter_banks = arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(1, 3), st.just(2), st.just(2)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=25, deadline=None)
@given(filter_banks, st.sampled_from(["l1", "l2", "minkowski1", "minkowski2", "cosine"]), st.data())
def test_permutation_equivariance(w, name, data):
    crit = parse_criterion(name)
    perm = data.draw(st.permutations(range(w.shape[0])))
    perm = np.array(perm)
    scores = criterion_scores(w, crit)
    permuted = criterion_scores(w[perm], crit)
    assert np.allclose(permuted, scores[perm], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(filter_banks, st.floats(0.01, 100), st.sampled_from([1.0, 2.0]))
def test_norm_scores_scale_linearly_and_selection_is_invariant(w, c, p):
    base = lp_norm_scores(w, p)
    scaled = lp_norm_scores(c * w, p)
    # the property's float64 domain: no nonzero filter underflows to score 0
    # (0.5 * 5e-324 rounds to 0 and ties it with a zero filter), and no two
    # unequal base scores lie within rtol, where rounding may swap them
    nonzero = np.any(w != 0, axis=(1, 2, 3))
    assume(np.all(base[nonzero] > 0) and np.all(scaled[nonzero] > 0))
    b = np.sort(base)
    assume(not np.any((b[1:] != b[:-1]) & np.isclose(b[1:], b[:-1], rtol=1e-9, atol=0)))
    assert np.allclose(scaled, c * base, rtol=1e-9)
    assert select_filters(base, 0.5) == select_filters(scaled, 0.5)


@settings(max_examples=25, deadline=None)
@given(filter_banks, st.floats(0.1, 10))
def test_cosine_aved_invariant_to_per_filter_rescale(w, c):
    crit = Criterion("cosine")
    base = criterion_scores(w, crit)
    # positive per-filter rescaling keeps every direction, hence every score
    factors = 1.0 + (c - 1.0) * np.linspace(0.1, 1.0, w.shape[0])
    rescaled = criterion_scores(w * factors[:, None, None, None], crit)
    assert np.allclose(rescaled, base, atol=1e-9)


def test_minkowski_aved_not_scale_invariant():
    crit = Criterion("minkowski", 2)
    base = criterion_scores(ABC, crit)
    scaled = criterion_scores(3.0 * ABC, crit)
    assert not np.allclose(scaled, base)
    assert np.allclose(scaled, 3.0 * base)
