"""Real-multiplication counts of the detection back ends."""
import math

import numpy as np
import pytest

from mimodsp import AlgoCost, exact_inverse_cost, table2_cost
from mimodsp.complexity import ALGORITHMS


def _oracle_cost(alg, m, k, l):
    """Independently retyped multiplication counts, (per_real, per_use)."""
    gram = 2 * m * k * (k + 1)
    mf = 4 * k * m
    if alg == "nsa":
        return gram + 8 * k * k + 4 * (l - 1) * k ** 3, 4 * k * k + mf
    if alg == "chd":
        # k(k+1)(k+2) is divisible by 3, so this stays integral
        return gram + 2 * k * (k + 1) * (k + 2) // 3, 4 * k * k + 4 * k + mf
    if alg == "mqrd":
        return gram + (8 * k ** 3 + 9 * k * k - 62 * k) / 6.0, 6 * k * k - 2 * k + mf
    if alg == "cd":
        return 0, 4 * m * (l - 1) + 4 * k * m * l
    raise AssertionError(alg)


class TestTable2Cost:
    def test_random_triples_match_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            m = int(rng.integers(1, 513))
            k = int(rng.integers(1, min(m, 64) + 1))
            l = int(rng.integers(1, 7))
            for alg in ALGORITHMS:
                got = table2_cost(alg, m, k, l)
                want_real, want_use = _oracle_cost(alg, m, k, l)
                assert math.isclose(got.per_realization, want_real,
                                    rel_tol=1e-12, abs_tol=1e-9), (alg, m, k, l)
                assert got.per_use == want_use, (alg, m, k, l)

    def test_known_values_m128_k16(self):
        nsa = table2_cost("nsa", 128, 16, 3)
        assert nsa.per_realization == 104448
        assert nsa.per_use == 9216
        chd = table2_cost("chd", 128, 16)
        assert chd.per_realization == 72896
        assert chd.per_use == 9280
        mqrd = table2_cost("mqrd", 128, 16)
        assert mqrd.per_realization == 75312
        assert mqrd.per_use == 9696
        cd = table2_cost("cd", 128, 16, 3)
        assert cd.per_realization == 0
        assert cd.per_use == 25600

    def test_even_k_counts_are_integral(self):
        for alg in ALGORITHMS:
            for k in (2, 8, 24):
                c = table2_cost(alg, 256, k, 2)
                assert c.per_realization == round(c.per_realization)
                assert c.per_use == round(c.per_use)

    def test_case_insensitive(self):
        assert table2_cost("ChD", 64, 8) == table2_cost("chd", 64, 8)

    def test_per_use_monotone_in_dimensions(self):
        for alg in ALGORITHMS:
            small = table2_cost(alg, 64, 8, 2)
            more_k = table2_cost(alg, 64, 12, 2)
            more_m = table2_cost(alg, 96, 8, 2)
            assert more_k.per_use > small.per_use
            assert more_m.per_use > small.per_use

    def test_cd_wins_setup_loses_steady_state(self):
        # No setup work, so coordinate descent is cheapest for short
        # coherence blocks and loses once the factorization amortizes.
        cd = table2_cost("cd", 128, 16, 2)
        chd = table2_cost("chd", 128, 16)
        assert cd.total(1) < chd.total(1)
        assert cd.total(10_000) > chd.total(10_000)

    def test_total_matches_sum(self):
        c = table2_cost("nsa", 128, 16, 3)
        assert c.total(512) == c.per_realization + 512 * c.per_use

    def test_total_rejects_nonpositive_uses(self):
        with pytest.raises(ValueError):
            table2_cost("chd", 64, 8).total(0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            table2_cost("chd", 8, 16)
        with pytest.raises(ValueError):
            table2_cost("chd", 8, 0)

    def test_rejects_missing_iteration_count(self):
        with pytest.raises(ValueError):
            table2_cost("nsa", 64, 8)
        with pytest.raises(ValueError):
            table2_cost("cd", 64, 8, 0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            table2_cost("lenstra", 64, 8)

    def test_is_frozen_record(self):
        c = table2_cost("chd", 64, 8)
        assert isinstance(c, AlgoCost)
        with pytest.raises(AttributeError):
            c.per_use = 0


class TestExactInverseCost:
    def test_known_value(self):
        assert exact_inverse_cost(128, 16) == 36864

    def test_formula(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            m = int(rng.integers(1, 400))
            k = int(rng.integers(1, m + 1))
            assert exact_inverse_cost(m, k) == m * k * k + k ** 3

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            exact_inverse_cost(4, 8)
